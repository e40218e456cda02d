import contextlib
import csv
import errno
import io
import json
import os
import time

import pytest

from congruence_lab import cli, triangles, verifier
from congruence_lab.cli import main, parse_int_set, parse_m_axis, parse_residues
from congruence_lab.errors import ParameterError


class TestFlagParsing:
    def test_parse_int_set(self):
        assert parse_int_set("1..5") == (1, 2, 3, 4, 5)
        assert parse_int_set("2,3,7") == (2, 3, 7)
        assert parse_int_set("1..3,10") == (1, 2, 3, 10)
        assert parse_int_set("-2..1") == (-2, -1, 0, 1)
        assert parse_int_set("5") == (5,)

    def test_parse_int_set_errors(self):
        for bad in ("", "a", "3..1", "1,,2", "1..b"):
            with pytest.raises(ParameterError):
                parse_int_set(bad)

    def test_parse_residues(self):
        assert parse_residues("all") == "all"
        assert parse_residues("0,2") == (0, 2)

    def test_parse_m_axis(self):
        assert parse_m_axis("1..4") == ("static", (1, 2, 3, 4))
        assert parse_m_axis("1..n") == ("upto_n", 1)
        assert parse_m_axis("3..N") == ("upto_n", 3)


class TestTriangleCommand:
    def test_stdout_rows(self, capsys):
        assert main(["triangle", "eulerian", "--n-max", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "1 11 11 1"
        assert json.loads(lines[0])["family"] == "eulerian"

    def test_stirling_rows(self, capsys):
        assert main(["triangle", "stirling1", "--n-max", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "0 6 11 6 1"
        assert main(["triangle", "stirling2", "--n-max", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "1"

    def test_out_file(self, tmp_path):
        out = tmp_path / "tri.txt"
        assert main(["triangle", "eulerian", "--n-max", "3", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[-1] == "1 4 1"

    def test_file_format(self, tmp_path, capsys):
        path = tmp_path / "s1.tri"
        assert main(["triangle", "stirling1", "--n-max", "4", "--out", str(path)]) == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header == {"format_version": 1, "family": "stirling1", "max_n": 4}
        assert lines[1] == "1"
        assert lines[-1] == "0 6 11 6 1"
        assert main(["triangle", "stirling1", "--n-max", "4"]) == 0
        assert capsys.readouterr().out == path.read_text(encoding="utf-8")


class TestSumCommand:
    def test_fleck_line(self, capsys):
        assert main(["sum", "fleck", "--n", "3", "--p", "2", "--alpha", "1", "--r", "0", "--l", "0"]) == 0
        assert capsys.readouterr().out.strip() == "4 / ord_2 = 2"

    def test_empty_class_is_inf(self, capsys):
        assert main(["sum", "fleck", "--n", "1", "--p", "3", "--r", "2"]) == 0
        assert capsys.readouterr().out.strip() == "0 / ord_3 = inf"

    def test_cdr_with_prime(self, capsys):
        assert main(["sum", "cdr", "--n", "4", "--m", "2", "--d", "2", "--r", "0", "--a", "1", "--p", "3"]) == 0
        assert capsys.readouterr().out.strip() == "18 / ord_3 = 2"

    def test_cdr_without_prime(self, capsys):
        assert main(["sum", "cdr", "--n", "4", "--m", "2", "--d", "2", "--r", "0", "--a", "1"]) == 0
        assert capsys.readouterr().out.strip() == "18"

    def test_spoly(self, capsys):
        assert main(["sum", "spoly", "--n", "3", "--f", "0,1", "--d", "2", "--r", "1", "--a", "1"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_epow_and_bpow(self, capsys):
        assert main(["sum", "epow", "--n", "4", "--p", "2", "--alpha", "1", "--r", "1", "--a", "3"]) == 0
        assert capsys.readouterr().out.strip() == "60 / ord_2 = 2"
        assert main(["sum", "bpow", "--n", "2", "--p", "2", "--alpha", "1", "--r", "1", "--a", "3"]) == 0
        assert capsys.readouterr().out.strip() == "-6 / ord_2 = 1"

    def test_floor_variant_needs_beta(self, capsys):
        assert main(["sum", "fleck", "--n", "5", "--p", "2", "--variant", "floor"]) == 2

    def test_missing_prime_is_usage_error(self, capsys):
        assert main(["sum", "fleck", "--n", "3"]) == 2


class TestVerifyCommand:
    def test_fleck_grid_ok(self, capsys):
        code = main(["verify", "fleck", "--p", "2,3", "--n", "1..30", "--r", "all", "--no-timestamp"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["verdicts"]["VIOLATION"] == 0
        assert report["summary"]["total"] == len(report["records"]) == 30 * (2 + 3)
        assert report["run"]["theorem"] == "fleck"
        assert "timestamp" not in report["run"]

    def test_ec2_small_n_not_applicable(self, capsys):
        code = main(["verify", "ec2", "--n", "1", "--p", "2", "--alpha", "1", "--no-timestamp"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["verdicts"]["NOT-APPLICABLE"] == report["summary"]["total"] == 2

    def test_malformed_flag_exits_2(self, capsys):
        assert main(["verify", "fleck", "--p", "2", "--n", "abc"]) == 2
        assert main(["verify", "nonsense", "--p", "2", "--n", "1..5"]) == 2
        assert main(["verify", "sun", "--p", "2", "--n", "1..5"]) == 2  # missing --beta
        assert main(["verify", "sc2", "--p", "2", "--n", "1..5"]) == 2  # missing --f

    def test_capacity_exits_3(self, capsys):
        triangles.set_row_limit(20)
        assert main(["verify", "sc1", "--p", "2", "--n", "25..30", "--a", "1", "--m", "1..2"]) == 3

    def test_report_file_and_summary_line(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "verify", "ec1", "--p", "2", "--alpha", "1,2", "--l", "0,1",
            "--n", "1..12", "--no-timestamp", "--out", str(out),
        ])
        assert code == 0
        assert "claims" in capsys.readouterr().out
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["summary"]["verdicts"]["VIOLATION"] == 0

    def test_json_round_trip_is_canonical(self, tmp_path):
        out = tmp_path / "report.json"
        main(["verify", "weisman", "--p", "2", "--alpha", "2", "--n", "1..10",
              "--no-timestamp", "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    def test_csv_matches_json_records(self, tmp_path):
        # "--a=-1,1" spelling: a bare "-1,1" token would parse as an option
        args = ["verify", "sc1", "--p", "3", "--n", "1..10", "--m", "1..n", "--a=-1,1",
                "--no-timestamp"]
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        assert main(args + ["--out", str(jpath)]) == 0
        assert main(args + ["--format", "csv", "--out", str(cpath)]) == 0
        records = json.loads(jpath.read_text(encoding="utf-8"))["records"]
        with open(cpath, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records)
        for rec, row in zip(records, rows):
            assert row["theorem"] == rec["theorem"]
            assert int(row["n"]) == rec["params"]["n"]
            assert int(row["r"]) == rec["params"]["r"]
            assert row["sum"] == rec["sum"]
            assert row["verdict"] == rec["verdict"]
            assert row["ord"] == str(rec["ord"])  # "inf" for vacuous sums
            assert int(row["bound"]) == rec["bound"]

    def test_worker_determinism(self, tmp_path):
        base = ["verify", "ec2", "--p", "2,3", "--alpha", "1", "--n", "1..25",
                "--a", "1,3,-5", "--no-timestamp"]
        outs = []
        for workers, name in ((1, "w1.json"), (4, "w4.json")):
            path = tmp_path / name
            assert main(base + ["--workers", str(workers), "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_sc2_polynomials(self, tmp_path):
        out = tmp_path / "sc2.json"
        code = main([
            "verify", "sc2", "--p", "2,3", "--n", "1..15", "--a=-1..2",
            "--f", "1", "--f", "0,-1,0,3", "--no-timestamp", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["summary"]["verdicts"]["VIOLATION"] == 0
        sample = report["records"][0]
        assert sample["bound"] == "sc2"
        assert "sc2" in sample

    def test_m_coupled_to_n(self, tmp_path):
        out = tmp_path / "sc3.json"
        assert main(["verify", "sc3", "--p", "2", "--alpha", "1", "--n", "1..6",
                     "--m", "1..n", "--a", "1", "--no-timestamp", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        pairs = {(r["params"]["n"], r["params"]["m"]) for r in report["records"]}
        assert (1, 1) in pairs and (6, 6) in pairs
        assert not any(m > n for n, m in pairs)

    def test_fail_fast_stops_at_the_first_violation(self, tmp_path, monkeypatch):
        # claim 616 of this grid, (n, p, alpha, l, r) = (12, 3, 1, 1, 0), is the
        # first one of its tuple with a nonzero sum; an unreachable bound for
        # the tuple turns it into a VIOLATION.  The pause on that claim gives
        # any concurrent evaluator time to run ahead of it.
        real_bound, real_check = verifier.bound_exponent, verifier.check_claim
        calls = []

        def forced_bound(spec):
            if (spec.n, spec.p, spec.alpha, spec.l) == (12, 3, 1, 1):
                time.sleep(0.2)
                return 10**6
            return real_bound(spec)

        def counted_check(*args, **kwargs):
            calls.append(args)
            return real_check(*args, **kwargs)

        monkeypatch.setattr(verifier, "bound_exponent", forced_bound)
        monkeypatch.setattr(verifier, "check_claim", counted_check)
        out = tmp_path / "report.json"
        code = main(["verify", "wan-strong", "--n", "1..20", "--p", "2,3", "--alpha", "1,2",
                     "--l", "0..2", "--workers", "2", "--fail-fast", "--no-timestamp",
                     "--out", str(out)])
        assert code == 1
        assert len(calls) == 616
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["summary"]["total"] == len(report["records"]) == 616
        last = report["records"][-1]
        assert last["verdict"] == "VIOLATION"
        assert last["params"] == {"n": 12, "p": 3, "alpha": 1, "l": 1, "d": 3, "r": 0}
        assert report["summary"]["first_violation"] == last["params"]


class TestIdentityCommand:
    def test_single_identity(self, capsys):
        assert main(["identity", "e2", "--n-max", "12"]) == 0
        assert "E2: 12 checks, all passed" in capsys.readouterr().out

    def test_n_range_spelling(self, capsys):
        assert main(["identity", "e2", "--n", "1..12"]) == 0
        assert "E2: 12 checks, all passed" in capsys.readouterr().out

    def test_failed_checks_exit_1(self, capsys, monkeypatch):
        real = triangles.stirling1

        def broken(n, k):
            value = real(n, k)
            return value + 1 if (n, k) == (3, 1) else value

        monkeypatch.setattr(triangles, "stirling1", broken)
        assert main(["identity", "ss3", "--n-max", "6"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_scl3e_filtered(self, capsys):
        assert main(["identity", "scl3e", "--p", "3", "--alpha", "1"]) == 0
        assert "SCL3E: 1 checks, all passed" in capsys.readouterr().out

    def test_all_with_small_ranges(self, capsys, tmp_path):
        out = tmp_path / "ident.json"
        code = main(["identity", "all", "--n-max", "8", "--count", "25",
                     "--scl3e-limit", "20", "--no-timestamp", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert {c["identity"] for c in payload["checks"]} == set(
            ("E1", "E2", "S3", "SS3", "S4", "SCL3E", "L31", "L32")
        )
        assert all(c["failed"] == 0 for c in payload["checks"])

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "ident.csv"
        assert main(["identity", "s3", "--n-max", "6", "--format", "csv",
                     "--no-timestamp", "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["identity"] == "S3"
        assert rows[0]["failed"] == "0"


OUT_COMMANDS = {
    "triangle": ["triangle", "eulerian", "--n-max", "5"],
    "verify": ["verify", "fleck", "--p", "2", "--n", "1..5", "--no-timestamp"],
    "identity": ["identity", "e2", "--n-max", "4", "--no-timestamp"],
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_interrupted_out_keeps_the_old_file(command, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.txt"
    out.write_bytes(b"an earlier run\n")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    assert main(OUT_COMMANDS[command] + ["--out", str(out)]) == 130
    assert out.read_bytes() == b"an earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]
    assert capsys.readouterr().err == "interrupted\n"

    monkeypatch.undo()
    assert main(OUT_COMMANDS[command] + ["--out", str(out)]) == 0
    assert out.read_bytes() != b"an earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


class TestExitCodes:
    def test_ctrl_c_exits_130(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(verifier, "run_grids", interrupted)
        assert main(["verify", "fleck", "--p", "2", "--n", "1..5"]) == 130
        assert capsys.readouterr() == ("", "interrupted\n")

    def test_closed_stdout_exits_141(self, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        with contextlib.redirect_stdout(ClosedPipe()):
            assert main(["triangle", "stirling1", "--n-max", "200"]) == 141
        assert capsys.readouterr() == ("", "")

    def test_closed_stdout_descriptor_moves_to_devnull(self, tmp_path):
        path = tmp_path / "stdout"
        with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            cli._stdout_to_devnull()
            print("written after the reader left")
        assert path.read_text(encoding="utf-8") == ""


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "congruence-lab" in capsys.readouterr().out
