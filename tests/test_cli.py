import argparse
import contextlib
import csv
import errno
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congruence_lab import cli, identities, triangles, verifier
from congruence_lab.bounds import THEOREMS, TheoremId
from congruence_lab.cli import main, parse_int_set, parse_m_axis, parse_residues
from congruence_lab.errors import ParameterError
from congruence_lab.exactmath import INFINITY, IntPolynomial, PAdicOrder
from congruence_lab.verifier import (
    ClaimRecord,
    GridSpec,
    Sc2Comparison,
    TupleResult,
    Verdict,
    check_claim,
    grid_params,
)
from oracles import dictwriter_csv, report_summary


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


# each sum kind (and the floor variant of fleck): the flags it takes besides
# --n, --r and --variant, and an argv that gives every flag it needs
SUM_TAKES = {
    "fleck": ("p alpha l", ["--n", "5", "--p", "2"]),
    "fleck --variant floor": ("p alpha beta l", ["--n", "5", "--p", "2", "--beta", "1"]),
    "bpow": ("p alpha a", ["--n", "5", "--p", "2"]),
    "ewan": ("p alpha l", ["--n", "5", "--p", "2"]),
    "epow": ("p alpha a", ["--n", "5", "--p", "2"]),
    "cdr": ("p d m a", ["--n", "4"]),
    "spoly": ("p d f a", ["--n", "3", "--f", "0,1"]),
}
# a good value of each sum flag
SUM_VALUES = {"p": "3", "alpha": "1", "beta": "0", "l": "1", "a": "2", "m": "2", "d": "2",
              "f": "1,1"}
SUM_KERNELS = ("fleck_sum", "binom_power_sum", "eulerian_wan_sum", "eulerian_power_sum",
               "stirling_product_sum", "stirling_poly_sum")


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

    def test_floor_variant_needs_alpha_at_least_beta(self, capsys):
        argv = ["sum", "fleck", "--n", "6", "--p", "2", "--alpha", "1", "--variant", "floor",
                "--beta", "2"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: need alpha >= beta, got alpha=1, beta=2\n")

    def test_missing_prime_is_usage_error(self, capsys):
        assert main(["sum", "fleck", "--n", "3"]) == 2

    @pytest.mark.parametrize("argv, error", [
        (["ewan", "--n", "5", "--p", "0", "--alpha", "-1"], "p must be a prime >= 2, got 0"),
        (["bpow", "--n", "5", "--p", "2", "--alpha", "-1"], "alpha must be >= 1, got -1"),
        (["fleck", "--n", "5", "--p", "2", "--variant", "floor", "--beta", "-1"],
         "beta must be >= 0, got -1"),
        (["fleck", "--n", "5", "--p", "-2", "--alpha", "-1"], "p must be a prime >= 2, got -2"),
    ])
    def test_bad_p_or_exponent_fails_before_the_modulus(self, argv, error, capsys):
        # p**alpha (p**beta for floor) is the class modulus: a bad p or
        # exponent gave a ZeroDivisionError or a fractional modulus
        assert main(["sum", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("argv", [
        ["cdr", "--n", "4", "--m", "2", "--d", "2", "--p", "4"],
        ["spoly", "--n", "3", "--f", "0,1", "--d", "2", "--p", "4"],
    ])
    def test_a_bad_p_fails_before_the_stirling_sums(self, argv, monkeypatch, capsys):
        # the order of the sum is printed after it: p was checked only then
        calls = []
        for name in ("stirling_product_sum", "stirling_poly_sum"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        assert main(["sum", *argv]) == 2
        assert capsys.readouterr() == ("", "error: p must be a prime >= 2, got 4\n")
        assert calls == []

    def test_n_is_left_to_the_sum(self, capsys):
        # the binomial power sum is defined at n = 0
        assert main(["sum", "bpow", "--n", "0", "--p", "2"]) == 0
        assert capsys.readouterr().out == "1 / ord_2 = 0\n"

    @pytest.mark.parametrize("entry", sorted(SUM_TAKES))
    def test_every_flag_a_kind_takes_is_read(self, entry, capsys):
        taken, argv = SUM_TAKES[entry]
        given = [f"--{name}={SUM_VALUES[name]}" for name in taken.split()]
        assert main(["sum", *entry.split(), *argv, *given]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n") == 1

    @pytest.mark.parametrize("entry, flag", [
        pytest.param(entry, name, id=f"{entry}-{name}")
        for entry, (taken, _) in SUM_TAKES.items()
        for name in SUM_VALUES if name not in taken.split()
    ])
    def test_a_flag_the_kind_does_not_take_is_refused(self, entry, flag, monkeypatch, capsys):
        calls = []
        for name in SUM_KERNELS:
            monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
        argv = ["sum", *entry.split(), *SUM_TAKES[entry][1], f"--{flag}={SUM_VALUES[flag]}"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: sum {entry} does not take --{flag}\n")
        assert calls == []

    @pytest.mark.parametrize("kind", ["bpow", "ewan", "epow", "cdr", "spoly"])
    def test_only_fleck_has_a_floor_variant(self, kind, capsys):
        assert main(["sum", kind, *SUM_TAKES[kind][1], "--variant", "floor"]) == 2
        assert capsys.readouterr() == ("", f"error: sum {kind} does not take --variant floor\n")

    @pytest.mark.parametrize("argv, error", [
        ("fleck --n 5 --p 3 --alpha 2 --r 7 --l 2 --beta 9", "sum fleck does not take --beta"),
        ("bpow --n 5 --p 2 --l 3", "sum bpow does not take --l"),
        ("cdr --n 4 --m 2 --d 2 --alpha 3", "sum cdr does not take --alpha"),
        ("fleck --n 5 --p 2 --variant floor", "sum fleck --variant floor needs --beta"),
        ("spoly --n 3 --d 2", "sum spoly needs --f"),
        ("ewan --n 3", "sum ewan needs --p"),
    ])
    def test_refused_and_missing_flags(self, argv, error, capsys):
        assert main(["sum", *argv.split()]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")


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

    @pytest.mark.parametrize("bad", [
        ["fleck", "--n", "1..3", "--p", "2,4"],
        ["fleck", "--n", "0..3", "--p", "2"],
        ["weisman", "--n", "1..3", "--p", "2", "--alpha", "0..1"],
        ["sun", "--n", "1..3", "--p", "2", "--alpha", "1", "--beta=-1..1", "--l", "0"],
        ["wan", "--n", "1..3", "--p", "2", "--l=-1..1"],
        ["sc1", "--n", "1..3", "--p", "2", "--m", "0..2", "--a", "1"],
        # a flag for a parameter the theorem does not take
        ["fleck", "--n", "1..3", "--p", "2", "--alpha", "1,2", "--beta", "4"],
        ["wan", "--n", "1..3", "--p", "2", "--alpha", "1"],
        ["weisman", "--n", "1..3", "--p", "2", "--beta", "0"],
        ["weisman", "--n", "1..3", "--p", "2", "--l", "0"],
        ["wan-strong", "--n", "1..3", "--p", "2", "--m", "1..n"],
        ["ec1", "--n", "1..3", "--p", "2", "--a", "1"],
        ["sc3", "--n", "1..3", "--p", "2", "--f", "0,1"],
        ["sc2", "--n", "1..3", "--p", "2", "--f", "1", "--alpha", "1"],
        # no worker count below 1, although the count is otherwise ignored
        ["fleck", "--n", "1..3", "--p", "2", "--workers", "0"],
        ["fleck", "--n", "1..3", "--p", "2", "--workers=-2"],
    ])
    def test_bad_grid_value_writes_nothing(self, bad, capsys):
        assert main(["verify", *bad]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_worker_count_below_1_is_named(self, capsys):
        assert main(["verify", "fleck", "--n", "1..3", "--p", "2", "--workers", "0"]) == 2
        assert capsys.readouterr() == ("", "error: --workers must be >= 1, got 0\n")

    def test_repeated_polynomials_are_one_axis_value(self, capsys):
        # one claim per distinct polynomial (trailing zeros stripped), in the
        # order the --f flags first give them
        def report(*polys):
            argv = ["verify", "sc2", "--n", "1..3", "--p", "2", "--format", "csv"]
            assert main(argv + [f"--f={f}" for f in polys]) == 0
            return capsys.readouterr().out

        once = report("0,0,1")
        assert report("0,0,1", "0,0,1") == once
        assert report("0,0,1", "0,0,1,0") == once
        both = report("0,1", "0,0,1")
        assert report("0,1", "0,0,1", "0,1,0", "0,0,1") == both
        assert report("0,0,1", "0,1") != both
        assert len(both.splitlines()) == 1 + 2 * len(once.splitlines()[1:])

    def test_probe_inapplicable_sun_beta_above_alpha(self, capsys):
        args = ["verify", "sun", "--n", "1..3", "--p", "2", "--alpha", "1", "--beta", "0..2",
                "--l", "0", "--no-timestamp"]
        assert main(args) == 0
        plain = json.loads(capsys.readouterr().out)["records"]
        assert main(args + ["--probe-inapplicable"]) == 0
        probed = json.loads(capsys.readouterr().out)["records"]
        assert [r for r in probed if r["params"]["beta"] <= 1] == [
            r for r in plain if r["params"]["beta"] <= 1
        ]
        beyond = [r for r in probed if r["params"]["beta"] == 2]
        assert len(beyond) == 3 * 4
        for rec in beyond:
            assert rec["verdict"] == "NOT-APPLICABLE"
            assert rec["sum"] is None and rec["ord"] is None
            assert isinstance(rec["bound"], int)

    def test_capacity_exits_3(self, capsys):
        n = str(triangles.ROW_LIMIT + 1)
        assert main(["verify", "sc1", "--p", "2", "--n", n, "--a", "1", "--m", "1..2"]) == 3

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

    @pytest.mark.parametrize("m, error", [
        ("5..n", "--m '5..n' matches no n in '1..3'"),
        ("x..n", "bad m range 'x..n'"),
    ])
    def test_an_n_coupled_m_axis_without_a_grid_exits_2(self, m, error, capsys):
        assert main(["verify", "sc1", "--n", "1..3", "--p", "2", "--m", m]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_the_per_n_grids_share_one_plan(self, tmp_path, monkeypatch):
        # --m 1..n makes one grid per n; the sweep plans its theorem and
        # residue set once, so its memos and kept sums span every n
        real_init, plans = verifier._Plan.__init__, []

        def counted_init(plan, *args):
            plans.append(args)
            real_init(plan, *args)

        monkeypatch.setattr(verifier._Plan, "__init__", counted_init)
        assert main(["verify", "sc3", "--n", "1..8", "--p", "2,3", "--alpha", "1,2",
                     "--m", "1..n", "--a=-2..3", "--workers", "1", "--no-timestamp",
                     "--out", str(tmp_path / "sc3.json")]) == 0
        assert plans == [(TheoremId.SC3, "all", False)]

    def test_fail_fast_stops_at_the_first_violation(self, tmp_path, monkeypatch):
        # claim 616 of this grid, (n, p, alpha, l, r) = (12, 3, 1, 1, 0), is the
        # first one of its tuple with a nonzero sum; an unreachable bound for
        # the tuple turns it into a VIOLATION.  The pause on that tuple gives
        # any concurrent evaluator time to run ahead of it.
        wiring, real_evaluate = THEOREMS[TheoremId.WAN_STRONG], verifier._Plan.evaluate
        calls = []

        def forced_bound(**params):
            if tuple(params.values()) == (12, 3, 1, 1):
                time.sleep(0.2)
                return 10**6
            return wiring.bound(**params)

        def counted_evaluate(plan, params, *found):  # the sweep's per-tuple entry
            calls.append(tuple(params.values()))
            return real_evaluate(plan, params, *found)

        monkeypatch.setitem(THEOREMS, TheoremId.WAN_STRONG, wiring._replace(bound=forced_bound))
        monkeypatch.setattr(verifier._Plan, "evaluate", counted_evaluate)
        out = tmp_path / "report.json"
        code = main(["verify", "wan-strong", "--n", "1..20", "--p", "2,3", "--alpha", "1,2",
                     "--l", "0..2", "--workers", "2", "--fail-fast", "--no-timestamp",
                     "--out", str(out)])
        assert code == 1
        # every tuple up to and including the violating one, each once, in order
        tuples = list(itertools.product(range(1, 21), (2, 3), (1, 2), range(3)))
        assert calls == tuples[:tuples.index((12, 3, 1, 1)) + 1]
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["summary"]["total"] == len(report["records"]) == 616
        last = report["records"][-1]
        assert last["verdict"] == "VIOLATION"
        assert last["params"] == {"n": 12, "p": 3, "alpha": 1, "l": 1, "d": 3, "r": 0}
        assert report["summary"]["first_violation"] == last["params"]

    def test_fail_fast_stops_part_way_through_a_block(self, tmp_path, monkeypatch):
        # an unreachable bound for (n, p, alpha, m) = (7, 3, 1, 4): the first
        # of its claims with a nonzero sum is a VIOLATION, part-way through
        # its tuple and through the block of n = 7, whose tuples share their
        # Stirling terms; the report stops at that record, as check_claim's
        # records do, and no later tuple's sums are worked out
        wiring, calls = THEOREMS[TheoremId.SC3], []

        def forced_bound(n, p, alpha, m, **_):
            return wiring.bound(n=n, p=p, alpha=alpha, m=m) + (10**6 if (n, p, alpha, m) == (
                7, 3, 1, 4) else 0)

        def counted_sums(**params):
            calls.append(tuple(params[name] for name in wiring.params))
            return wiring.sums(**params)

        monkeypatch.setitem(THEOREMS, TheoremId.SC3,
                            wiring._replace(bound=forced_bound, sums=counted_sums))
        argv = ["verify", "sc3", "--n", "1..8", "--p", "2,3", "--alpha", "1,2", "--m", "1..n",
                "--a=-2..3", "--no-timestamp"]
        out = tmp_path / "report.json"
        assert main(argv + ["--fail-fast", "--out", str(out)]) == 1
        grids = [GridSpec(TheoremId.SC3, ns=(n,), primes=(2, 3), alphas=(1, 2),
                          ms=range(1, n + 1), a_values=range(-2, 4)) for n in range(1, 9)]
        records = [check_claim("sc3", params) for grid in grids for params in grid_params(grid)]
        verdicts = [rec.verdict for rec in records]
        records = records[:verdicts.index(Verdict.VIOLATION) + 1]
        violation = records[-1].params
        assert violation["r"] < violation["d"] - 1  # part-way through its tuple
        text = out.read_text(encoding="utf-8")
        assert text == _reference_json(json.loads(text)["run"], records)
        tuples = [key for n in range(1, 9) for key in itertools.product(
            (n,), (2, 3), (1, 2), range(1, n + 1), range(-2, 4))]
        stop = tuples.index(tuple(violation[name] for name in wiring.params))
        assert tuples[stop + 1][0] == 7  # part-way through its block
        assert calls == tuples[:stop + 1]


def _reference_json(run, records):
    records = list(records)
    return json.dumps({
        "run": run,
        "records": [rec.to_json_dict() for rec in records],
        "summary": report_summary(records),
    }, indent=2, sort_keys=True) + "\n"


def _one_claim_grid(ns, primes=(2, 3), alphas=(1, 2), ls=range(4)):
    """A wan-strong grid with one claim per tuple."""
    return GridSpec(TheoremId.WAN_STRONG, ns=ns, primes=primes, alphas=alphas, ls=ls,
                    residues=(0,))


def _wide_grid():
    return GridSpec(TheoremId.WAN_STRONG, ns=range(1, 31), primes=(2, 3), alphas=(1, 2),
                    ls=(0, 1, 2))  # 1620 claims


# each case: the (grids, probe) of one or more serial chunk sources, one after
# the other in the report
GRID_CASES = {
    "none": [([], False)],
    "one chunk": [([_one_claim_grid(range(1, 33))], False)],  # JSON_CHUNK claims
    "one chunk plus one": [([_one_claim_grid(range(1, 33)),
                             _one_claim_grid((33,), (2,), (1,), (0,))], False)],
    "several chunks": [([_wide_grid()], False)],
    "sc2": [([GridSpec(TheoremId.SC2, ns=range(1, 13), primes=(2, 3), a_values=(-1, 2),
                       polys=(IntPolynomial((1,)), IntPolynomial((0, -1, 0, 3))))], False)],
    "not applicable": [([GridSpec(TheoremId.EC2, ns=range(1, 9), primes=(2, 3), alphas=(1, 2),
                                  a_values=(-5, 1, 3))], probe) for probe in (False, True)],
    # one theorem, two residue sets and n out of order: the grids of each
    # residue set share a plan, which must carry no residues and no stale
    # kept sums from one grid to the next (n = 4 steps from the n = 3 before it)
    "shared plans": [([GridSpec(TheoremId.WAN_STRONG, ns=ns, primes=(2, 3), alphas=(1, 2),
                                ls=ls, residues=residues)
                       for ns, ls, residues in (((5, 6, 7), (0, 2), "all"),
                                                ((3, 4), (1,), (0, 3)),
                                                ((2, 3), (0, 1, 2), "all"),
                                                ((8,), (1,), (1, -1)),
                                                ((4, 9, 7), (1, 3), "all"))], False)],
}


def _serial_chunks(case, fmt, fail_fast=False):
    """The chunks of the case's serial chunk sources, one source after the other."""
    for grids, probe in GRID_CASES[case]:
        verifier.ensure_tables(grids)
        yield from cli._rendered_chunks(grids, fmt, probe, fail_fast, 0, 1)


def _case_records(case):
    """The reference: one check_claim record per claim of the case."""
    return [check_claim(grid.theorem, params, probe) for grids, probe in GRID_CASES[case]
            for grid in grids for params in grid_params(grid)]


RUN = {"command": "verify", "theorem": "test", "grid": {"n": "1..2"}, "tool_version": "0"}


class TestStreamedReport:
    """``_write_report`` over the serial chunk source."""

    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_json_equals_one_dumps(self, case):
        out = io.StringIO()
        summary = cli._write_report(out, RUN, "json", _serial_chunks(case, "json"))
        records = _case_records(case)
        assert out.getvalue() == _reference_json(RUN, records)
        assert summary.to_json_dict() == report_summary(records)

    def test_json_fail_fast_truncation(self, monkeypatch):
        # the forced violation is claim 616, in the second chunk
        wiring = THEOREMS[TheoremId.WAN_STRONG]

        def forced_bound(**params):
            if tuple(params.values()) == (12, 3, 1, 1):
                return 10**6
            return wiring.bound(**params)

        monkeypatch.setitem(THEOREMS, TheoremId.WAN_STRONG, wiring._replace(bound=forced_bound))
        grid = GridSpec(TheoremId.WAN_STRONG, ns=range(1, 21), primes=(2, 3), alphas=(1, 2),
                        ls=(0, 1, 2))
        records = [check_claim(grid.theorem, params) for params in grid_params(grid)]
        verdicts = [rec.verdict for rec in records]
        records = records[:verdicts.index(Verdict.VIOLATION) + 1]
        assert len(records) == 616
        out = io.StringIO()
        chunks = cli._rendered_chunks([grid], "json", False, True, 0, 1)
        summary = cli._write_report(out, RUN, "json", chunks)
        assert out.getvalue() == _reference_json(RUN, records)
        assert summary.to_json_dict() == report_summary(records)

    @pytest.mark.parametrize("case", sorted(GRID_CASES))
    def test_csv_equals_one_dictwriter(self, case):
        out = io.StringIO()
        summary = cli._write_report(out, RUN, "csv", _serial_chunks(case, "csv"))
        records = _case_records(case)
        assert out.getvalue() == dictwriter_csv(records, cli.CSV_COLUMNS)
        assert summary.to_json_dict() == report_summary(records)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_writes_before_the_records_run_out(self, fmt, monkeypatch):
        # (claims evaluated, claims in the output) when each tuple is evaluated
        seen = []

        class Out:
            def __init__(self):
                self.parts, self.records = [], 0

            def write(self, text):
                self.parts.append(text)
                self.records += text.count("wan-strong")

        out = Out()
        real_evaluate = verifier._Plan.evaluate  # the sweep's per-tuple entry
        evaluated = []

        def watched(plan, params, *found):
            seen.append((sum(len(res.residues) for res in evaluated), out.records))
            evaluated.append(real_evaluate(plan, params, *found))
            return evaluated[-1]

        monkeypatch.setattr(verifier._Plan, "evaluate", watched)
        cli._write_report(out, RUN, fmt, _serial_chunks("several chunks", fmt))
        if fmt == "json":
            assert "".join(out.parts) == _reference_json(RUN, _case_records("several chunks"))
        assert seen[-1][1] > 0
        assert max(done - written for done, written in seen) < cli.JSON_CHUNK


def _big(limit=10**90):
    return st.integers(-5, 5) | st.integers(-limit, limit)


@st.composite
def records(draw):
    """Any record shape the verifier writes, with values beyond any it does."""
    theorem = draw(st.sampled_from(list(TheoremId)))
    keys = draw(st.lists(st.sampled_from(("n", "p", "alpha", "beta", "l", "m", "a")),
                         unique=True))
    params = {key: draw(_big()) for key in keys + ["d", "r"]}  # every record has a class
    if draw(st.booleans()):  # SC2's polynomial; any text must be escaped as json does
        coeffs = st.lists(_big(), max_size=5).map(tuple).map(IntPolynomial)
        params["f"] = draw(coeffs.map(IntPolynomial.coeff_string) | st.text())
    order = draw(st.none() | st.just(INFINITY) | st.integers(0, 10**30).map(PAdicOrder))
    sc2 = draw(st.none() | st.builds(Sc2Comparison, st.integers(0, 99), st.none() | _big(),
                                     _big(), st.booleans()))
    return ClaimRecord(theorem, params, draw(st.none() | _big()), order,
                       draw(st.none() | _big()), draw(st.sampled_from(list(Verdict))),
                       draw(st.none() | _big()), sc2)


class _Coefficients:
    """An ``f`` whose coefficient string is any text."""

    def __init__(self, text):
        self.text = text

    def coeff_string(self):
        return self.text


def _one_residue(rec):
    """``rec`` as a one-residue tuple result, as ``verifier.iter_chunks`` gives
    it: the params without d and r, and f as a polynomial."""
    params = {key: _Coefficients(value) if key == "f" else value
              for key, value in rec.params.items() if key not in ("d", "r")}
    order = None if rec.order is None else "inf" if rec.order.is_infinite else rec.order.value
    return TupleResult(rec.theorem, params, rec.params["d"], rec.bound, (rec.params["r"],),
                       (rec.total,), (order,), (rec.verdict,), (rec.margin,), (rec.sc2,))


class TestRecordLayout:
    """One record rendered from the fixed layout, as a one-residue tuple
    result, against the encoders that rendered it before."""

    @settings(max_examples=200, deadline=None)
    @given(records())
    def test_json_record_equals_dumps(self, rec):
        text = json.dumps(rec.to_json_dict(), indent=2, sort_keys=True)
        assert cli._results_json([_one_residue(rec)]) == "    " + text.replace("\n", "\n    ")

    @settings(max_examples=200, deadline=None)
    @given(records())
    @example(check_claim("sc2", {"n": 7, "p": 3, "a": 2, "f": IntPolynomial((0, -1, 0, 3)),
                                 "r": 1}))  # a quoted f, and the sc2 columns
    @example(check_claim("sc2", {"n": 5, "p": 2, "a": 1, "f": IntPolynomial((1,)), "r": 0}))
    @example(ClaimRecord(TheoremId.SC2, {"n": 4, "p": 2, "a": 1, "d": 1, "r": 0,
                                         "f": 'a "quoted", \n\r text'}, 5, PAdicOrder(0),
                         None, Verdict.VIOLATION, None, Sc2Comparison(2, 6, 8, False)))
    @example(ClaimRecord(TheoremId.SC2, {"n": 4, "p": 2, "d": 1, "r": 0, "f": "line\nfeed"}, 1,
                         PAdicOrder(0), None, Verdict.HOLDS, None, None))
    @example(ClaimRecord(TheoremId.SC2, {"n": 4, "p": 2, "d": 1, "r": 0, "f": "carriage\rreturn"},
                         1, PAdicOrder(0), None, Verdict.HOLDS, None, None))
    @example(check_claim("sun", {"n": 5, "p": 2, "alpha": 1, "beta": 2, "l": 0, "r": 3},
                         probe_inapplicable=True))  # no sum and no order
    @example(check_claim("fleck", {"n": 1, "p": 3, "r": 2}))  # a zero sum: "inf"
    @example(check_claim("sc3", {"n": 3, "p": 2, "alpha": 2, "m": 2, "a": 1, "r": 3}))
    @example(ClaimRecord(TheoremId.SUN, {"n": 2, "p": 2, "alpha": 1, "beta": 0, "l": 3,
                                         "d": 1, "r": 0}, -8, PAdicOrder(3), -4,
                         Verdict.HOLDS_TRIVIAL_BOUND, 7))  # a negative bound
    @example(ClaimRecord(TheoremId.WAN, {"n": 9, "p": 3, "l": 1, "d": 3, "r": 2}, 3,
                         PAdicOrder(1), 4, Verdict.VIOLATION, -3))  # a negative margin
    def test_csv_row_equals_dictwriter(self, rec):
        # the fixed layout's text, byte for byte, against csv.DictWriter
        text = ",".join(cli.CSV_COLUMNS) + "\n" + cli._results_csv([_one_residue(rec)])
        assert text == dictwriter_csv([rec], cli.CSV_COLUMNS)


# the flags each identity suite reads, and a good value of each flag
IDENTITY_READS = {
    "e1": "n n-max l-max", "e2": "n n-max", "s3": "n n-max", "ss3": "n n-max",
    "s4": "n n-max p alpha", "scl3e": "p alpha scl3e-limit", "l31": "n n-max p count seed",
    "l32": "n n-max",
}
IDENTITY_VALUES = {"n": "1..3", "n-max": "3", "l-max": "1", "p": "2", "alpha": "1",
                   "count": "2", "seed": "7", "scl3e-limit": "5"}


@pytest.fixture
def suite_calls(monkeypatch):
    """The name and sorted option names of each identities.suite call."""
    calls, real = [], identities.suite

    def recorded(name, **options):
        calls.append((name, sorted(options)))
        return real(name, **options)

    monkeypatch.setattr(identities, "suite", recorded)
    return calls


class TestIdentityCommand:
    def test_single_identity(self, capsys):
        assert main(["identity", "e2", "--n-max", "12"]) == 0
        assert "E2: 12 checks, all passed" in capsys.readouterr().out

    def test_n_range_spelling(self, capsys):
        assert main(["identity", "e2", "--n", "1..12"]) == 0
        assert "E2: 12 checks, all passed" in capsys.readouterr().out

    def test_n_and_n_max_are_exclusive(self, capsys):
        # --n-max used to win silently
        assert main(["identity", "s3", "--n", "1..5", "--n-max", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: argument --n-max: not allowed with argument --n\n")

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

    @pytest.mark.parametrize("argv, line", [
        (["e2", "--n-max", "0"], "E2: 0 checks, all passed"),
        (["e2", "--n", "0"], "E2: 0 checks, all passed"),
        (["l32", "--n-max", "0"], "L32: 1 checks, all passed"),  # n = l = i = 0
        (["e1", "--n-max", "3", "--l-max", "0"], "E1: 3 checks, all passed"),
        (["l31", "--count", "0"], "L31: 0 checks, all passed"),
        (["scl3e", "--scl3e-limit", "0"], "SCL3E: 0 checks, all passed"),
    ])
    def test_zero_bound_is_not_the_default(self, argv, line, capsys):
        assert main(["identity", *argv]) == 0
        assert capsys.readouterr().out == line + "\n"

    @pytest.mark.parametrize("argv", [
        ["e2", "--n-max", "-1"],
        ["e2", "--n=-3..-1"],
        ["e1", "--l-max", "-1"],
        ["l31", "--count", "-1"],
        ["scl3e", "--scl3e-limit", "-1"],
        ["all", "--n-max", "-1"],
    ])
    def test_negative_bound_exits_2(self, argv, tmp_path, capsys):
        report = tmp_path / "ident.json"
        assert main(["identity", *argv, "--out", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not report.exists()
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, flag", [
        (["e2", "--n-max", "-1"], "--n-max"),
        (["e2", "--n=-3..-1"], "--n"),
        (["e1", "--l-max=-1"], "--l-max"),
        (["l31", "--count", "-1"], "--count"),
        (["scl3e", "--scl3e-limit", "-1"], "--scl3e-limit"),
        (["all", "--n-max", "-1"], "--n-max"),
    ])
    def test_a_negative_bound_names_its_flag(self, argv, flag, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(identities, "suite", lambda *args, **kwargs: calls.append(args))
        assert main(["identity", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {flag} must be >= 0, got -1\n")
        assert calls == []

    @pytest.mark.parametrize("argv, error", [
        (["all", "--n-max", "3", "--count", "2", "--scl3e-limit", "300"],
         "error: row 256 exceeds the row limit 200\n"),  # SCL3E's case (2, 8)
        (["e1", "--n-max", "250"], "error: row 201 exceeds the row limit 200\n"),
    ])
    def test_a_row_past_the_limit_fails_before_the_first_suite(self, argv, error, tmp_path,
                                                               capsys):
        report = tmp_path / "ident.json"
        assert main(["identity", *argv, "--out", str(report)]) == 3
        assert capsys.readouterr() == ("", error)
        assert list(tmp_path.iterdir()) == []

    def test_a_row_past_the_limit_runs_no_check(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(identities, "check_s3", lambda *args: calls.append(args))
        assert main(["identity", "s3", "--n-max", "201"]) == 3
        assert calls == []
        assert capsys.readouterr().out == ""

    def test_a_suite_that_reads_no_triangle_has_no_row_limit(self, capsys):
        assert main(["identity", "l31", "--n-max", "300", "--count", "3"]) == 0
        assert capsys.readouterr().out == "L31: 3 checks, all passed\n"

    @pytest.mark.parametrize("flag, error", [
        (["--p", "4"], "error: p must be a prime >= 2, got 4\n"),
        (["--p", "2,4"], "error: p must be a prime >= 2, got 4\n"),
        (["--alpha", "0"], "error: alpha must be >= 1, got 0\n"),
    ])
    def test_bad_prime_or_alpha_fails_before_the_first_suite(self, flag, error, tmp_path,
                                                             capsys):
        # E1, E2, S3 and SS3 read neither flag; S4 is the first suite that does
        report = tmp_path / "ident.json"
        argv = ["identity", "all", "--n-max", "3", "--count", "2", "--scl3e-limit", "5"]
        assert main(argv + flag + ["--out", str(report)]) == 2
        assert capsys.readouterr() == ("", error)
        assert not report.exists()

    @pytest.mark.parametrize("identity, flag", [
        pytest.param(identity, name, id=f"{identity}-{name}")
        for identity, reads in IDENTITY_READS.items()
        for name in IDENTITY_VALUES if name not in reads.split()
    ])
    def test_a_flag_the_suite_does_not_read_is_refused(self, identity, flag, monkeypatch,
                                                       capsys):
        calls = []
        monkeypatch.setattr(identities, "suite", lambda *args, **kwargs: calls.append(args))
        assert main(["identity", identity, f"--{flag}={IDENTITY_VALUES[flag]}"]) == 2
        assert capsys.readouterr() == ("", f"error: {identity.upper()} does not take --{flag}\n")
        assert calls == []

    @pytest.mark.parametrize("identity", sorted(IDENTITY_READS))
    def test_each_suite_gets_the_flags_it_reads(self, identity, suite_calls, capsys):
        # --n and --n-max are exclusive: --n-max is given
        given = [name for name in IDENTITY_READS[identity].split() if name != "n"]
        assert main(["identity", identity,
                     *(f"--{name}={IDENTITY_VALUES[name]}" for name in given)]) == 0
        assert capsys.readouterr().out.endswith(" checks, all passed\n")
        option = {"n-max": "n_max", "l-max": "l_max", "p": "primes", "alpha": "alphas",
                  "count": "count", "seed": "seed", "scl3e-limit": "scl3e_limit"}
        assert suite_calls == [(identity.upper(), sorted(option[flag] for flag in given))]

    def test_all_takes_every_flag_and_gives_each_suite_its_own(self, tmp_path, suite_calls,
                                                               capsys):
        report = tmp_path / "ident.csv"
        argv = ["identity", "all", *(f"--{name}={value}" for name, value in
                                     IDENTITY_VALUES.items() if name != "n"),
                "--out", str(report), "--format", "csv", "--no-timestamp"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert report.read_text().startswith("identity,total,passed,failed,first_failure\n")
        assert suite_calls == [
            ("E1", ["l_max", "n_max"]), ("E2", ["n_max"]), ("S3", ["n_max"]),
            ("SS3", ["n_max"]), ("S4", ["alphas", "n_max", "primes"]),
            ("SCL3E", ["alphas", "primes", "scl3e_limit"]),
            ("L31", ["count", "n_max", "primes", "seed"]), ("L32", ["n_max"]),
        ]
        argv[argv.index("--n-max=3")] = "--n=1..3"
        assert main(argv) == 0

    @pytest.mark.parametrize("argv, error", [
        ("e2 --l-max 3 --count 5 --p 7", "E2 does not take --l-max"),
        ("e2 --format csv", "identity without --out does not take --format"),
        ("e2 --no-timestamp", "identity without --out does not take --no-timestamp"),
        ("all --format json", "identity without --out does not take --format"),
        ("scl3e --n-max 5", "SCL3E does not take --n-max"),
    ])
    def test_refused_flags(self, argv, error, capsys):
        # without --out no report is written, so --format and --no-timestamp
        # would change nothing
        assert main(["identity", *argv.split()]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_a_report_without_no_timestamp_is_stamped(self, tmp_path, capsys):
        out = tmp_path / "ident.json"
        assert main(["identity", "s3", "--n-max", "3", "--out", str(out)]) == 0
        run = json.loads(out.read_text(encoding="utf-8"))["run"]
        # ISO 8601 in UTC, to the second
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", run["timestamp"])

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "ident.csv"
        assert main(["identity", "s3", "--n-max", "6", "--format", "csv",
                     "--no-timestamp", "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["identity"] == "S3"
        assert rows[0]["failed"] == "0"


# run by `python -S` (no site module, so no .pth file of the host preloads a
# module): two verify runs, the modules they left out of sys.modules, then an
# identity CSV report, which loads the suites and csv when it needs them
START_UP = """
import sys
from congruence_lab.cli import main
out = sys.argv[1]
for fmt in ("json", "csv"):
    assert main(["verify", "sun", "--n", "1..8", "--p", "2,3", "--alpha", "1,2", "--beta", "0,1",
                 "--format", fmt, "--no-timestamp", "--out", out + "." + fmt]) == 0
print(sorted(name for name in ("dataclasses", "inspect", "csv", "datetime", "typing",
                               "congruence_lab.identities") if name in sys.modules))
sys.exit(main(["identity", "s3", "--n-max", "6", "--format", "csv", "--out", out + ".ident"]))
"""


def test_a_verify_run_imports_only_what_it_runs(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "report"
    proc = subprocess.run([sys.executable, "-S", "-c", START_UP, str(out)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "sun: 112 claims (HOLDS=22, HOLDS-VACUOUS=36, NOT-APPLICABLE=11, TIGHT=43)",
        "sun: 112 claims (HOLDS=22, HOLDS-VACUOUS=36, NOT-APPLICABLE=11, TIGHT=43)",
        "[]", "S3: 21 checks, all passed"]
    assert (out.parent / "report.csv").read_text(encoding="utf-8").startswith("theorem,n,p,")
    with open(out.parent / "report.ident", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["identity"], row["failed"]) for row in rows] == [("S3", "0")]


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


@pytest.mark.parametrize("command", ["triangle", "verify"])
def test_directory_as_out_exits_2(command, tmp_path, capsys):
    target = tmp_path / "report"
    target.mkdir()
    (target / "kept.txt").write_text("kept\n")
    assert main(OUT_COMMANDS[command] + ["--out", str(target)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report"]  # no *.tmp
    assert sorted(p.name for p in target.iterdir()) == ["kept.txt"]
    assert (target / "kept.txt").read_text() == "kept\n"
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "identity"])
def test_directory_as_out_fails_before_any_work(command, tmp_path, monkeypatch, capsys):
    # a directory at --out is refused before the first claim or suite, not at
    # the final rename after all of them
    argv, module, attr = {
        "verify": (["verify", "wan-strong", "--n", "1..60", "--p", "2,3", "--alpha", "1,2",
                    "--l", "0..3"], verifier._Plan, "evaluate"),  # the per-tuple entry
        "identity": (["identity", "all"], identities, "suite"),
    }[command]
    real, calls = getattr(module, attr), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    target = tmp_path / "report"
    target.mkdir()
    (target / "kept.txt").write_text("kept\n")
    assert main(argv + ["--out", str(target)]) == 2
    assert calls == []
    assert capsys.readouterr() == ("", f"error: cannot write {target}: Is a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report"]
    assert [(p.name, p.read_text()) for p in target.iterdir()] == [("kept.txt", "kept\n")]


def test_out_below_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(OUT_COMMANDS["verify"] + ["--out", str(tmp_path / "file" / "r.json")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert capsys.readouterr().err.startswith("error: cannot write ")


class TestExitCodes:
    def test_ctrl_c_exits_130(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        # the streamed report: interrupted while evaluating its first chunk
        monkeypatch.setattr(verifier._Plan, "evaluate", interrupted)
        assert main(["verify", "fleck", "--p", "2", "--n", "1..5"]) == 130
        assert capsys.readouterr() == ("", "interrupted\n")

    def test_out_of_memory_exits_3(self, tmp_path, monkeypatch, capsys):
        # verify weisman --p 2 --alpha 30 asks for 2**30 residues a tuple
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(verifier, "iter_chunks", out_of_memory)
        out = tmp_path / "report.json"
        assert main(["verify", "weisman", "--n", "1..3", "--p", "2", "--alpha", "30",
                     "--out", str(out)]) == 3
        assert capsys.readouterr() == ("", "error: out of memory\n")
        assert list(tmp_path.iterdir()) == []

    def test_closed_stdout_exits_141(self, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        with contextlib.redirect_stdout(ClosedPipe()):
            assert main(["triangle", "stirling1", "--n-max", "200"]) == 141
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", [
        ["triangle", "stirling1", "--n-max", "200"],
        ["verify", "fleck", "--p", "2,3", "--n", "1..40"],
    ], ids=["triangle", "verify"])
    def test_a_full_stdout_exits_2(self, argv, monkeypatch, capsys):
        moved = []
        monkeypatch.setattr(cli, "_stdout_to_devnull", lambda: moved.append(True))

        class Full(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with contextlib.redirect_stdout(Full()):
            assert main(argv) == 2
        error = f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
        assert capsys.readouterr() == ("", error)
        assert moved == [True]  # so that the flush at exit cannot raise again

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_on_dev_full_exits_2(self):
        src = Path(cli.__file__).resolve().parents[1]
        with open("/dev/full", "w", encoding="utf-8") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "congruence_lab.cli", "verify", "fleck", "--n", "1..40",
                 "--p", "2,3"], stdout=full, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")

    def test_closed_stdout_descriptor_moves_to_devnull(self, tmp_path):
        path = tmp_path / "stdout"
        with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            cli._stdout_to_devnull()
            print("written after the reader left")
        assert path.read_text(encoding="utf-8") == ""


# the flags each subcommand takes whatever its theorem, sum kind or suites;
# every other flag is in the subcommand's table, where the one flag rule
# (cli._flag_values) refuses it unless the entry takes it
ALWAYS_TAKEN = {
    "sum": ({"kind", "n", "r", "variant"}, ["_SUM_FLAGS"]),
    "verify": ({"theorem", "n", "p", "r", "out", "format", "workers", "no_timestamp",
                "probe_inapplicable", "fail_fast"}, ["_VERIFY_FLAGS"]),
    "identity": ({"identity", "out"}, ["_IDENTITY_FLAGS", "_REPORT_FLAGS"]),
}


@pytest.mark.parametrize("command", sorted(ALWAYS_TAKEN))
def test_every_other_flag_is_in_the_table(command):
    [subparsers] = [action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    actions = {action.dest: action for action in subparsers.choices[command]._actions
               if action.dest != "help"}
    always, tables = ALWAYS_TAKEN[command]
    table = {name for t in tables for flags in getattr(cli, t).values() for name in flags}
    assert not always & table
    assert set(actions) == always | table
    # a table flag is None unless given: a default would read as given
    assert all(actions[name].default is None for name in table)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "congruence-lab" in capsys.readouterr().out
