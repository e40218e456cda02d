"""`verify --workers N`: the flag is accepted and every run is serial, so
any N gives the bytes, summary and exit code of ``--workers 1`` and starts
no process.

Most tests shrink ``cli.JSON_CHUNK`` so that small grids span several
chunks; the ``pool`` fixture makes ``os.fork`` and ``os.pipe`` fail the
test, and checks afterwards that no child is left to reap.
"""

import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from congruence_lab import cli, verifier
from congruence_lab.bounds import THEOREMS, TheoremId
from congruence_lab.cli import main
from congruence_lab.errors import CapacityError, CongruenceLabError
from test_golden_reports import DIGESTS, GRIDS


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def no_process(monkeypatch):
    """Eight usable CPUs, and an ``os.fork`` or ``os.pipe`` that fails the test."""
    def forbidden(*args):
        raise AssertionError("verify started a process")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "fork", forbidden)
    monkeypatch.setattr(os, "pipe", forbidden)


@pytest.fixture
def pool(monkeypatch):
    """Chunks of 16 claims, and no process to start."""
    monkeypatch.setattr(cli, "JSON_CHUNK", 16)
    no_process(monkeypatch)
    yield
    assert_no_children()


def run(argv, workers, path):
    code = main([*argv, "--no-timestamp", "--workers", str(workers), "--out", str(path)])
    return code, path.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_starts_no_process(fmt, monkeypatch, tmp_path, capsys):
    # a multi-chunk sweep at --workers 8, on a host of eight CPUs, runs in
    # this process, where a fork or a pipe would fail the run
    monkeypatch.setattr(cli, "JSON_CHUNK", 16)
    argv = ["verify", "fleck", "--p", "2", "--n", "1..20", "--format", fmt]
    serial = run(argv, 1, tmp_path / "w1")
    no_process(monkeypatch)
    assert run(argv, 8, tmp_path / "w8") == serial
    assert serial[0] == 0
    assert capsys.readouterr().err == ""
    assert_no_children()


@pytest.mark.parametrize("probe", [False, True], ids=["plain", "probe"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("theorem", sorted(GRIDS))
def test_golden_reports_with_two_workers(theorem, fmt, probe, pool, tmp_path, capsys):
    argv = ["verify", theorem, *GRIDS[theorem], "--format", fmt]
    if probe:
        argv.append("--probe-inapplicable")
    code, data = run(argv, 2, tmp_path / f"report.{fmt}")
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == DIGESTS[theorem, fmt, probe]


@pytest.mark.parametrize("fail_fast", [False, True], ids=["three-workers", "fail-fast"])
@pytest.mark.parametrize("probe", [False, True], ids=["plain", "probe"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("theorem", sorted(GRIDS))
def test_golden_reports_with_three_workers(theorem, fmt, probe, fail_fast, pool, tmp_path,
                                          capsys):
    # every grid has three chunks or more (the grids have no violation, so
    # --fail-fast changes nothing)
    argv = ["verify", theorem, *GRIDS[theorem], "--format", fmt]
    argv += ["--probe-inapplicable"] * probe + ["--fail-fast"] * fail_fast
    code, data = run(argv, 3, tmp_path / f"report.{fmt}")
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == DIGESTS[theorem, fmt, probe]


# fleck with p = 2 has 2 claims per tuple (one per n); JSON_CHUNK is 6 here
BOUNDARIES = {
    "less than one chunk": ["fleck", "--p", "2", "--n", "1..2"],
    "exactly one chunk": ["fleck", "--p", "2", "--n", "1..3"],
    "one chunk and one tuple": ["fleck", "--p", "2", "--n", "1..4"],
    "three chunks, five workers": ["fleck", "--p", "2", "--n", "1..9"],
    "a residue subset": ["wan-strong", "--p", "2,3", "--alpha", "1,2", "--l", "0,1",
                         "--n", "1..6", "--r", "7,1,-2"],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(BOUNDARIES))
def test_chunk_boundaries(case, fmt, pool, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "JSON_CHUNK", 6)
    argv = ["verify", *BOUNDARIES[case], "--format", fmt]
    assert run(argv, 5, tmp_path / "w5") == run(argv, 1, tmp_path / "w1")


def test_violations_in_late_chunks_merge_as_serial(pool, monkeypatch, tmp_path, capsys):
    # 1080 claims in 60 chunks; two tuples get unreachable bounds: the first
    # violation comes from chunk 32 and the smallest margin from chunk 48
    wiring = THEOREMS[TheoremId.WAN_STRONG]
    forced = {(11, 3, 2, 1): 1000, (17, 2, 2, 2): 10**6}

    def bound(**params):
        return forced.get(tuple(params.values())) or wiring.bound(**params)

    monkeypatch.setitem(THEOREMS, TheoremId.WAN_STRONG, wiring._replace(bound=bound))
    argv = ["verify", "wan-strong", "--n", "1..20", "--p", "2,3", "--alpha", "1,2",
            "--l", "0..2"]
    serial = run(argv, 1, tmp_path / "w1.json")
    assert run(argv, 2, tmp_path / "w2.json") == serial
    summary = json.loads(serial[1])["summary"]
    assert serial[0] == 1
    assert summary["first_violation"] == {"n": 11, "p": 3, "alpha": 2, "l": 1, "d": 9, "r": 0}
    assert summary["min_margin"] < -999_000
    csv_argv = argv + ["--format", "csv"]
    csv_serial = run(csv_argv, 1, tmp_path / "w1.csv")
    assert run(csv_argv, 2, tmp_path / "w2.csv") == csv_serial
    rows = csv.DictReader(io.StringIO(csv_serial[1].decode()))
    assert [row["verdict"] for row in rows] == [rec["verdict"] for rec in
                                                json.loads(serial[1])["records"]]


FAILING_GRID = ["verify", "fleck", "--p", "2", "--n", "1..20", "--no-timestamp",
                "--workers", "2"]


def fail_at(monkeypatch, failure, n=10):
    # chunks of 16 claims: n = 1..8, 9..16 and 17..20; n = 10 is the second's
    real_evaluate = verifier._Plan.evaluate  # the sweep's per-tuple entry

    def evaluate(plan, params, *found):
        if params["n"] == n:
            failure()
        return real_evaluate(plan, params, *found)

    monkeypatch.setattr(verifier._Plan, "evaluate", evaluate)


def assert_failed_with(capsys, line, unexpected):
    """Nothing on stdout, and ``error: line`` on stderr, followed by the
    traceback of an unexpected exception."""
    stdout, stderr = capsys.readouterr()
    first, trace = stderr.split("\n", 1)
    assert (stdout, first) == ("", f"error: {line}")
    if unexpected:
        assert trace.startswith("Traceback (most recent call last):\n")
        assert trace.endswith(f"\n{line}\n")
    else:
        assert trace == ""


@pytest.mark.parametrize("exc, code, line", [
    (MemoryError(), 3, "out of memory"),
    (CapacityError("row 201 is above the row limit 200"), 3, "row 201 is above the row limit 200"),
    (CongruenceLabError("cannot go on"), 2, "cannot go on"),
    (RuntimeError("boom"), 2, "RuntimeError: boom"),
], ids=["MemoryError", "CapacityError", "CongruenceLabError", "RuntimeError"])
@pytest.mark.parametrize("n", [2, 10], ids=["share-0", "worker"])
def test_a_failure_exits_as_at_one_worker(n, exc, code, line, pool, monkeypatch, tmp_path,
                                          capsys):
    # raised for n = 2, in the first chunk, or for n = 10, in the second, once
    # the first has been written; --workers 1 and 2 fail the same, and leave
    # no report and no temp file
    def failure():
        raise exc

    fail_at(monkeypatch, failure, n)
    for workers in ("1", "2"):
        assert main(FAILING_GRID[:-1] + [workers, "--out", str(tmp_path / "report")]) == code
        assert_failed_with(capsys, line, unexpected=isinstance(exc, RuntimeError))
        assert list(tmp_path.iterdir()) == []


def test_ctrl_c_exits_130(pool, monkeypatch, capsys):
    # the twin of test_cli.py's TestExitCodes.test_ctrl_c_exits_130 at --workers 2
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(verifier._Plan, "evaluate", interrupted)
    monkeypatch.setattr(cli, "JSON_CHUNK", 2)
    assert main(["verify", "fleck", "--p", "2", "--n", "1..5", "--workers", "2"]) == 130
    assert capsys.readouterr() == ("", "interrupted\n")


def test_closed_stdout_exits_141(pool, capsys):
    # a reader that leaves during a three-chunk sweep
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    with contextlib.redirect_stdout(ClosedPipe()):
        assert main(["verify", "fleck", "--p", "2", "--n", "1..20", "--workers", "2"]) == 141
    assert capsys.readouterr() == ("", "")


def _signalled_run(tmp_path, send, n_top=40, workers=2, preexec_fn=None, timeout=30):
    """Start a ``verify sc3`` sweep to a report file in a session of its own,
    call ``send(pid)`` once its first chunk is written, and return its exit
    code, stdout and stderr; no process of its group may outlive it."""
    src = Path(cli.__file__).resolve().parents[1]
    out = tmp_path / "report.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "congruence_lab.cli", "verify", "sc3", "--n", f"1..{n_top}",
         "--p", "2,3", "--alpha", "1,2", "--a=-2..3", "--workers", str(workers),
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, start_new_session=True,
        preexec_fn=preexec_fn, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 30
        while not any(p.stat().st_size for p in tmp_path.iterdir()):  # the first chunk is written
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        send(proc.pid)
        stdout, stderr = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return proc.returncode, stdout, stderr


def test_sigint_to_the_process_group(tmp_path):
    # a real Ctrl-C exits 130 and leaves no file
    code, stdout, stderr = _signalled_run(tmp_path, lambda pid: os.killpg(pid, signal.SIGINT))
    assert (code, stdout, stderr) == (130, b"", b"interrupted\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kill", [os.kill, os.killpg], ids=["parent", "group"])
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGHUP], ids=["SIGTERM", "SIGHUP"])
def test_termination_signals_clean_up_as_ctrl_c(sig, kill, workers, tmp_path):
    # SIGTERM or SIGHUP, sent to the run alone or to its whole group, ends
    # it as Ctrl-C does: it exits 128 + the signal number and leaves no file
    code, stdout, stderr = _signalled_run(tmp_path, lambda pid: kill(pid, sig), n_top=60,
                                          workers=workers)
    assert (code, stdout, stderr) == (128 + sig, b"", b"interrupted\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGHUP], ids=["SIGTERM", "SIGHUP"])
def test_an_ignored_termination_signal_stays_ignored(sig, tmp_path):
    # started with the signal ignored (nohup, trap '' TERM), the run lets it
    # pass: it finishes and renames its report into place
    code, stdout, stderr = _signalled_run(
        tmp_path, lambda pid: os.killpg(pid, sig),
        preexec_fn=lambda: signal.signal(sig, signal.SIG_IGN), timeout=60)
    assert (code, stderr) == (0, b"")
    assert stdout.startswith(b"sc3: ")
    assert list(tmp_path.iterdir()) == [tmp_path / "report.json"]
