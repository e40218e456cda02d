"""`verify --workers N` on the fork pool: the bytes, summary and exit code of
``--workers 1``, and honest failures.

Most tests shrink ``cli.JSON_CHUNK`` so that small grids span several
chunks, and claim two usable CPUs, so that the pool runs on any host; the
``pool`` fixture counts the workers forked (the parent evaluates share 0, so
``--workers W`` forks W - 1) and checks afterwards that every one was
reaped.
"""

import contextlib
import errno
import hashlib
import io
import json
import marshal
import os
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from congruence_lab import cli, verifier
from congruence_lab.bounds import THEOREMS, TheoremId
from congruence_lab.cli import main
from congruence_lab.errors import CapacityError, CongruenceLabError
from congruence_lab.verifier import GridSpec
from test_golden_reports import DIGESTS, GRIDS


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def pool(monkeypatch):
    """Chunks of 16 claims, two usable CPUs, and the pids of the workers
    forked (in the parent; a worker sees its own copy)."""
    monkeypatch.setattr(cli, "JSON_CHUNK", 16)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    forked = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    yield forked
    assert_no_children()


def run(argv, workers, path):
    code = main([*argv, "--no-timestamp", "--workers", str(workers), "--out", str(path)])
    return code, path.read_bytes()


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
    assert len(pool) == 1


# fleck with p = 2 has 2 claims per tuple (one per n); JSON_CHUNK is 6 here
BOUNDARIES = {
    "less than one chunk": (["fleck", "--p", "2", "--n", "1..2"], 0),
    "exactly one chunk": (["fleck", "--p", "2", "--n", "1..3"], 0),
    "one chunk and one tuple": (["fleck", "--p", "2", "--n", "1..4"], 1),
    "three chunks, five workers": (["fleck", "--p", "2", "--n", "1..9"], 2),
    "a residue subset": (["wan-strong", "--p", "2,3", "--alpha", "1,2", "--l", "0,1",
                          "--n", "1..6", "--r", "7,1,-2"], 4),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(BOUNDARIES))
def test_chunk_boundaries(case, fmt, pool, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "JSON_CHUNK", 6)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    grid, forks = BOUNDARIES[case]
    argv = ["verify", *grid, "--format", fmt]
    serial = run(argv, 1, tmp_path / "w1")
    assert pool == []
    assert run(argv, 5, tmp_path / "w5") == serial
    assert len(pool) == forks


def test_three_workers_on_three_cpus_fork_two(pool, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    argv = ["verify", "fleck", "--p", "2", "--n", "1..20", "--format", "csv"]  # three chunks
    serial = run(argv, 1, tmp_path / "w1")
    assert run(argv, 3, tmp_path / "w3") == serial
    assert len(pool) == 2


def test_violations_in_late_chunks_merge_as_serial(pool, monkeypatch, tmp_path, capsys):
    # 1080 claims in 60 chunks; two tuples get unreachable bounds: the first
    # violation comes from chunk 32 (share 0), the smallest margin from
    # chunk 48 (share 0 too, the parent's), and worker 1's chunks between them
    # have none
    wiring = THEOREMS[TheoremId.WAN_STRONG]
    forced = {(11, 3, 2, 1): 1000, (17, 2, 2, 2): 10**6}

    def bound(**params):
        return forced.get(tuple(params.values())) or wiring.bound(**params)

    monkeypatch.setitem(THEOREMS, TheoremId.WAN_STRONG, wiring._replace(bound=bound))
    argv = ["verify", "wan-strong", "--n", "1..20", "--p", "2,3", "--alpha", "1,2",
            "--l", "0..2"]
    serial = run(argv, 1, tmp_path / "w1.json")
    assert run(argv, 2, tmp_path / "w2.json") == serial
    assert len(pool) == 1
    summary = json.loads(serial[1])["summary"]
    assert serial[0] == 1
    assert summary["first_violation"] == {"n": 11, "p": 3, "alpha": 2, "l": 1, "d": 9, "r": 0}
    assert summary["min_margin"] < -999_000
    csv_argv = argv + ["--format", "csv"]
    assert run(csv_argv, 2, tmp_path / "w2.csv") == run(csv_argv, 1, tmp_path / "w1.csv")


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


def boom():
    raise RuntimeError("boom")


def assert_failed_with(capsys, line, unexpected):
    """Nothing on stdout, and ``error: line`` on stderr, followed by the
    traceback of an unexpected exception, as a serial run prints it."""
    stdout, stderr = capsys.readouterr()
    first, trace = stderr.split("\n", 1)
    assert (stdout, first) == ("", f"error: {line}")
    if unexpected:
        assert trace.startswith("Traceback (most recent call last):\n")
        assert trace.endswith(f"\n{line}\n")
    else:
        assert trace == ""


@pytest.mark.parametrize("failure, error", [
    (boom, "RuntimeError: boom"),
    (lambda: os._exit(7), "a verify worker ended early (exit code 7)"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "a verify worker ended early (signal 9)"),
], ids=["raises", "exits", "killed"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failed_worker_exits_2_and_leaves_nothing(failure, error, fmt, pool, monkeypatch,
                                                    tmp_path, capsys):
    fail_at(monkeypatch, failure)
    out = tmp_path / "report"
    assert main(FAILING_GRID + ["--format", fmt, "--out", str(out)]) == 2
    assert_failed_with(capsys, error, unexpected=failure is boom)
    assert list(tmp_path.iterdir()) == []  # no report and no temp file
    assert len(pool) == 1


@pytest.mark.parametrize("exc, code, line", [
    (MemoryError(), 3, "out of memory"),
    (CapacityError("row 201 is above the row limit 200"), 3, "row 201 is above the row limit 200"),
    (CongruenceLabError("cannot go on"), 2, "cannot go on"),
    (RuntimeError("boom"), 2, "RuntimeError: boom"),
], ids=["MemoryError", "CapacityError", "CongruenceLabError", "RuntimeError"])
@pytest.mark.parametrize("n", [2, 10], ids=["share-0", "worker"])
def test_a_failure_exits_as_at_one_worker(n, exc, code, line, pool, monkeypatch, tmp_path,
                                          capsys):
    # raised for n = 2, in the first chunk, which the parent evaluates, or for
    # n = 10, in the second, which worker 1 evaluates; --workers 1 fails the same
    def failure():
        raise exc

    fail_at(monkeypatch, failure, n)
    for workers in ("1", "2"):
        assert main(FAILING_GRID[:-1] + [workers, "--out", str(tmp_path / "report")]) == code
        assert_failed_with(capsys, line, unexpected=isinstance(exc, RuntimeError))
        assert list(tmp_path.iterdir()) == []  # no report and no temp file
    assert len(pool) == 1


@pytest.mark.parametrize("code, error", [
    (0, "a verify worker exited in the middle of a chunk"),
    (7, "a verify worker ended early (exit code 7)"),
], ids=["exits-0", "exits-7"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_frame_cut_short_exits_2_and_leaves_nothing(code, error, fmt, pool, monkeypatch,
                                                      tmp_path, capsys):
    # worker 1 sends half the frame of its one chunk, the second of three,
    # then exits: the first, the parent's own, is written before the run fails
    def dump(value, pipe):  # only a worker sends frames
        frame = marshal.dumps(value)
        pipe.write(frame[: len(frame) // 2])
        pipe.flush()
        os._exit(code)

    monkeypatch.setattr(cli, "marshal", types.SimpleNamespace(dump=dump, load=marshal.load))
    out = tmp_path / "report"
    assert main(FAILING_GRID + ["--format", fmt, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []  # no report and no temp file
    assert len(pool) == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_chunk_past_the_last_exits_2_and_leaves_nothing(fmt, pool, monkeypatch, tmp_path,
                                                         capsys):
    # worker 2 of 3 sends chunk 2, the last of the three, then it again: the
    # parent finds it after its own share, chunk 0, has run out
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    real_chunks = cli._rendered_chunks

    def one_too_many(*args):
        chunks = list(real_chunks(*args))
        return iter(chunks + chunks[-1:] if args[-2:] == (2, 3) else chunks)

    monkeypatch.setattr(cli, "_rendered_chunks", one_too_many)
    out = tmp_path / "report"
    assert main(FAILING_GRID[:-1] + ["3", "--format", fmt, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: a verify worker sent a chunk past the last\n")
    assert list(tmp_path.iterdir()) == []  # no report and no temp file
    assert len(pool) == 2


@pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
                         ids=["fork", "pipe"])
@pytest.mark.parametrize("to", ["out", "stdout"])
def test_a_worker_that_cannot_start_exits_2_and_leaves_nothing(call, code, to, pool, monkeypatch,
                                                               tmp_path, capsys):
    # the second call fails, so one worker has started when the pool gives up:
    # --workers 3 on three CPUs forks two
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    real = getattr(os, call)
    calls = []

    def second_fails():
        calls.append(call)
        if len(calls) == 2:
            raise OSError(code, os.strerror(code))
        return real()

    monkeypatch.setattr(os, call, second_fails)
    argv = ["verify", "fleck", "--p", "2", "--n", "1..20", "--workers", "3"]
    if to == "out":
        argv += ["--out", str(tmp_path / "report")]
    assert main(argv) == 2
    error = f"error: cannot start a verify worker: {os.strerror(code)}\n"
    assert capsys.readouterr() == ("", error)
    assert list(tmp_path.iterdir()) == []  # no report and no temp file
    assert len(pool) == 1  # and the fixture finds it reaped


def test_ctrl_c_exits_130(pool, monkeypatch, capsys):
    # the twin of test_cli.py's TestExitCodes.test_ctrl_c_exits_130 on the pool
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(verifier._Plan, "evaluate", interrupted)
    monkeypatch.setattr(cli, "JSON_CHUNK", 2)
    assert main(["verify", "fleck", "--p", "2", "--n", "1..5", "--workers", "2"]) == 130
    assert capsys.readouterr() == ("", "interrupted\n")
    assert len(pool) == 1


def test_closed_stdout_exits_141(pool, capsys):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    with contextlib.redirect_stdout(ClosedPipe()):
        assert main(["verify", "fleck", "--p", "2", "--n", "1..20", "--workers", "2"]) == 141
    assert capsys.readouterr() == ("", "")
    assert len(pool) == 1


def test_sigint_to_the_process_group(tmp_path):
    # a real Ctrl-C reaches the parent and its workers: the run exits 130,
    # leaves no file, and no process of its group outlives it
    src = Path(cli.__file__).resolve().parents[1]
    out = tmp_path / "report.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "congruence_lab.cli", "verify", "sc3", "--n", "1..40",
         "--p", "2,3", "--alpha", "1,2", "--a=-2..3", "--workers", "2", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 30
        while not any(p.stat().st_size for p in tmp_path.iterdir()):  # the first chunk is written
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, stdout, stderr) == (130, b"", b"interrupted\n")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kill", [os.kill, os.killpg], ids=["parent", "group"])
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGHUP], ids=["SIGTERM", "SIGHUP"])
def test_termination_signals_clean_up_as_ctrl_c(sig, kill, workers, tmp_path):
    # SIGTERM or SIGHUP, sent to the parent alone or to its whole group, ends
    # the run as Ctrl-C does: it exits 128 + the signal number, leaves no file,
    # and no process of its group outlives it
    src = Path(cli.__file__).resolve().parents[1]
    out = tmp_path / "report.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "congruence_lab.cli", "verify", "sc3", "--n", "1..60",
         "--p", "2,3", "--alpha", "1,2", "--a=-2..3", "--workers", str(workers),
         "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 30
        while not any(p.stat().st_size for p in tmp_path.iterdir()):  # the first chunk is written
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        kill(proc.pid, sig)
        stdout, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, stdout, stderr) == (128 + sig, b"", b"interrupted\n")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGHUP], ids=["SIGTERM", "SIGHUP"])
def test_an_ignored_termination_signal_stays_ignored(sig, tmp_path):
    # started with the signal ignored (nohup, trap '' TERM), the run and its
    # workers let it pass: the run finishes and renames its report into place
    src = Path(cli.__file__).resolve().parents[1]
    out = tmp_path / "report.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "congruence_lab.cli", "verify", "sc3", "--n", "1..40",
         "--p", "2,3", "--alpha", "1,2", "--a=-2..3", "--workers", "2", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)}, start_new_session=True,
        preexec_fn=lambda: signal.signal(sig, signal.SIG_IGN),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 30
        while not any(p.stat().st_size for p in tmp_path.iterdir()):  # the first chunk is written
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, sig)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, stderr) == (0, b"")
    assert stdout.startswith(b"sc3: ")
    assert list(tmp_path.iterdir()) == [out]
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def grid_of(chunks):
    """A fleck grid of 2 claims per tuple in ``chunks`` chunks of 16 claims."""
    return [GridSpec(TheoremId.FLECK, ns=range(1, 8 * chunks + 1), primes=(2,))]


class TestPoolSize:
    """No test here forks: the pool size is worked out, never started."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        def forbidden():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", forbidden)
        monkeypatch.setattr(cli, "JSON_CHUNK", 16)

    @pytest.mark.parametrize("workers, cpus, chunks, size", [
        (2, 2, 10, 2),
        (5, 2, 10, 2),  # capped at the CPUs
        (10**9, 4, 10, 4),
        (5, 8, 3, 3),  # capped at the chunks
        (5, 8, 2, 2),
        (2, 8, 1, 1),  # a single chunk: serial
        (1, 8, 10, 1),
        (4, 1, 10, 1),  # one CPU: serial
    ])
    def test_capped_at_cpus_and_chunks(self, workers, cpus, chunks, size, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert cli._pool_size(workers, grid_of(chunks)) == size

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._pool_size(8, grid_of(10)) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._pool_size(8, grid_of(10)) == 1

    def test_serial_with_a_second_thread(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        assert cli._pool_size(4, grid_of(10)) == 4
        monkeypatch.setattr(cli.threading, "active_count", lambda: 2)
        assert cli._pool_size(4, grid_of(10)) == 1

    def test_serial_without_fork(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
        monkeypatch.delattr(os, "fork")
        assert cli._pool_size(4, grid_of(10)) == 1
