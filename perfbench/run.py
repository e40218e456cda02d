#!/usr/bin/env python3
"""End-to-end benchmark of `congruence-lab verify`, with a per-layer trace.

Each workload (see workloads.py) runs as fresh CLI processes, one at a time
(a closed loop with one client), for about ``--seconds`` seconds.  Every run
passes the correctness gate in check.py or counts as failed.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload sc3-sweep --seed 3 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics: ``claims_per_s`` (claims in
the report over the process's wall time from spawn to exit),
``peak_rss_mib`` (``ru_maxrss`` from ``os.wait4``) and ``setup_s`` (wall
time of probe.py, which only imports the CLI and builds the triangles the
grids need).  ``--trace 1`` runs the workload untraced as well, then once
under tracer.py, and reports the per-layer metrics.  Each figure is the
median over the run's samples.

The host's speed drifts by up to 2x within minutes, so both times are
normalised to a nominal host: each is scaled by how much slower than
``NOMINAL_CALIB_S`` the fixed reference.py process ran, on average, during
the same run (``host.calib_s``).  The raw wall-time figures are printed too.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the whole run is also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = BENCH / "out"

PROBES_PER_SAMPLE = 4  # set-up probes before each untraced sample; setup_s is their median
CALIBRATIONS_PER_SAMPLE = 4  # reference.py runs before each sample; host.calib_s is their mean
NOMINAL_CALIB_S = 0.4  # host.calib_s of the nominal host that normalised figures refer to
HARD_LIMIT_S = 170.0  # a child still running this long after the run began is killed
TRACED_COST = 2.5  # traced run plus its analysis, in untraced sample costs

clock = time.perf_counter


class Child:
    """One finished child process: wall time from spawn to exit and its rusage."""

    def __init__(self, cmd: list[str], name: str, time_limit: float) -> None:
        out_path, err_path = OUT / f"{name}.stdout", OUT / f"{name}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err,
                                    env=dict(os.environ, PYTHONPATH=str(SRC)))
            timer = threading.Timer(time_limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = clock() - t0
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.usage = usage
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()
        out_path.unlink()
        err_path.unlink()


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.w, self.seed = workload, seed
        self.start = clock()
        self.deadline = self.start + seconds
        self.samples: list[dict[str, Any]] = []
        self.probes: list[dict[str, Any]] = []
        self.calibrations: list[float] = []
        self.problems: list[str] = []
        self.attempted = self.failed = 0
        self.traced_wall: float | None = None

    def time_left(self) -> float:
        return max(5.0, HARD_LIMIT_S - (clock() - self.start))

    def cli_argv(self, report: Path) -> list[str]:
        return self.w.argv(self.seed) + ["--out", str(report)]

    def checked(self, kind: str, code: int, report: Path) -> list[str]:
        # in a child process: parsing a report would raise this process's peak
        # RSS, and every later child's ru_maxrss starts from that peak
        child = Child([sys.executable, str(BENCH / "check.py"), self.w.name, str(self.seed),
                       str(code), str(report)], f"check-{os.getpid()}", self.time_left())
        report.unlink(missing_ok=True)
        self.attempted += 1
        if child.exit_code == 0:
            problems = json.loads(child.stdout)
        else:
            problems = [f"check.py exit {child.exit_code}: {child.stderr[-300:]}"]
        if problems:
            self.failed += 1
            self.problems += [f"{kind}: {p}" for p in problems[:5]]
        return problems

    def probe(self) -> dict[str, Any]:
        child = Child([sys.executable, str(BENCH / "probe.py"), self.w.name, str(self.seed)],
                      f"probe-{os.getpid()}", self.time_left())
        tables = json.loads(child.stdout) if child.exit_code == 0 else {}
        wrong = {f: t for f, t in tables.items() if t["built"] != t["needed"]}
        if child.exit_code != 0 or wrong:
            self.problems.append(f"probe: exit {child.exit_code}, tables {wrong}: "
                                 f"{child.stderr[-300:]}")
        rec = {"setup_s": child.wall, "tables": tables,
               "rows_built": sum(t["built"] + 1 for t in tables.values())}
        self.probes.append(rec)
        return rec

    def calibrate(self) -> None:
        child = Child([sys.executable, str(BENCH / "reference.py")],
                      f"reference-{os.getpid()}", self.time_left())
        if child.exit_code != 0:
            self.problems.append(f"reference: exit {child.exit_code}: {child.stderr[-300:]}")
        self.calibrations.append(child.wall)

    def host_calib_s(self) -> float:
        # the mean, not the median: a sample's wall time integrates the host's
        # speed over the sample, and the speed flips between two levels
        return statistics.mean(self.calibrations)

    def host_factor(self) -> float:
        """How much slower than the nominal host this host ran during the run."""
        return self.host_calib_s() / NOMINAL_CALIB_S

    def sample(self) -> dict[str, Any]:
        report = OUT / f"report-{os.getpid()}.{self.w.fmt}"
        child = Child([sys.executable, "-m", "congruence_lab.cli", *self.cli_argv(report)],
                      f"cli-{os.getpid()}", self.time_left())
        t0 = clock()
        problems = self.checked("timed run", child.exit_code, report)
        if child.exit_code != 0:
            self.problems.append(f"timed run stderr: {child.stderr[-300:]}")
        rec = {
            "wall_s": child.wall,
            "claims_per_s": self.w.claim_count() / child.wall,
            "peak_rss_mib": child.usage.ru_maxrss / 1024,
            "user_s": child.usage.ru_utime,
            "sys_s": child.usage.ru_stime,
            "minflt": child.usage.ru_minflt,
            "check_s": clock() - t0,
            "ok": not problems,
        }
        self.samples.append(rec)
        return rec

    def sample_until(self, probes: int, reserve: float) -> None:
        """Closed loop: the next calibrations, probes and sample start only if
        they should end in time, with ``reserve`` times their cost left over."""
        cost = 0.0
        while True:
            t0 = clock()
            for _ in range(CALIBRATIONS_PER_SAMPLE):
                self.calibrate()
            for _ in range(probes):
                self.probe()
            self.sample()
            cost = max(cost, clock() - t0)
            if clock() + cost * (1 + reserve) > self.deadline:
                return

    def median(self, key: str, rows: list[dict[str, Any]] | None = None) -> float:
        return statistics.median(r[key] for r in (self.samples if rows is None else rows))

    def traced(self, rows_built: int) -> dict[str, float]:
        outdir = OUT / f"trace-{self.w.name}"
        outdir.mkdir(exist_ok=True)
        report = OUT / f"report-traced-{os.getpid()}.{self.w.fmt}"
        child = Child([sys.executable, str(BENCH / "tracer.py"), str(outdir),
                       *self.cli_argv(report)], f"traced-{os.getpid()}", self.time_left())
        self.traced_wall = child.wall
        problems = self.checked("traced run", child.exit_code, report)
        if child.exit_code != 0:
            self.problems.append(f"traced run stderr: {child.stderr[-300:]}")
            return {}
        analysis = Child([sys.executable, str(BENCH / "tracer.py"), "--metrics", str(outdir),
                          str(self.w.workers)], f"metrics-{os.getpid()}", self.time_left())
        if analysis.exit_code != 0:
            self.problems.append(f"trace analysis: {analysis.stderr[-300:]}")
            return {}
        metrics = json.loads(analysis.stdout)
        meta = json.loads((outdir / "spans.json").read_text())
        if meta["untraced"]:
            print(f"# not traced (no such function): {', '.join(meta['untraced'])}")
        if metrics["triangles.rows_built"] != rows_built:
            self.problems.append(f"traced run built {metrics['triangles.rows_built']} "
                                 f"triangle rows, the set-up probe {rows_built}")
        claims = self.w.claim_count() if not problems else 0
        metrics.update({
            "verifier.claims_untraced": claims - metrics["verifier.check_claim.calls"],
            "proc.user_s": self.median("user_s"),
            "proc.sys_s": self.median("sys_s"),
            "proc.minflt": self.median("minflt"),
            "proc.wall_claims_per_s": self.median("claims_per_s"),
            "trace.overhead_s": child.wall - self.median("wall_s"),
            "host.calib_s": self.host_calib_s(),
        })
        return metrics


def environment() -> dict[str, Any]:
    try:
        from congruence_lab.kernels import BACKEND
    except ImportError:
        BACKEND = "none"
    return {
        "python": platform.python_version(),
        "backend": BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def run_one(workload, seed: int, seconds: float, trace: int, spec: dict) -> dict[str, Any]:
    run = Run(workload, seed, seconds)
    env = environment()
    print(f"# {workload.name} seed {seed} trace {trace}: congruence-lab "
          + " ".join(workload.argv(seed)))
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if trace:
        run.sample_until(probes=1, reserve=TRACED_COST)
        values = run.traced(run.probes[0]["rows_built"])
        wanted = spec["per_layer"]
    else:
        run.sample_until(probes=PROBES_PER_SAMPLE, reserve=0.0)
        wall = {"claims_per_s": run.median("claims_per_s"),
                "setup_s": run.median("setup_s", run.probes)}
        values = {
            "claims_per_s": wall["claims_per_s"] * run.host_factor(),
            "peak_rss_mib": run.median("peak_rss_mib"),
            "setup_s": wall["setup_s"] / run.host_factor(),
        }
        wanted = spec["end_to_end"]
    correct = not run.problems and all(m["name"] in values for m in wanted)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    print(f"# host.calib_s mean {run.host_calib_s():.4f} s over "
          f"{len(run.calibrations)} runs of reference.py; claims_per_s and setup_s are "
          f"normalised to host.calib_s = {NOMINAL_CALIB_S} s")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    counts = {"setup_s": len(run.probes), "host.calib_s": len(run.calibrations)}
    for name in ("claims_per_s", "peak_rss_mib", "proc.user_s", "proc.sys_s", "proc.minflt",
                 "proc.wall_claims_per_s"):
        counts[name] = len(run.samples)
    for name, m in metrics.items():
        n = f"median of {counts[name]}" if name in counts else "traced run"
        if name == "host.calib_s":
            n = f"mean of {counts[name]}"
        print(f"{workload.name:11s} {name:32s} {m['value']:>16.6g} {m['unit']:14s} {n}")
    if not trace:
        for name, value in wall.items():
            print(f"{workload.name:11s} {name + ' (wall, not normalised)':32s} {value:>16.6g}")
    print(f"{workload.name:11s} {'failed_ratio':32s} {run.failed:>9d} / {run.attempted:<5d}"
          f" {'runs':14s} failed / attempted")

    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "trace": trace, "env": env,
              "argv": workload.argv(seed), "samples": run.samples, "probes": run.probes,
              "calibrations": run.calibrations, "traced_wall_s": run.traced_wall,
              "problems": run.problems, "result": result}
    (OUT / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "congruence_lab" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'congruence_lab'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(BENCH)]
    import congruence_lab
    from workloads import WORKLOADS

    if Path(congruence_lab.__file__).resolve().parent != SRC / "congruence_lab":
        print(f"error: imported congruence_lab from {congruence_lab.__file__}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="default: 0 for one workload, both for all")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else ([0, 1] if args.workload == "all" else [0])
    results = {(name, trace): run_one(WORKLOADS[name], args.seed, args.seconds, trace, spec)
               for name in names for trace in traces}
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for (name, _), r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
