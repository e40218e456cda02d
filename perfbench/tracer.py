"""Per-layer tracing of one `congruence-lab` run, from outside the program.

Run as a script, it patches the program's public functions where they are
looked up, runs the CLI in this process with the given arguments, then
writes every recorded span to ``<outdir>``; with ``--metrics`` it prints the
per-layer metrics of a written trace as JSON:

    python3 perfbench/tracer.py <outdir> verify wan-strong --n 1..20 ...
    python3 perfbench/tracer.py --metrics <outdir> <workers>

A span is (id, name, parent id, thread, start, end, wrap), where wrap is
the wrapper's own time outside [start, end].  Each thread keeps its
own span stack, because `--workers` evaluates claims on a thread pool; a
span that starts on an otherwise idle worker thread gets as parent the span
open on the main thread (that is, `run_grids`).  Spans live in compact
arrays until the run ends.  :func:`layer_metrics` turns the written spans into
per-layer self times and counts; a self time is a span's duration minus the
part of it that its child spans cover.

The wrapper's own time, including the counters worked out from operands
(``kernels.operand_bytes``, the computed ``exactmath.ord_p.divmod_steps``),
counts as covered by the child in its parent's self time, so it lands in no
layer; it shows only in ``trace.overhead_s``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

clock = time.perf_counter

# (typecode, field) of the columns of spans.bin, in file order
COLUMNS = (("q", "ids"), ("i", "names"), ("q", "parents"), ("i", "threads"),
           ("d", "starts"), ("d", "ends"), ("d", "wraps"))


def rss_mib() -> float:
    """Resident set size of this process now, in MiB."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:  # no procfs: fall back to the peak
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class _Buffer:
    """One thread's spans and counters."""

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        for code, field in COLUMNS:
            setattr(self, field, array(code))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.gauges: dict[str, float] = {}
        self.untraced: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._main = self._buffer()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Callable[[dict, tuple, Any], None] | None = None,
        gauge: str | None = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``count(counters, args, result)``
        adds to counters and ``gauge`` names an RSS reading taken on return."""
        nid = self._name_id(name)
        ids, main_stack, get_buffer = self._ids, self._main.stack, self._buffer

        def traced(*args, **kwargs):
            t_in = clock()
            buf = get_buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            sid = next(ids)
            stack.append(sid)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(nid)
                buf.parents.append(parent)
                buf.threads.append(buf.thread)
                buf.starts.append(t0)
                buf.ends.append(t1)
                if done and count is not None:
                    count(buf.counters, args, result)
                if done and gauge is not None:
                    self.gauges[gauge] = rss_mib()
                buf.wraps.append(clock() - t1 + (t0 - t_in))
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` by its traced wrapper, where callers look it up."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.untraced.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, fn, **kwargs))

    def write(self, outdir: Path, extra: dict[str, Any]) -> None:
        counters: dict[str, int] = defaultdict(int)
        with open(outdir / "spans.bin", "wb") as f:
            for _, field in COLUMNS:
                for buf in self._buffers:
                    getattr(buf, field).tofile(f)
        for buf in self._buffers:
            for key, value in buf.counters.items():
                counters[key] += value
        meta = {
            "names": self.names,
            "count": sum(len(buf.ids) for buf in self._buffers),
            "counters": counters,
            "gauges": self.gauges,
            "untraced": self.untraced,
            **extra,
        }
        (outdir / "spans.json").write_text(json.dumps(meta, indent=1) + "\n")


# --------------------------------------------------------------------------
# Counters taken from operands and results
# --------------------------------------------------------------------------


def _operand_bytes(*lists) -> int:
    return sum((bits + 7) >> 3 for xs in lists for bits in map(int.bit_length, xs))


def _count_dot(counters: dict, args: tuple, result: Any) -> None:
    counters["kernels.terms"] += len(args[0])
    counters["kernels.operand_bytes"] += _operand_bytes(*args)


def _count_powers(counters: dict, args: tuple, result: Any) -> None:
    counters["kernels.terms"] += len(result)


def _count_members(offset: int) -> Callable:
    def count(counters: dict, args: tuple, result: Any) -> None:
        cls = next(a for a in args if hasattr(a, "members"))
        counters["filtered_sums.terms"] += len(cls.members(args[0] - offset))

    return count


def _count_ord_p(counters: dict, args: tuple, result: Any) -> None:
    # ord_p strips factors of an odd p with one divmod each, plus the one
    # that finds the nonzero remainder; p = 2 and zero take none
    x, p = args
    if p != 2 and not result.is_infinite:
        counters["exactmath.ord_p.divmod_steps"] += result.value + 1


def _count_rows(counters: dict, args: tuple, result: Any) -> None:
    counters["triangles.rows_built"] += result.max_n + 1


def install(tracer: Tracer) -> Callable:
    """Patch the program's layers; returns the traced `cli.main`."""
    from congruence_lab import bounds, cli, filtered_sums, triangles, verifier

    tracer.patch(cli, "render_json_report", "cli.render", gauge="cli.rss_after_render_mib")
    tracer.patch(cli, "render_csv_report", "cli.render", gauge="cli.rss_after_render_mib")
    tracer.patch(verifier, "run_grids", "verifier.run_grids",
                 gauge="cli.rss_after_run_grids_mib")
    tracer.patch(verifier, "check_claim", "verifier.check_claim")
    # the class method first: verifier.BoundSpec is about to become a wrapper
    tracer.patch(bounds.BoundSpec, "hypotheses_hold", "bounds.hypotheses")
    tracer.patch(verifier, "BoundSpec", "bounds.spec")
    tracer.patch(verifier, "bound_exponent", "bounds.bound_exponent")
    tracer.patch(verifier, "ord_p", "exactmath.ord_p", count=_count_ord_p)
    for fn in ("fleck_sum", "binom_power_sum", "eulerian_wan_sum", "eulerian_power_sum",
               "stirling_product_sum", "stirling_poly_sum"):
        offset = 1 if fn.startswith("eulerian") else 0
        tracer.patch(filtered_sums, fn, f"filtered_sums.{fn}", count=_count_members(offset))
    kernels = getattr(filtered_sums, "kernels", None)
    for fn, count in (("dot2", _count_dot), ("dot3", _count_dot),
                      ("power_steps", _count_powers)):
        tracer.patch(kernels, fn, f"kernels.{fn}", count=count)
    tracer.patch(triangles, "build", "triangles.build", count=_count_rows)
    return tracer.wrap("cli.main", cli.main)


# --------------------------------------------------------------------------
# Analysis
# --------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def load_spans(outdir: Path) -> tuple[dict[str, Any], dict[str, array]]:
    meta = json.loads((outdir / "spans.json").read_text())
    cols: dict[str, array] = {}
    with open(outdir / "spans.bin", "rb") as f:
        for code, field in COLUMNS:
            cols[field] = array(code)
            cols[field].fromfile(f, meta["count"])
    return meta, cols


def layer_times(meta: dict[str, Any], cols: dict[str, array]) -> dict[str, dict[str, float]]:
    """Per span name: ``self`` and ``incl`` seconds and ``calls``."""
    n = meta["count"]
    ids, names, parents, threads = cols["ids"], cols["names"], cols["parents"], cols["threads"]
    starts, ends, wraps = cols["starts"], cols["ends"], cols["wraps"]
    thread_of = array("i", bytes(4 * n))
    for j in range(n):
        thread_of[ids[j]] = threads[j]
    covered = [0.0] * n
    other_thread: dict[int, list] = defaultdict(list)
    for j in range(n):
        parent = parents[j]
        if parent < 0:
            continue
        if threads[j] == thread_of[parent]:
            covered[parent] += ends[j] - starts[j] + wraps[j]
        else:
            other_thread[parent].append((starts[j], ends[j]))
    for parent, intervals in other_thread.items():
        covered[parent] += _union_length(intervals)
    out = {name: {"self": 0.0, "incl": 0.0, "calls": 0} for name in meta["names"]}
    for j in range(n):
        row = out[meta["names"][names[j]]]
        dur = ends[j] - starts[j]
        row["incl"] += dur
        row["self"] += dur - covered[ids[j]]
        row["calls"] += 1
    return out


def _group(times: dict[str, dict[str, float]], prefix: str) -> dict[str, float]:
    rows = [row for name, row in times.items() if name.startswith(prefix)]
    return {key: sum(row[key] for row in rows) for key in ("self", "incl", "calls")}


def layer_metrics(outdir: Path, workers: int) -> dict[str, float]:
    """The per-layer metrics of one traced run (without the report's claims)."""
    meta, cols = load_spans(outdir)
    times = layer_times(meta, cols)
    zero = {"self": 0.0, "incl": 0.0, "calls": 0}

    def t(name: str) -> dict[str, float]:
        return times.get(name, zero)

    counters, gauges = meta["counters"], meta["gauges"]
    run_grids, check = t("verifier.run_grids"), t("verifier.check_claim")
    sums, kern = _group(times, "filtered_sums."), _group(times, "kernels.")
    out = {
        "cli.self_s": t("cli.main")["self"],
        "cli.render_s": t("cli.render")["self"],
        "cli.rss_after_run_grids_mib": gauges.get("cli.rss_after_run_grids_mib", 0.0),
        "cli.rss_after_render_mib": gauges.get("cli.rss_after_render_mib", 0.0),
        "verifier.run_grids.self_s": run_grids["self"],
        "verifier.check_claim.self_s": check["self"],
        "verifier.check_claim.calls": check["calls"],
        "verifier.parallel_eff": check["incl"] / (workers * run_grids["incl"])
        if run_grids["incl"] else 0.0,
    }
    for name in ("bounds.spec", "bounds.hypotheses", "bounds.bound_exponent"):
        out[f"{name}.self_s"] = t(name)["self"]
        out[f"{name}.calls"] = t(name)["calls"]
    out.update({
        "filtered_sums.self_s": sums["self"],
        "filtered_sums.calls": sums["calls"],
        "filtered_sums.terms": counters.get("filtered_sums.terms", 0),
        "kernels.self_s": kern["self"],
        "kernels.calls": kern["calls"],
        "kernels.terms": counters.get("kernels.terms", 0),
        "kernels.operand_bytes": counters.get("kernels.operand_bytes", 0),
        "exactmath.ord_p.self_s": t("exactmath.ord_p")["self"],
        "exactmath.ord_p.calls": t("exactmath.ord_p")["calls"],
        "exactmath.ord_p.divmod_steps": counters.get("exactmath.ord_p.divmod_steps", 0),
        "triangles.build_s": t("triangles.build")["self"],
        "triangles.rows_built": counters.get("triangles.rows_built", 0),
    })
    return out


def main(argv: list[str]) -> int:
    if argv[0] == "--metrics":  # analyse a written trace: --metrics <outdir> <workers>
        print(json.dumps(layer_metrics(Path(argv[1]), int(argv[2]))))
        return 0
    outdir = Path(argv[0])
    tracer = Tracer()
    traced_main = install(tracer)
    code = traced_main(argv[1:])
    tracer.write(outdir, {"exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
