"""Command-line front end.

Subcommands
-----------
    triangle   write one number triangle in the triangle text format
    sum        evaluate one filtered sum and print its value and p-adic order
    verify     sweep a parameter grid for one theorem and write a report
    identity   run identity/lemma check suites

Exit codes: 0 success, 1 violations or failed checks, 2 usage or parameter
error or an --out file that cannot be written, 3 capacity (triangle row
limit) error, 130 interrupted (Ctrl-C), 141 stdout closed by its reader
(broken pipe), 143 terminated (SIGTERM), 129 hung up (SIGHUP).  SIGTERM and
SIGHUP end a run as Ctrl-C does: the same clean-up, the same ``interrupted``
line.  A signal ignored at start (``nohup``, ``trap '' TERM``) stays ignored.

Range flags accept "a..b" (inclusive), comma lists "x,y,z", or a mix of both;
residues also accept "all".  The --m axis of the Stirling sweeps additionally
accepts an n-coupled upper end, e.g. "1..n".  SC2 polynomials are given as
comma-separated coefficient lists, low to high: "--f 0,0,1" is x**2.

Claims are evaluated one parameter tuple (all its residue classes) at a
time through ``verifier.evaluate_tuple``, in chunks of at least
``JSON_CHUNK`` claims cut at tuple boundaries (``verifier.iter_chunks``);
with --fail-fast the chunks stop right after the first VIOLATION, cutting
its tuple's records there.  Each chunk's tuple results are tallied whole and
rendered from a fixed layout (``_result_json``, ``csv.writer`` rows from
``_result_csv``) that formats what a tuple's records share once and gives
the bytes ``json.dumps`` with indent=2 and sorted keys, and
``csv.DictWriter``, gave.  Every run streams its report through
``_write_report``, one write per chunk and the JSON summary last, so memory
does not depend on the grid size.  `verify --workers N` (N >= 2) forks a
pool of worker processes (:class:`_Pool`): worker i evaluates and renders
chunks i, i + W, i + 2W, ... of the W workers, and the parent writes the
chunks in order and merges their summaries, so the report's bytes are those
of a serial run.  The pool is capped at the CPUs the process may use and at
the number of chunks; the run is serial when that leaves fewer than two
workers, with --fail-fast, where ``os.fork`` is missing, or when another
thread is running.  A worker that fails or dies makes the run exit 2.
Every grid value is checked, and a grid flag the theorem does not take is refused,
before the first byte is written.  Every --out file is written under a temporary name in its
directory and renamed into place when complete, so an interrupted run never
leaves a truncated file; an interrupted run to stdout may leave a partial
report there.  An existing directory at --out is refused before any
claim or identity check runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import io
import itertools
import json
import os
import signal
import sys
import threading
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from . import __version__, identities, triangles, verifier
from .bounds import THEOREMS, TheoremId
from .errors import CapacityError, CongruenceLabError, ParameterError
from .exactmath import IntPolynomial, check_params, ord_p
from .filtered_sums import (
    ResidueClass,
    binom_power_sum,
    eulerian_power_sum,
    eulerian_wan_sum,
    fleck_sum,
    stirling_poly_sum,
    stirling_product_sum,
)
from .triangles import Family
from .verifier import GridSpec, GridSummary, TupleResult, Verdict

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

#: the signals that end a run as Ctrl-C does, with exit code 128 + the signal
#: number (Windows has no SIGHUP)
_STOP_SIGNALS = tuple(getattr(signal, name) for name in ("SIGTERM", "SIGHUP")
                      if hasattr(signal, name))

# the least number of claims in a report chunk, in JSON and CSV alike: the unit
# of a write and of the --workers pool
JSON_CHUNK = 512

CSV_COLUMNS = (
    "theorem",
    "n",
    "p",
    "alpha",
    "beta",
    "l",
    "m",
    "a",
    "d",
    "r",
    "f",
    "sum",
    "ord",
    "bound",
    "verdict",
    "margin",
    "sc2_l",
    "sc2_lhs",
    "sc2_rhs",
    "sc2_satisfied",
)


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------


def parse_int_set(text: str) -> tuple[int, ...]:
    """Parse "1..5", "2,3,7", "1..4,10" into a sorted tuple of ints."""
    values: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ParameterError(f"empty token in range {text!r}")
        if ".." in token:
            lo_text, hi_text = token.split("..", 1)
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError as exc:
                raise ParameterError(f"bad range token {token!r}") from exc
            if hi < lo:
                raise ParameterError(f"descending range {token!r}")
            values.update(range(lo, hi + 1))
        else:
            try:
                values.add(int(token))
            except ValueError as exc:
                raise ParameterError(f"bad integer {token!r}") from exc
    if not values:
        raise ParameterError(f"empty range {text!r}")
    return tuple(sorted(values))


def parse_residues(text: str) -> str | tuple[int, ...]:
    return "all" if text.strip().lower() == "all" else parse_int_set(text)


def parse_m_axis(text: str) -> tuple[str, Any]:
    """Either ("static", values) or ("upto_n", lo) for n-coupled specs like "1..n"."""
    token = text.strip()
    if token.lower().endswith("..n"):
        try:
            lo = int(token[:-3])
        except ValueError as exc:
            raise ParameterError(f"bad m range {text!r}") from exc
        return ("upto_n", lo)
    return ("static", parse_int_set(text))


def _now_stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Stdout, or a file that replaces ``path`` atomically.

    The file is written under a temporary name in the target directory and
    renamed over ``path`` only when the block completes.  If the block raises
    (Ctrl-C included), the temporary file is removed and ``path`` is left as
    it was.  An OSError from creating, writing or renaming the file becomes a
    :class:`CongruenceLabError` naming ``path``.  An existing directory at
    ``path``, which the rename could not replace, is refused before the block
    runs, so no work is wasted on a report that cannot be written.
    """
    if not path:
        yield sys.stdout
        return
    target = Path(path)
    tmp = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        # os.replace would refuse a directory only after the block has run
        if target.is_dir() and not target.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise CongruenceLabError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# triangle
# ---------------------------------------------------------------------------


def cmd_triangle(args: argparse.Namespace) -> int:
    tri = triangles.build(args.family, args.n_max)
    with _output(args.out) as out:
        out.writelines(triangles.format_lines(tri))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sum
# ---------------------------------------------------------------------------


def cmd_sum(args: argparse.Namespace) -> int:
    kind = args.kind
    p: int | None = args.p
    if kind == "spoly" and args.f is None:
        raise ParameterError("spoly needs --f")
    if kind in ("fleck", "bpow", "ewan", "epow"):
        if p is None:
            raise ParameterError(f"sum {kind} needs --p")
        # the class modulus is p**beta for a floor sum, else p**alpha: p and
        # that exponent are checked before the modulus is built
        name = "beta" if kind == "fleck" and args.variant == "floor" else "alpha"
        exponent = getattr(args, name)
        if exponent is None:
            raise ParameterError("floor variant needs --beta")
        check_params(p=p, **{name: exponent})
        cls = ResidueClass(p**exponent, args.r)
    else:
        if p is not None:  # its order is printed after the sum: check it first
            check_params(p=p)
        cls = ResidueClass(args.d, args.r)
    if kind == "fleck" and args.variant == "floor":
        # the floor sum divides by p**alpha: alpha is checked in its place
        # between n and l, as the sum checks them, and must not be below beta
        check_params(n=args.n, alpha=args.alpha, l=args.l)
        if args.beta > args.alpha:
            raise ParameterError(f"need alpha >= beta, got alpha={args.alpha}, beta={args.beta}")
        value = fleck_sum(args.n, cls, args.l, p**args.alpha)
    elif kind == "fleck":
        value = fleck_sum(args.n, cls, args.l)
    elif kind == "bpow":
        value = binom_power_sum(args.n, cls, args.a)
    elif kind == "ewan":
        value = eulerian_wan_sum(args.n, cls, args.l)
    elif kind == "epow":
        value = eulerian_power_sum(args.n, cls, args.a)
    elif kind == "cdr":
        value = stirling_product_sum(args.n, args.m, cls, args.a)
    elif kind == "spoly":
        value = stirling_poly_sum(
            args.n, IntPolynomial.from_coeff_string(args.f), cls, args.a
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ParameterError(f"unknown sum kind {kind!r}")
    if p is not None:
        print(f"{value} / ord_{p} = {ord_p(value, p)}")
    else:
        print(value)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


#: The verify flags that give a parameter's axis, and the value a theorem that
#: takes the parameter gets when its flag is not given (None: it must be).
_GRID_FLAGS: dict[str, str | None] = {
    "alpha": "1", "beta": None, "l": "0", "m": "1..n", "a": "1", "f": None,
}


def _grid_flags(theorem: TheoremId, args: argparse.Namespace) -> dict[str, Any]:
    """The grid flag text of each parameter the theorem takes (besides n and
    p), defaults filled in.  A flag for a parameter it does not take is an
    error, so that no flag is silently dropped."""
    taken = THEOREMS[theorem].params
    flags: dict[str, Any] = {}
    for name, default in _GRID_FLAGS.items():
        value = getattr(args, name)
        if name not in taken:
            if value is not None:
                raise ParameterError(f"{theorem.value} does not take --{name}")
        elif value is None and default is None:
            raise ParameterError(f"{theorem.value} needs --{name}")
        else:
            flags[name] = default if value is None else value
    return flags


def _build_grids(
    theorem: TheoremId, args: argparse.Namespace, flags: dict[str, Any]
) -> list[GridSpec]:
    ns = parse_int_set(args.n)
    common: dict[str, Any] = dict(
        theorem=theorem, primes=parse_int_set(args.p), residues=parse_residues(args.r)
    )
    for name, text in flags.items():
        if name == "f":
            common["polys"] = tuple(IntPolynomial.from_coeff_string(t) for t in text)
        elif name != "m":
            common[verifier.AXIS_FIELDS[name]] = parse_int_set(text)
    if "m" not in flags:
        return [GridSpec(ns=ns, **common)]

    mode, spec = parse_m_axis(flags["m"])
    if mode == "static":
        return [GridSpec(ns=ns, ms=spec, **common)]
    grids = [GridSpec(ns=(n,), ms=range(spec, n + 1), **common) for n in ns if n >= spec]
    if not grids:
        raise ParameterError(f"--m {flags['m']!r} matches no n in {args.n!r}")
    return grids


_RECORDS_OPEN = '{\n  "records": ['


@functools.lru_cache(maxsize=None)
def _params_layout(keys: tuple[str, ...]) -> tuple[str, str]:
    """The ``str.format`` template of a params object with these keys
    (sorted, at report indentation) up to the value of "r", and the text
    after it: "r" sorts last among the parameter names.  A theorem's records
    share one key set, so the cache holds at most one entry per theorem."""
    lines = ",\n".join(f'        "{key}": {{{key}}}' for key in sorted(keys))
    text = "{{\n" + lines + "\n      }}" if keys else "{{}}"
    head, _, tail = text.partition("{r}")
    return head, tail.format()


def _sc2_json(sc2: verifier.Sc2Comparison) -> str:
    lhs = "null" if sc2.lhs is None else f'"{sc2.lhs}"'
    satisfied = "true" if sc2.satisfied else "false"
    return (f'      "sc2": {{\n        "l": {sc2.l},\n        "lhs": {lhs},\n'
            f'        "rhs": "{sc2.rhs}",\n        "satisfied": {satisfied}\n      }},\n')


def _result_json(res: TupleResult) -> str:
    """``_json_text`` of each record's ``to_json_dict()``, as items of the
    report's records list joined as in the report: the same bytes, from a
    fixed layout.  The params object is formatted once for the tuple, and
    only each record's "r" is written into it.  Params are integers except
    SC2's coefficient string ``f``.  (``_value_`` is an enum member's value
    without the ``value`` property's descriptor call.)"""
    params = res.params
    if "f" in params:
        params = {**params, "f": encode_basestring_ascii(params["f"])}
    head, tail = _params_layout(tuple(params))
    head = head.format_map(params)
    if res.theorem is TheoremId.SC2:
        bound = '"sc2"'
    else:
        bound = "null" if res.bound is None else res.bound
    theorem = res.theorem._value_
    texts = []
    for r, total, order, verdict, margin, sc2 in zip(
            res.residues, res.totals, res.orders, res.verdicts, res.margins, res.sc2):
        if order is None:
            order = "null"
        elif order == "inf":
            order = '"inf"'
        total = "null" if total is None else f'"{total}"'
        texts.append(
            f'    {{\n      "bound": {bound},\n'
            f'      "margin": {"null" if margin is None else margin},\n'
            f'      "ord": {order},\n'
            f'      "params": {head}{r}{tail},\n{"" if sc2 is None else _sc2_json(sc2)}'
            f'      "sum": {total},\n'
            f'      "theorem": "{theorem}",\n'
            f'      "verdict": "{verdict._value_}"\n    }}'
        )
    return ",\n".join(texts)


_NO_SC2 = (None,) * 4


def _result_csv(res: TupleResult) -> list[list[Any]]:
    """The CSV rows of the records, in ``CSV_COLUMNS`` order (csv writes
    None as an empty field); they share the columns before "r"."""
    params = res.params
    head = [res.theorem._value_, *map(params.get, CSV_COLUMNS[1:9])]
    f = params.get("f")
    bound = "sc2" if res.theorem is TheoremId.SC2 else res.bound
    return [
        head + [r, f, total, order, bound, verdict._value_, margin,
                *(_NO_SC2 if sc2 is None else (sc2.l, sc2.lhs, sc2.rhs, sc2.satisfied))]
        for r, total, order, verdict, margin, sc2 in zip(
            res.residues, res.totals, res.orders, res.verdicts, res.margins, res.sc2)
    ]


def _write_report(
    out: TextIO, run: dict[str, Any], fmt: str, chunks: Iterable[tuple[GridSummary, str]]
) -> GridSummary:
    """Write the report whose records are the chunks' texts, in order, to
    ``out``, one write per chunk, and return the merge of the chunks'
    summaries once they are written.  A chunk (a :data:`_ChunkSource` item)
    is one or more :func:`_result_json` texts, joined as in the report, or
    CSV rows.  Sorted keys put the JSON "records" first, so the run and the
    summary follow the last chunk."""
    summary = GridSummary()
    if fmt == "csv":
        out.write(",".join(CSV_COLUMNS) + "\n")
    started = False
    for part, text in chunks:
        summary.merge(part)
        if fmt == "json":
            text = (",\n" if started else _RECORDS_OPEN + "\n") + text
        out.write(text)
        started = True
    if fmt == "json":
        # the report with no records, from the "]" that closes them on
        rest = _json_text({"records": [], "run": run, "summary": summary.to_json_dict()})
        out.write(("\n  " if started else _RECORDS_OPEN) + rest[len(_RECORDS_OPEN):])
    return summary


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _pool_size(workers: int, grids: list[GridSpec]) -> int:
    """How many worker processes ``verify --workers workers`` forks for the
    grids; 0 means the run is serial.

    The pool is capped at the usable CPUs and at the number of chunks of
    the grids' records, and a pool of fewer than two is not started, so
    that more workers never make a run slower.  Without ``os.fork``, or
    with another thread running (which a fork would not copy), the run is
    serial too.
    """
    cap = min(workers, _usable_cpus())
    if cap < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    size = verifier.count_chunks(grids, JSON_CHUNK, cap)
    return size if size >= 2 else 0


#: A share of a sweep: ``chunks(first, step)`` gives the summary and text of
#: chunks ``first``, ``first + step``, ``first + 2 step``, ...; a worker of the
#: pool takes ``chunks(i, size)``, a serial run ``chunks(0, 1)``.
_ChunkSource = Callable[[int, int], Iterator[tuple[GridSummary, str]]]


def _rendered_chunks(
    grids: list[GridSpec], fmt: str, probe_inapplicable: bool, fail_fast: bool,
    first: int, step: int,
) -> Iterator[tuple[GridSummary, str]]:
    """A :data:`_ChunkSource` over :func:`verifier.iter_chunks` (chunks of at
    least ``JSON_CHUNK`` claims): each chunk's summary and its records'
    text, as :func:`_write_report` takes them."""
    for _, results in verifier.iter_chunks(grids, JSON_CHUNK, probe_inapplicable, first, step,
                                           fail_fast):
        summary = GridSummary()
        for res in results:
            summary.add(res)
        if fmt == "json":
            text = ",\n".join(map(_result_json, results))
        else:
            buf = io.StringIO()
            rows = itertools.chain.from_iterable(map(_result_csv, results))
            csv.writer(buf, lineterminator="\n").writerows(rows)
            text = buf.getvalue()
        yield summary, text


class _Pool:
    """``size`` forked worker processes that evaluate and render a sweep.

    Worker i sends the chunks of ``chunks(i, size)`` through its own pipe,
    each as one frame: a JSON line with the chunk's summary and the byte
    length of its text, then the text.  A full pipe blocks the worker until
    the parent reads, so it holds at most one rendered chunk.  On failure it
    sends one line instead, ``{"error": message}`` or
    ``{"interrupted": exit code}``, and exits 1.  A worker ends with
    ``os._exit``, so it never flushes the output buffers it inherited or
    runs the parent's clean-up.

    Leaving the ``with`` block, however it is left, closes the pipes and
    reaps every worker, killing any that has not exited.
    """

    def __init__(self, size: int, chunks: _ChunkSource):
        self.size = size
        self._chunks = chunks
        self._pids: list[int] = []
        self._pipes: list[BinaryIO] = []
        self._running: set[int] = set()

    def __enter__(self) -> "_Pool":
        try:
            for i in range(self.size):
                self._fork(i)
        except BaseException:
            self._close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._close()

    def _fork(self, i: int) -> None:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:  # the worker: leaves only through os._exit
            code = 1
            try:
                os.close(r)
                for pipe in self._pipes:  # so that a dead parent's pipes break
                    pipe.close()
                code = self._work(i, w)
            finally:
                os._exit(code)
        os.close(w)
        self._pids.append(pid)
        self._running.add(pid)
        self._pipes.append(open(r, "rb"))

    def _work(self, i: int, fd: int) -> int:
        with open(fd, "wb") as pipe:
            try:
                for summary, text in self._chunks(i, self.size):
                    body = text.encode()
                    head = {"bytes": len(body), "summary": summary.to_json_dict()}
                    pipe.write(json.dumps(head).encode() + b"\n")
                    pipe.write(body)
                    pipe.flush()
                return 0
            except KeyboardInterrupt as exc:
                failure: dict[str, Any] = {"interrupted": getattr(exc, "code", EXIT_INTERRUPTED)}
            except Exception as exc:
                failure = {"error": f"{type(exc).__name__}: {exc}".replace("\n", " ")}
            pipe.write(json.dumps(failure).encode() + b"\n")
            return 1

    def chunks(self) -> Iterator[tuple[GridSummary, str]]:
        """Every chunk's summary and text, in chunk order.  A failed worker
        raises :class:`CongruenceLabError`, or :class:`KeyboardInterrupt` if
        it was interrupted."""
        for number in itertools.count():
            chunk = self._read(number % self.size)
            if chunk is None:  # there is no chunk `number`
                if any(self._read(i) is not None for i in range(self.size)):
                    raise CongruenceLabError("a verify worker sent a chunk past the last")
                return
            yield chunk

    def _read(self, i: int) -> tuple[GridSummary, str] | None:
        """Worker i's next chunk, or None once it has exited 0 with no more."""
        pipe = self._pipes[i]
        line = pipe.readline()
        if not line.endswith(b"\n"):  # the worker has exited
            self._reap(i)
            if line:
                raise CongruenceLabError("a verify worker exited in the middle of a chunk")
            return None
        head = json.loads(line)
        if "error" in head:
            raise CongruenceLabError(f"a verify worker failed: {head['error']}")
        if "interrupted" in head:
            raise _Interrupted(head["interrupted"])
        body = pipe.read(head["bytes"])
        if len(body) < head["bytes"]:
            self._reap(i)
            raise CongruenceLabError("a verify worker exited in the middle of a chunk")
        return GridSummary(**head["summary"]), body.decode()

    def _reap(self, i: int) -> None:
        """Wait for worker i, which has closed its pipe; raise unless it
        exited 0."""
        pid = self._pids[i]
        if pid not in self._running:
            return
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        self._running.discard(pid)
        if code:
            how = f"exit code {code}" if code > 0 else f"signal {-code}"
            raise CongruenceLabError(f"a verify worker ended early ({how})")

    def _close(self) -> None:
        for pipe in self._pipes:
            pipe.close()
        if self._running:  # left early: an error, an interrupt or a closed output
            for pid in self._running:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            self._running.clear()


def cmd_verify(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ParameterError(f"--workers must be >= 1, got {args.workers}")
    theorem = TheoremId(args.theorem)
    flags = _grid_flags(theorem, args)
    grids = _build_grids(theorem, args, flags)
    size = 0 if args.fail_fast else _pool_size(args.workers, grids)
    # the triangles, before the first byte and before any fork: every worker shares them
    verifier.ensure_tables(grids)
    chunks = functools.partial(_rendered_chunks, grids, args.format, args.probe_inapplicable,
                               args.fail_fast)

    run: dict[str, Any] = {
        "command": "verify",
        "theorem": theorem.value,
        "grid": {"n": args.n, "p": args.p, "r": args.r, **flags},
        "tool_version": __version__,
    }
    if not args.no_timestamp:
        run["timestamp"] = _now_stamp()

    with _output(args.out) as out:
        if size:
            with _Pool(size, chunks) as pool:
                summary = _write_report(out, run, args.format, pool.chunks())
        else:
            summary = _write_report(out, run, args.format, chunks(0, 1))

    if args.out:
        counts = summary.verdicts
        brief = ", ".join(f"{name}={counts[name]}" for name in sorted(counts) if counts[name])
        print(f"{theorem.value}: {summary.total} claims ({brief or 'none'})")
    return EXIT_VIOLATION if summary.verdicts[Verdict.VIOLATION.value] else EXIT_OK


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------


def _identity_report(args: argparse.Namespace, ids: Sequence[str], aggregates: list) -> str:
    run: dict[str, Any] = {
        "command": "identity",
        "ids": list(ids),
        "tool_version": __version__,
    }
    if not args.no_timestamp:
        run["timestamp"] = _now_stamp()
    if args.format == "json":
        return _json_text({"run": run, "checks": aggregates})
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=("identity", "total", "passed", "failed", "first_failure"),
        lineterminator="\n",
    )
    writer.writeheader()
    for agg in aggregates:
        row = dict(agg)
        row["first_failure"] = (
            "" if row["first_failure"] is None else json.dumps(row["first_failure"], sort_keys=True)
        )
        writer.writerow(row)
    return buf.getvalue()


def cmd_identity(args: argparse.Namespace) -> int:
    ids = identities.IDENTITY_IDS if args.identity == "all" else (args.identity.upper(),)
    kwargs: dict[str, Any] = {}
    if args.n_max is not None:
        kwargs["n_max"] = args.n_max
    elif args.n is not None:
        kwargs["n_max"] = max(parse_int_set(args.n))
    if args.l_max is not None:
        kwargs["l_max"] = args.l_max
    if args.p is not None:
        kwargs["primes"] = parse_int_set(args.p)
    if args.alpha is not None:
        kwargs["alphas"] = parse_int_set(args.alpha)
    kwargs["count"] = args.count
    kwargs["seed"] = args.seed
    kwargs["scl3e_limit"] = args.scl3e_limit

    # the --out file is opened first, so an unwritable path fails before any suite runs;
    # then every suite checks its parameters and builds its triangle rows before any check
    with _output(args.out) if args.out else contextlib.nullcontext() as out:
        suites = [identities.suite(identity_id, **kwargs) for identity_id in ids]
        aggregates = []
        failed_total = 0
        for identity_id, checks in zip(ids, suites):
            total = passed = 0
            first_failure: dict[str, Any] | None = None
            for result in checks:
                total += 1
                if result.passed:
                    passed += 1
                elif first_failure is None:
                    first_failure = {"params": result.params, "witness": result.witness}
            failed = total - passed
            failed_total += failed
            aggregates.append(
                {
                    "identity": identity_id,
                    "total": total,
                    "passed": passed,
                    "failed": failed,
                    "first_failure": first_failure,
                }
            )
            status = "all passed" if failed == 0 else f"{failed} FAILED"
            print(f"{identity_id}: {total} checks, {status}")

        if out is not None:
            out.write(_identity_report(args, ids, aggregates))
    return EXIT_VIOLATION if failed_total else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="congruence-lab",
        description="Exact verification of congruence lower bounds for binomial, "
        "Stirling and Eulerian filtered sums.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    tri = sub.add_parser("triangle", help="write a number triangle in the triangle text format")
    tri.add_argument("family", choices=[f.value for f in Family])
    tri.add_argument("--n-max", type=int, required=True)
    tri.add_argument("--out", default=None, help="output file (default: stdout)")
    tri.set_defaults(func=cmd_triangle)

    sm = sub.add_parser("sum", help="evaluate one filtered sum")
    sm.add_argument("kind", choices=["fleck", "bpow", "ewan", "epow", "cdr", "spoly"])
    sm.add_argument("--n", type=int, required=True)
    sm.add_argument("--p", type=int, default=None, help="prime (required except cdr/spoly)")
    sm.add_argument("--alpha", type=int, default=1)
    sm.add_argument("--beta", type=int, default=None)
    sm.add_argument("--r", type=int, default=0)
    sm.add_argument("--l", type=int, default=0)
    sm.add_argument("--a", type=int, default=1)
    sm.add_argument("--m", type=int, default=1)
    sm.add_argument("--d", type=int, default=1, help="class modulus for cdr/spoly")
    sm.add_argument("--f", default=None, help="polynomial coefficients, low to high")
    sm.add_argument("--variant", choices=["exact", "floor"], default="exact")
    sm.set_defaults(func=cmd_sum)

    ver = sub.add_parser("verify", help="sweep a parameter grid for one theorem")
    ver.add_argument("theorem", choices=[t.value for t in TheoremId])
    ver.add_argument("--n", required=True, help='n range, e.g. "1..80"')
    ver.add_argument("--p", required=True, help='prime set, e.g. "2,3,5"')
    # the defaults of the axis flags are in _GRID_FLAGS
    ver.add_argument("--alpha", help='default "1"')
    ver.add_argument("--beta")
    ver.add_argument("--l", help='default "0"')
    ver.add_argument("--m", help='m range, default "1..n"; "1..n" couples the top to n')
    ver.add_argument("--a", help='default "1"')
    ver.add_argument("--r", default="all", help='residues: "all" or a range/list')
    ver.add_argument("--f", action="append", default=None, help="SC2 polynomial (repeatable)")
    ver.add_argument("--out", default=None, help="report file (default: stdout)")
    ver.add_argument("--format", choices=["json", "csv"], default="json")
    ver.add_argument("--workers", type=int, default=1,
                     help="worker processes, at most one per usable CPU (default 1: serial)")
    ver.add_argument("--no-timestamp", action="store_true")
    ver.add_argument("--probe-inapplicable", action="store_true",
                     help="compute sums and orders even for NOT-APPLICABLE tuples")
    ver.add_argument("--fail-fast", action="store_true")
    ver.set_defaults(func=cmd_verify)

    ident = sub.add_parser("identity", help="run identity check suites")
    ident.add_argument("identity", type=str.lower,
                       choices=[i.lower() for i in identities.IDENTITY_IDS] + ["all"])
    top = ident.add_mutually_exclusive_group()
    top.add_argument("--n", default=None, help='n range; only the top matters, e.g. "1..12"')
    top.add_argument("--n-max", type=int, default=None)
    ident.add_argument("--l-max", type=int, default=None)
    ident.add_argument("--p", default=None)
    ident.add_argument("--alpha", default=None)
    ident.add_argument("--count", type=int, default=200, help="random tuples for L31")
    ident.add_argument("--seed", type=int, default=20210)
    ident.add_argument("--scl3e-limit", type=int, default=100)
    ident.add_argument("--out", default=None)
    ident.add_argument("--format", choices=["json", "csv"], default="json")
    ident.add_argument("--no-timestamp", action="store_true")
    ident.set_defaults(func=cmd_identity)

    return parser


def _stdout_to_devnull() -> None:
    """Point the stdout file descriptor at devnull, so that flushing what is
    still buffered at interpreter exit cannot raise BrokenPipeError again (the
    recipe in the Python ``signal`` module docs)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # an in-memory stream has no descriptor to redirect
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


class _Interrupted(KeyboardInterrupt):
    """An interrupt that exits ``code``: raised where a stop signal arrives
    (:func:`_stop`), or for a pool worker's ``interrupted`` line, so that the
    run cleans up as after Ctrl-C."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _stop(signum: int, frame: object) -> None:
    raise _Interrupted(128 + signum)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    previous: dict[int, Any] = {}
    try:
        # only the main thread may set handlers; a library caller gets its own
        # back, and an ignored signal (nohup, trap '') stays ignored
        if threading.current_thread() is threading.main_thread():
            for sig in _STOP_SIGNALS:
                if signal.getsignal(sig) is not signal.SIG_IGN:
                    previous[sig] = signal.signal(sig, _stop)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except KeyboardInterrupt as exc:
        print("interrupted", file=sys.stderr)
        return getattr(exc, "code", EXIT_INTERRUPTED)
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CongruenceLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
