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
(broken pipe).

Range flags accept "a..b" (inclusive), comma lists "x,y,z", or a mix of both;
residues also accept "all".  The --m axis of the Stirling sweeps additionally
accepts an n-coupled upper end, e.g. "1..n".  SC2 polynomials are given as
comma-separated coefficient lists, low to high: "--f 0,0,1" is x**2.

Claims are evaluated serially, one parameter tuple (all its residue
classes) at a time through ``verifier.check_tuple``, or one claim at a time
through ``verifier.check_claim`` with --fail-fast; --workers must be at
least 1 and is otherwise ignored.  `verify` streams its report: records are
written as they are evaluated (JSON in chunks of ``JSON_CHUNK``, CSV row by
row) and the JSON summary last, so memory does not depend on the grid size.
Each record is rendered from a fixed layout (``_record_json``, one
``csv.writer`` row from ``_record_csv``) that gives the bytes ``json.dumps``
with indent=2 and sorted keys, and ``csv.DictWriter``, gave.  Every grid
value is checked, and a grid flag the theorem does not take is refused,
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
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence, TextIO

from . import __version__, identities, triangles, verifier
from .bounds import THEOREMS, TheoremId
from .errors import CapacityError, CongruenceLabError, ParameterError
from .exactmath import IntPolynomial, ord_p
from .filtered_sums import (
    ResidueClass,
    Variant,
    binom_power_sum,
    eulerian_power_sum,
    eulerian_wan_sum,
    fleck_sum,
    stirling_poly_sum,
    stirling_product_sum,
)
from .triangles import Family
from .verifier import ClaimRecord, GridSpec, GridSummary, Verdict

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

# JSON records rendered per write
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
    if kind == "fleck":
        variant = Variant(args.variant)
        modulus = args.p ** (args.beta if variant is Variant.FLOOR else args.alpha)
        cls = ResidueClass(modulus, args.r)
        value = fleck_sum(args.n, args.p, args.alpha, cls, args.l, variant, args.beta)
    elif kind == "bpow":
        cls = ResidueClass(args.p**args.alpha, args.r)
        value = binom_power_sum(args.n, args.p, args.alpha, cls, args.a)
    elif kind == "ewan":
        cls = ResidueClass(args.p**args.alpha, args.r)
        value = eulerian_wan_sum(args.n, args.p, args.alpha, cls, args.l)
    elif kind == "epow":
        cls = ResidueClass(args.p**args.alpha, args.r)
        value = eulerian_power_sum(args.n, args.p, args.alpha, cls, args.a)
    elif kind == "cdr":
        cls = ResidueClass(args.d, args.r)
        value = stirling_product_sum(args.n, args.m, cls, args.a)
    elif kind == "spoly":
        if args.f is None:
            raise ParameterError("spoly needs --f")
        cls = ResidueClass(args.d, args.r)
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
def _params_layout(keys: tuple[str, ...]) -> str:
    """The ``str.format`` template of a record's params object with these
    keys: sorted, at report indentation.  A theorem's records share one key
    set, so the cache holds at most one entry per theorem."""
    if not keys:
        return "{{}}"
    lines = ",\n".join(f'        "{key}": {{{key}}}' for key in sorted(keys))
    return "{{\n" + lines + "\n      }}"


def _record_json(rec: ClaimRecord) -> str:
    """``_json_text`` of ``rec.to_json_dict()`` as one item of the report's
    records list: the same bytes, from a fixed layout.  Params are integers
    except SC2's coefficient string ``f``.  (``_value_`` is an enum member's
    value without the ``value`` property's descriptor call.)"""
    params = rec.params
    if "f" in params:
        params = {**params, "f": encode_basestring_ascii(params["f"])}
    if rec.theorem is TheoremId.SC2:
        bound = '"sc2"'
    else:
        bound = "null" if rec.bound is None else rec.bound
    order = rec.order
    if order is not None:
        order = '"inf"' if order.is_infinite else order.value
    total = "null" if rec.total is None else f'"{rec.total}"'
    sc2 = ""
    if rec.sc2 is not None:
        lhs = "null" if rec.sc2.lhs is None else f'"{rec.sc2.lhs}"'
        satisfied = "true" if rec.sc2.satisfied else "false"
        sc2 = (f'      "sc2": {{\n        "l": {rec.sc2.l},\n        "lhs": {lhs},\n'
               f'        "rhs": "{rec.sc2.rhs}",\n        "satisfied": {satisfied}\n      }},\n')
    return (
        f'    {{\n      "bound": {bound},\n'
        f'      "margin": {"null" if rec.margin is None else rec.margin},\n'
        f'      "ord": {"null" if order is None else order},\n'
        f'      "params": {_params_layout(tuple(params)).format_map(params)},\n{sc2}'
        f'      "sum": {total},\n'
        f'      "theorem": "{rec.theorem._value_}",\n'
        f'      "verdict": "{rec.verdict._value_}"\n    }}'
    )


def _record_csv(rec: ClaimRecord) -> list[Any]:
    """The CSV row of ``rec``, in ``CSV_COLUMNS`` order (csv writes None as
    an empty field)."""
    order = rec.order
    if order is not None:
        order = "inf" if order.is_infinite else order.value
    sc2 = rec.sc2
    return [
        rec.theorem._value_, *map(rec.params.get, CSV_COLUMNS[1:11]), rec.total, order,
        "sc2" if rec.theorem is TheoremId.SC2 else rec.bound, rec.verdict._value_, rec.margin,
        *((None,) * 4 if sc2 is None else (sc2.l, sc2.lhs, sc2.rhs, sc2.satisfied)),
    ]


def _tallied(
    records: Iterable[ClaimRecord], summary: verifier.RunningSummary
) -> Iterator[ClaimRecord]:
    """The records, each added to ``summary`` as it passes."""
    for rec in records:
        summary.add(rec)
        yield rec


def render_json_report(
    out: TextIO, run: dict[str, Any], records: Iterable[ClaimRecord]
) -> GridSummary:
    """Write ``_json_text({"run": run, "records": ..., "summary": ...})`` to
    ``out`` as the records arrive, and return the summary.

    Sorted keys put "records" first, so each record is rendered by
    :func:`_record_json` as it arrives and written ``JSON_CHUNK`` at a time;
    the run and the summary follow the last record.  Nothing is written
    before the first chunk is complete.
    """
    summary = verifier.RunningSummary()
    texts = map(_record_json, _tallied(records, summary))
    started = False
    while chunk := list(itertools.islice(texts, JSON_CHUNK)):
        out.write((",\n" if started else _RECORDS_OPEN + "\n") + ",\n".join(chunk))
        started = True
    result = summary.summary()
    # the report with no records, from the "]" that closes them on
    rest = _json_text({"records": [], "run": run, "summary": result.to_json_dict()})
    out.write(("\n  " if started else _RECORDS_OPEN) + rest[len(_RECORDS_OPEN):])
    return result


def render_csv_report(out: TextIO, records: Iterable[ClaimRecord]) -> GridSummary:
    """Write the records to ``out`` as CSV rows as they arrive, and return
    their summary."""
    summary = verifier.RunningSummary()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(_record_csv, _tallied(records, summary)))
    return summary.summary()


def cmd_verify(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ParameterError(f"--workers must be >= 1, got {args.workers}")
    theorem = TheoremId(args.theorem)
    flags = _grid_flags(theorem, args)
    grids = _build_grids(theorem, args, flags)
    records = verifier.iter_records(
        grids,
        probe_inapplicable=args.probe_inapplicable,
        fail_fast=args.fail_fast,
    )

    run: dict[str, Any] = {
        "command": "verify",
        "theorem": theorem.value,
        "grid": {"n": args.n, "p": args.p, "r": args.r, **flags},
        "tool_version": __version__,
    }
    if not args.no_timestamp:
        run["timestamp"] = _now_stamp()

    with _output(args.out) as out:
        if args.format == "json":
            summary = render_json_report(out, run, records)
        else:
            summary = render_csv_report(out, records)

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

    # the --out file is opened first, so an unwritable path fails before any suite runs
    with _output(args.out) if args.out else contextlib.nullcontext() as out:
        aggregates = []
        failed_total = 0
        for identity_id in ids:
            total = passed = 0
            first_failure: dict[str, Any] | None = None
            for result in identities.suite(identity_id, **kwargs):
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
    sm.set_defaults(func=_cmd_sum_checked)

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
                     help="at least 1, otherwise ignored: claims are evaluated serially")
    ver.add_argument("--no-timestamp", action="store_true")
    ver.add_argument("--probe-inapplicable", action="store_true",
                     help="compute sums and orders even for NOT-APPLICABLE tuples")
    ver.add_argument("--fail-fast", action="store_true")
    ver.set_defaults(func=cmd_verify)

    ident = sub.add_parser("identity", help="run identity check suites")
    ident.add_argument("identity", type=str.lower,
                       choices=[i.lower() for i in identities.IDENTITY_IDS] + ["all"])
    ident.add_argument("--n", default=None, help='n range; only the top matters, e.g. "1..12"')
    ident.add_argument("--n-max", type=int, default=None)
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


def _cmd_sum_checked(args: argparse.Namespace) -> int:
    if args.kind in ("fleck", "bpow", "ewan", "epow") and args.p is None:
        raise ParameterError(f"sum {args.kind} needs --p")
    if args.kind == "fleck" and args.variant == "floor" and args.beta is None:
        raise ParameterError("floor variant needs --beta")
    return cmd_sum(args)


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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CongruenceLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
