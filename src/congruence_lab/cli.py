"""Command-line front end.

Subcommands
-----------
    triangle   write one number triangle in the triangle text format
    sum        evaluate one filtered sum and print its value and p-adic order
    verify     sweep a parameter grid for one theorem and write a report
    identity   run identity/lemma check suites

Exit codes: 0 success, 1 violations or failed checks, 2 usage or parameter
error, an --out file or stdout that cannot be written, or an unexpected
error (its traceback follows the ``error:`` line), 3 capacity error (a
triangle row above the limit, or a run out of memory), 130 interrupted
(Ctrl-C), 141 stdout closed by its reader (broken pipe), 143 terminated
(SIGTERM), 129 hung up (SIGHUP).  SIGTERM and SIGHUP end a run as Ctrl-C
does: the same clean-up, the same ``interrupted`` line.  A signal ignored at
start (``nohup``, ``trap '' TERM``) stays ignored.  One rule (``_failure``)
gives a failed run's exit code and stderr text.  A run lifts the
interpreter's limit on int-to-text digits, so no exact sum is too long to
write.

Range flags accept "a..b" (inclusive), comma lists "x,y,z", or a mix of both;
residues also accept "all".  The --m axis of the Stirling sweeps additionally
accepts an n-coupled upper end, e.g. "1..n".  SC2 polynomials are given as
comma-separated coefficient lists, low to high: "--f 0,0,1" is x**2.

A sweep is evaluated a block (the tuples of a grid that share n) at a time,
through one plan per sweep, in chunks of at least ``JSON_CHUNK`` claims cut
at tuple boundaries and tallied at once (``verifier.iter_chunks``); with
--fail-fast the chunks stop right after the first VIOLATION, cutting its
tuple's records there.  Each tuple's records fill one template that holds
what they share (``_results_json``, and the CSV text of ``_results_csv``),
for the bytes ``json.dumps`` with indent=2 and sorted keys, and
``csv.DictWriter``, gave.
A ``verify`` run imports neither the identity suites nor ``csv`` (only the
identity and SC2 CSV reports do), and ``datetime`` only for a timestamp.
Every run streams its report through ``_write_report``, one write per chunk
(and its JSON separator) and the JSON summary last, so memory does not
depend on the grid size.  Every run is serial, in one process: ``--workers
N`` is accepted (N >= 1) for the scripts that pass it, and changes nothing.
Every grid value is checked before the first byte is written.  No flag is
dropped silently: ``_flag_values`` refuses a flag that the theorem, sum kind
or selected identity suites do not take, and the identity report's flags
without --out.  Every regular --out file is written under a temporary name
in its directory and renamed into place when complete, so an interrupted
run never leaves a truncated file; an interrupted run to stdout, a FIFO or
a device may leave a partial report there.  An existing directory at --out
is refused before any claim or identity check runs.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import io
import json
import os
import signal
import sys
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__, triangles, verifier
from ._suites import IDENTITY_IDS, NONNEGATIVE_OPTIONS, SUITE_OPTIONS
from .bounds import THEOREMS, TheoremId
from .errors import CapacityError, CongruenceLabError, ParameterError
from .exactmath import IntPolynomial, check_at_least, check_params, ord_p
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
from .verifier import GridSpec, GridSummary, Verdict

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
# of a write
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
    from datetime import datetime, timezone  # only a report with a timestamp needs it

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
    runs, so no work is wasted on a report that cannot be written.  A FIFO
    or a device at ``path`` is written in place: a rename would replace it.
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
        if target.exists() and not (target.is_file() or target.is_dir()):
            with open(target, "w", encoding="utf-8", newline="\n") as fh:
                yield fh
            return
        if not target.parent.exists():  # under a regular file, open says "Not a directory"
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


#: the default of a flag that must be given
_NEEDED = object()


def _flag_values(what: str, args: argparse.Namespace, table: dict[str, dict[str, Any]],
                 taken: dict[str, Any]) -> dict[str, Any]:
    """The value of each flag of ``table`` (a subcommand's entries, each
    mapping the flags it takes to their defaults) that ``what`` takes, the
    default from ``taken`` where it is not given.  A flag ``what`` does not
    take, and a missing flag whose default is ``_NEEDED``, are errors, so
    that no flag is silently dropped."""
    values: dict[str, Any] = {}
    for name in dict.fromkeys(name for flags in table.values() for name in flags):
        value = getattr(args, name)
        flag = "--" + name.replace("_", "-")
        if name not in taken:
            if value is not None:
                raise ParameterError(f"{what} does not take {flag}")
        elif value is None and taken[name] is _NEEDED:
            raise ParameterError(f"{what} needs {flag}")
        else:
            values[name] = taken[name] if value is None else value
    return values


def _flag_help(table: dict[str, dict[str, Any]], name: str) -> str:
    """Which entries of ``table`` take the flag ``name``, and its default in
    each, for the flag's help text."""
    groups: dict[str, list[str]] = {}
    for entry, taken in table.items():
        if name in taken:
            default = taken[name]
            if isinstance(default, tuple):  # a set of values, as the flag spells it
                default = ",".join(map(str, default))
            text = ("needed" if default is _NEEDED else "optional" if default is None
                    else f"default {default}")
            groups.setdefault(text, []).append(entry)
    return "; ".join(f"{', '.join(entries)}: {text}" for text, entries in groups.items())


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


#: Each sum, by its kind and --variant (a kind alone for "exact"): the flags
#: it takes besides --n and --r, with their defaults; the exponent e of its
#: class modulus p**e, or None for the modulus --d; and its kernel, called
#: with n, the class and the flag values (it looks its sum up when called),
#: which gives None where the sum is undefined.
_SUM_KINDS: dict[str, tuple[dict[str, Any], str | None, Callable[..., int | None]]] = {
    "fleck": ({"p": _NEEDED, "alpha": 1, "l": 0}, "alpha",
              lambda n, cls, v: fleck_sum(n, cls, v["l"])),
    # the sun claim's sum checks nothing, so n, alpha and l are checked here first
    "fleck --variant floor": ({"p": _NEEDED, "alpha": 1, "beta": _NEEDED, "l": 0}, "beta",
                              lambda n, cls, v: check_params(n=n, alpha=v["alpha"], l=v["l"])
                              or THEOREMS[TheoremId.SUN].sum(cls, n=n, **v)),
    "bpow": ({"p": _NEEDED, "alpha": 1, "a": 1}, "alpha",
             lambda n, cls, v: binom_power_sum(n, cls, v["a"])),
    "ewan": ({"p": _NEEDED, "alpha": 1, "l": 0}, "alpha",
             lambda n, cls, v: eulerian_wan_sum(n, cls, v["l"])),
    "epow": ({"p": _NEEDED, "alpha": 1, "a": 1}, "alpha",
             lambda n, cls, v: eulerian_power_sum(n, cls, v["a"])),
    "cdr": ({"p": None, "d": 1, "m": 1, "a": 1}, None,
            lambda n, cls, v: stirling_product_sum(n, v["m"], cls, v["a"])),
    "spoly": ({"p": None, "d": 1, "f": _NEEDED, "a": 1}, None,
              lambda n, cls, v: stirling_poly_sum(
                  n, IntPolynomial.from_coeff_string(v["f"]), cls, v["a"])),
}
_SUM_FLAGS = {entry: taken for entry, (taken, _, _) in _SUM_KINDS.items()}


def cmd_sum(args: argparse.Namespace) -> int:
    entry = args.kind if args.variant == "exact" else f"{args.kind} --variant {args.variant}"
    if entry not in _SUM_KINDS:
        raise ParameterError(f"sum {args.kind} does not take --variant {args.variant}")
    taken, exponent, kernel = _SUM_KINDS[entry]
    v = _flag_values(f"sum {entry}", args, _SUM_FLAGS, taken)
    p = v["p"]
    if p is not None:  # before the modulus, and before the sum whose order is printed
        check_params(p=p)
    if exponent:  # before p**exponent is built
        check_params(**{exponent: v[exponent]})
    value = kernel(args.n, ResidueClass(p ** v[exponent] if exponent else v["d"], args.r), v)
    if value is None:  # the floor sum, where beta > alpha
        raise ParameterError(f"need alpha >= beta, got alpha={v['alpha']}, beta={v['beta']}")
    print(value if p is None else f"{value} / ord_{p} = {ord_p(value, p)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


#: The flags that give a parameter's axis that each theorem takes (besides
#: --n and --p), and the value each gets when it is not given.
_VERIFY_FLAGS = {
    t.value: {name: default for name, default in (
        ("alpha", "1"), ("beta", _NEEDED), ("l", "0"), ("m", "1..n"), ("a", "1"), ("f", _NEEDED),
    ) if name in THEOREMS[t].params} for t in TheoremId
}


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
def _json_layout(theorem: TheoremId, keys: tuple[str, ...]) -> tuple[str, str]:
    """A record's text from "params" (``keys``, "d" and "r", sorted) up to
    the value of "r", which sorts last, as a ``str.format`` template of the
    values of ``keys`` and d; and its text from after the sum up to the
    verdict.  The cache holds one entry per theorem (without it
    ``sc3-sweep`` ran 1.20x slower)."""
    fields = {key: f"{{{i}}}" for i, key in enumerate((*keys, "d"))}
    lines = "".join(f'        "{key}": {fields[key]},\n' for key in sorted(fields))
    return (f',\n      "params": {{{{\n{lines}        "r": ',
            f',\n      "theorem": "{theorem._value_}",\n      "verdict": "')


def _sc2_json(sc2: verifier.Sc2Comparison) -> str:
    lhs = "null" if sc2.lhs is None else f'"{sc2.lhs}"'
    satisfied = "true" if sc2.satisfied else "false"
    return (f'      "sc2": {{\n        "l": {sc2.l},\n        "lhs": {lhs},\n'
            f'        "rhs": "{sc2.rhs}",\n        "satisfied": {satisfied}\n      }},\n')


def _results_json(results: list[verifier.TupleResult]) -> str:
    """``_json_text`` of the ``to_json_dict()`` of the records of
    ``verifier.iter_chunks`` results, joined as in the report's records
    list, from one template per tuple, with its params and bound, filled
    with each residue's r, sum, order, margin and verdict.  (``_value_`` is
    an enum member's value without the ``value`` descriptor call.)"""
    texts = []
    for theorem, params, d, bound, rs, totals, orders, verdicts, margins, sc2s in results:
        middle, verdict = _json_layout(theorem, tuple(params))
        if "f" in params:  # SC2's polynomial, as its escaped coefficient string
            params = {**params, "f": encode_basestring_ascii(params["f"].coeff_string())}
        middle = middle.format(*params.values(), d)
        if theorem is TheoremId.SC2:
            bound = '"sc2"'
        elif bound is None:
            bound = "null"
        start = f'    {{\n      "bound": {bound},\n      "margin": '
        for r, total, order, kind, margin, sc2 in zip(rs, totals, orders, verdicts, margins, sc2s):
            if order is None:
                order = "null"
            elif order == "inf":
                order = '"inf"'
            total = "null" if total is None else f'"{total}"'
            texts.append(
                f'{start}{"null" if margin is None else margin},\n      "ord": {order}{middle}{r}'
                f'\n      }},\n{"" if sc2 is None else _sc2_json(sc2)}      "sum": {total}'
                f'{verdict}{kind._value_}"\n    }}')
    return ",\n".join(texts)


def _csv_field(text: str) -> str:
    """``text`` as one field of a row that ``csv.writer`` (QUOTE_MINIMAL,
    line terminator "\n") writes: cut from a row with an empty second field,
    since a row of an empty field alone is quoted."""
    import csv  # only an SC2 CSV report needs it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, None])
    return buf.getvalue()[:-2]


def _results_csv(results: list[verifier.TupleResult]) -> str:
    """The CSV rows of the records of ``verifier.iter_chunks`` results, in
    ``CSV_COLUMNS`` order, each ended by a line feed: the bytes that
    ``csv.writer`` writes, with the columns before "r", "f" and the bound
    formatted once for each tuple.  None is an empty field; only SC2's
    coefficient string ``f`` can need quotes."""
    texts = []
    for theorem, params, d, bound, rs, totals, orders, verdicts, margins, sc2s in results:
        head = "".join(f"{'' if value is None else value},"
                       for value in (theorem._value_, *map(params.get, CSV_COLUMNS[1:8]), d))
        f = params.get("f")
        f = "" if f is None else _csv_field(f.coeff_string())
        if theorem is TheoremId.SC2:
            bound = "sc2"
        elif bound is None:
            bound = ""
        for r, total, order, kind, margin, sc2 in zip(rs, totals, orders, verdicts, margins, sc2s):
            texts.append(
                f"{head}{r},{f},{'' if total is None else total},"
                f"{'' if order is None else order},{bound},{kind._value_},"
                f"{'' if margin is None else margin},"
                + (",,,\n" if sc2 is None else
                   f"{sc2.l},{'' if sc2.lhs is None else sc2.lhs},{sc2.rhs},{sc2.satisfied}\n"))
    return "".join(texts)


def _write_report(
    out: TextIO, run: dict[str, Any], fmt: str, chunks: Iterable[tuple[GridSummary, str]]
) -> GridSummary:
    """Write the report whose records are the chunks' texts, in order, to
    ``out``, one write per chunk (and one for its JSON separator), and
    return the merge of the chunks' summaries once they are written.  A
    chunk (a :func:`_rendered_chunks` item) is its summary and its
    :func:`_results_json` text or CSV rows.  Sorted keys put the JSON
    "records" first, so the run and the summary follow the last chunk."""
    summary = GridSummary()
    if fmt == "csv":
        out.write(",".join(CSV_COLUMNS) + "\n")
    started = False
    for part, text in chunks:
        summary.merge(part)
        if fmt == "json":  # a write of its own, so that the chunk is not copied
            out.write(",\n" if started else _RECORDS_OPEN + "\n")
        out.write(text)
        started = True
    if fmt == "json":
        # the report with no records, from the "]" that closes them on
        rest = _json_text({"records": [], "run": run, "summary": summary.to_json_dict()})
        out.write(("\n  " if started else _RECORDS_OPEN) + rest[len(_RECORDS_OPEN):])
    return summary


def _rendered_chunks(
    grids: list[GridSpec], fmt: str, probe_inapplicable: bool, fail_fast: bool
) -> Iterator[tuple[GridSummary, str]]:
    """The summary and text of each chunk of ``verifier.iter_chunks``, in
    chunks of at least ``JSON_CHUNK`` claims, as :func:`_write_report`
    takes them."""
    render = _results_json if fmt == "json" else _results_csv
    for summary, results in verifier.iter_chunks(grids, JSON_CHUNK, probe_inapplicable,
                                                 fail_fast):
        yield summary, render(results)


def cmd_verify(args: argparse.Namespace) -> int:
    check_at_least("--workers", args.workers, 1)
    theorem = TheoremId(args.theorem)
    flags = _flag_values(theorem.value, args, _VERIFY_FLAGS, _VERIFY_FLAGS[theorem.value])
    grids = _build_grids(theorem, args, flags)
    verifier.ensure_tables(grids)  # before the first byte

    run: dict[str, Any] = {
        "command": "verify",
        "theorem": theorem.value,
        "grid": {"n": args.n, "p": args.p, "r": args.r, **flags},
        "tool_version": __version__,
    }
    if not args.no_timestamp:
        run["timestamp"] = _now_stamp()

    with _output(args.out) as out:
        summary = _write_report(out, run, args.format, _rendered_chunks(
            grids, args.format, args.probe_inapplicable, args.fail_fast))

    if args.out:
        counts = summary.verdicts
        brief = ", ".join(f"{name}={counts[name]}" for name in sorted(counts) if counts[name])
        print(f"{theorem.value}: {summary.total} claims ({brief or 'none'})")
    return EXIT_VIOLATION if summary.verdicts[Verdict.VIOLATION.value] else EXIT_OK


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------


#: each identity flag: the suite option it gives, and how its value is read
#: (only the top of the --n range matters)
_IDENTITY_OPTIONS: dict[str, tuple[str, Callable[[Any], Any]]] = {
    "n": ("n_max", lambda text: max(parse_int_set(text))), "n_max": ("n_max", int),
    "l_max": ("l_max", int), "p": ("primes", parse_int_set), "alpha": ("alphas", parse_int_set),
    "count": ("count", int), "seed": ("seed", int), "scl3e_limit": ("scl3e_limit", int),
}

#: the identity flags each suite reads, with the suite's defaults
_IDENTITY_FLAGS = {
    identity: {flag: defaults[option] for flag, (option, _) in _IDENTITY_OPTIONS.items()
               if option in defaults}
    for identity, defaults in SUITE_OPTIONS.items()
}

#: the identity report's flags, with their defaults: taken only with --out
_REPORT_FLAGS = {"with --out": {"format": "json", "no_timestamp": None}}


def _identity_report(report: dict[str, Any], ids: Sequence[str], aggregates: list) -> str:
    run: dict[str, Any] = {"command": "identity", "ids": list(ids), "tool_version": __version__}
    if not report["no_timestamp"]:
        run["timestamp"] = _now_stamp()
    if report["format"] == "json":
        return _json_text({"run": run, "checks": aggregates})
    import csv  # only this report needs it

    buf = io.StringIO()
    writer = csv.DictWriter(buf, ("identity", "total", "passed", "failed", "first_failure"),
                            lineterminator="\n")
    writer.writeheader()
    for agg in aggregates:
        failure = agg["first_failure"]
        writer.writerow({**agg, "first_failure":
                         "" if failure is None else json.dumps(failure, sort_keys=True)})
    return buf.getvalue()


def cmd_identity(args: argparse.Namespace) -> int:
    from . import identities  # the suites load only for this subcommand

    ids = IDENTITY_IDS if args.identity == "all" else (args.identity.upper(),)
    # a flag is refused unless a selected suite reads it; each suite gets those it reads
    read = {flag: None for identity in ids for flag in _IDENTITY_FLAGS[identity]}
    given = _flag_values(args.identity.upper(), args, _IDENTITY_FLAGS, read)
    options = {}
    for flag, value in given.items():
        if value is not None:
            option, parse = _IDENTITY_OPTIONS[flag]
            options[option] = value = parse(value)
            if option in NONNEGATIVE_OPTIONS:  # the suite refuses it too, under its option's name
                check_at_least(f"--{flag.replace('_', '-')}", value, 0)
    report = _flag_values("identity without --out", args, _REPORT_FLAGS,
                          _REPORT_FLAGS["with --out"] if args.out else {})

    # the --out file is opened first, so an unwritable path fails before any suite runs;
    # then every suite checks its parameters and builds its triangle rows before any check
    with _output(args.out) if args.out else contextlib.nullcontext() as out:
        suites = [identities.suite(identity_id, **{
            option: value for option, value in options.items()
            if option in SUITE_OPTIONS[identity_id]}) for identity_id in ids]
        aggregates = []
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
            aggregates.append({"identity": identity_id, "total": total, "passed": passed,
                               "failed": failed, "first_failure": first_failure})
            status = "all passed" if failed == 0 else f"{failed} FAILED"
            print(f"{identity_id}: {total} checks, {status}")

        if out is not None:
            out.write(_identity_report(report, ids, aggregates))
    return EXIT_VIOLATION if any(agg["failed"] for agg in aggregates) else EXIT_OK


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
    sm.add_argument("kind", choices=list(dict.fromkeys(e.split()[0] for e in _SUM_KINDS)))
    sm.add_argument("--n", type=int, required=True)
    sm.add_argument("--r", type=int, default=0)
    sm.add_argument("--variant", choices=["exact", "floor"], default="exact")
    # the flags each kind takes, and their defaults, are in _SUM_KINDS
    for name in ("p", "alpha", "beta", "l", "a", "m"):
        sm.add_argument(f"--{name}", type=int, help=_flag_help(_SUM_FLAGS, name))
    sm.add_argument("--d", type=int, help="class modulus; " + _flag_help(_SUM_FLAGS, "d"))
    sm.add_argument("--f", help="polynomial coefficients, low to high; "
                    + _flag_help(_SUM_FLAGS, "f"))
    sm.set_defaults(func=cmd_sum)

    ver = sub.add_parser("verify", help="sweep a parameter grid for one theorem")
    ver.add_argument("theorem", choices=[t.value for t in TheoremId])
    ver.add_argument("--n", required=True, help='n range, e.g. "1..80"')
    ver.add_argument("--p", required=True, help='prime set, e.g. "2,3,5"')
    # the theorems that take each axis flag, and its default, are in _VERIFY_FLAGS
    for name in ("alpha", "beta", "l", "a"):
        ver.add_argument(f"--{name}", help=_flag_help(_VERIFY_FLAGS, name))
    ver.add_argument("--m", help='m range; "1..n" couples the top to n; '
                     + _flag_help(_VERIFY_FLAGS, "m"))
    ver.add_argument("--r", default="all", help='residues: "all" or a range/list')
    ver.add_argument("--f", action="append", help="SC2 polynomial (repeatable); "
                     + _flag_help(_VERIFY_FLAGS, "f"))
    ver.add_argument("--out", default=None, help="report file (default: stdout)")
    ver.add_argument("--format", choices=["json", "csv"], default="json")
    ver.add_argument("--workers", type=int, default=1,
                     help="accepted (at least 1); every run is serial")
    ver.add_argument("--no-timestamp", action="store_true")
    ver.add_argument("--probe-inapplicable", action="store_true",
                     help="compute sums and orders even for NOT-APPLICABLE tuples")
    ver.add_argument("--fail-fast", action="store_true")
    ver.set_defaults(func=cmd_verify)

    ident = sub.add_parser("identity", help="run identity check suites")
    ident.add_argument("identity", type=str.lower,
                       choices=[i.lower() for i in IDENTITY_IDS] + ["all"])
    # the suites that read each flag, and its default, are in SUITE_OPTIONS
    top = ident.add_mutually_exclusive_group()
    top.add_argument("--n", help='n range; only the top matters, e.g. "1..12"; '
                     + _flag_help(_IDENTITY_FLAGS, "n"))
    top.add_argument("--n-max", type=int, help=_flag_help(_IDENTITY_FLAGS, "n_max"))
    for name in ("p", "alpha"):
        ident.add_argument(f"--{name}", help=_flag_help(_IDENTITY_FLAGS, name))
    for name in ("l_max", "count", "seed", "scl3e_limit"):
        ident.add_argument("--" + name.replace("_", "-"), type=int,
                           help=_flag_help(_IDENTITY_FLAGS, name))
    ident.add_argument("--out", default=None)
    ident.add_argument("--format", choices=["json", "csv"],
                       help=_flag_help(_REPORT_FLAGS, "format"))
    ident.add_argument("--no-timestamp", action="store_true", default=None,
                       help="leave the run timestamp out of the report (with --out)")
    ident.set_defaults(func=cmd_identity)

    return parser


def _stdout_to_devnull() -> None:
    """Point the stdout file descriptor at devnull, so that flushing what is
    still buffered at interpreter exit cannot raise the write's error again
    (the recipe for BrokenPipeError in the Python ``signal`` module docs)."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # an in-memory stream has no descriptor to redirect
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


class _Interrupted(KeyboardInterrupt):
    """An interrupt that exits ``code``, raised where a stop signal arrives
    (:func:`_stop`), so that the run cleans up as after Ctrl-C."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _stop(signum: int, frame: object) -> None:
    raise _Interrupted(128 + signum)


def _failure(exc: BaseException) -> tuple[int, str]:
    """The exit code and stderr text of a run that ``exc`` ended:
    "interrupted" and 130, or 128 + the stop signal; one ``error:`` line and
    3 for a capacity error or a run out of memory, and 2 for any other error
    of the package; and 2 for an unexpected exception, whose type and
    message make the ``error:`` line, followed by its traceback."""
    if isinstance(exc, KeyboardInterrupt):
        return getattr(exc, "code", EXIT_INTERRUPTED), "interrupted\n"
    if isinstance(exc, MemoryError):  # e.g. verify weisman --p 2 --alpha 30: 2**30 residues a tuple
        return EXIT_CAPACITY, "error: out of memory\n"
    if isinstance(exc, CongruenceLabError):
        return EXIT_CAPACITY if isinstance(exc, CapacityError) else EXIT_USAGE, f"error: {exc}\n"
    import traceback  # only an unexpected exception needs it

    return EXIT_USAGE, f"error: {type(exc).__name__}: {exc}\n" + "".join(
        traceback.format_exception(exc))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    previous: dict[int, Any] = {}
    # no exact sum is too long to write: the run lifts the limit on int-to-text
    # digits (Python 3.10.7 and later), and a library caller gets its own back
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if digits is not None:
            sys.set_int_max_str_digits(0)
        # only the main thread may set handlers; a library caller gets its own
        # back, and an ignored signal (nohup, trap '') stays ignored
        if threading.current_thread() is threading.main_thread():
            for sig in _STOP_SIGNALS:
                if signal.getsignal(sig) is not signal.SIG_IGN:
                    previous[sig] = signal.signal(sig, _stop)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        _stdout_to_devnull()
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # _output converts its own, so only stdout's is left
        _stdout_to_devnull()
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyboardInterrupt, Exception) as exc:
        code, text = _failure(exc)
        sys.stderr.write(text)
        return code
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
