"""Claim evaluation, grid sweeps, verdict classification and summaries.

A claim is one theorem id plus a complete parameter tuple.  Its verdict:

    NOT-APPLICABLE       the theorem's hypotheses fail for the tuple
    HOLDS-VACUOUS        the filtered sum is zero (infinite order)
    HOLDS-TRIVIAL-BOUND  the bound is negative, so any nonzero sum satisfies it
    TIGHT                nonzero sum with order exactly equal to the bound
    HOLDS                nonzero sum with order strictly above the bound
    VIOLATION            nonzero sum with order below the bound

What a theorem means (its parameters, class modulus, sum, bound, hypotheses
and triangle tables) is looked up in :data:`bounds.THEOREMS`; this module
holds no per-theorem code except SC2's exact comparison and its record
fields.

Two paths evaluate claims.  :func:`check_claim` evaluates one claim; it is
the reference evaluation and the library call.  :func:`evaluate_tuple`
evaluates all residue classes of one parameter tuple into one
:class:`TupleResult`, with one hypotheses check and one bound, and with one
pass for all d sums where the theorem has a ``sums``; its records
(:meth:`TupleResult.records`) are the same as one :func:`check_claim` per
residue.  Both check a claim's parameters once, in :func:`_checked_theorem`,
before anything reads them, and both call the ``hypotheses`` and ``bound`` of
the theorem's :data:`THEOREMS` entry, so that a patched entry reaches either
path; ``evaluate_tuple`` takes orders of the checked ``p`` with
``ord_p_nonzero``.

Grid sweeps evaluate every tuple of a finite parameter product serially, in
sorted order, so the record sequence (and hence any rendered report) is
deterministic.  :func:`iter_chunks` drives every sweep: it cuts the tuple
results into numbered chunks and evaluates only every ``step``-th chunk, so
that several processes can share a sweep (``verify --workers``), and with
``fail_fast`` it stops right after the first VIOLATION.  It holds one chunk
at a time and :class:`RunningSummary` tallies each tuple result as it
passes, so a sweep's memory does not depend on its size; :func:`run_grids`
collects the records into a list.  The summaries of the chunks merge in
chunk order (:meth:`RunningSummary.merge`) into the sweep's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping, Sequence

from . import triangles
from .bounds import (
    PARAM_MINIMUM,
    THEOREMS,
    Theorem,
    TheoremId,
    sc2_comparison,
    sc2_constants,
)
from .errors import ParameterError
from .exactmath import INFINITY, IntPolynomial, PAdicOrder, check_prime, ord_p, ord_p_nonzero
from .filtered_sums import ResidueClass
from .triangles import Family

__all__ = [
    "AXIS_FIELDS",
    "ClaimRecord",
    "GridResult",
    "GridSpec",
    "GridSummary",
    "RunningSummary",
    "Sc2Comparison",
    "TupleResult",
    "Verdict",
    "check_claim",
    "count_chunks",
    "ensure_tables",
    "evaluate_tuple",
    "grid_params",
    "iter_chunks",
    "required_tables",
    "run_grid",
    "run_grids",
]


class Verdict(str, Enum):
    HOLDS = "HOLDS"
    HOLDS_VACUOUS = "HOLDS-VACUOUS"
    HOLDS_TRIVIAL_BOUND = "HOLDS-TRIVIAL-BOUND"
    TIGHT = "TIGHT"
    VIOLATION = "VIOLATION"
    NOT_APPLICABLE = "NOT-APPLICABLE"


def _coerce_theorem(theorem: TheoremId | str) -> TheoremId:
    try:
        return TheoremId(theorem)
    except ValueError as exc:
        raise ParameterError(f"unknown theorem id {theorem!r}") from exc


def _checked_theorem(
    theorem: TheoremId | str, params: Mapping[str, Any], extra: tuple[str, ...] = ()
) -> tuple[TheoremId, Theorem, dict[str, Any]]:
    """The theorem id, its wiring and the parameters it takes, in canonical
    order, once ``params`` holds those and the names in ``extra``, ``f``
    (where the theorem takes it) is an :class:`IntPolynomial`, ``p`` is prime
    and no parameter is below its :data:`PARAM_MINIMUM`, with the messages of
    :class:`GridSpec`.  A member is taken as it is; a string goes through
    :func:`_coerce_theorem`."""
    if not isinstance(theorem, TheoremId):
        theorem = _coerce_theorem(theorem)
    wiring = THEOREMS[theorem]
    missing = [name for name in wiring.params + extra if name not in params]
    if missing:
        raise ParameterError(f"{theorem.value} needs parameters {', '.join(missing)}")
    params = {name: params[name] for name in wiring.params}
    if "f" in params and not isinstance(params["f"], IntPolynomial):
        raise ParameterError("parameter f must be an IntPolynomial")
    check_prime(params["p"])
    for name, low in PARAM_MINIMUM.items():
        if name in params and params[name] < low:
            raise ParameterError(f"{name} must be >= {low}, got {params[name]}")
    return theorem, wiring, params


@dataclass(frozen=True)
class Sc2Comparison:
    """Exact comparison operands replacing the integer margin for SC2 records."""

    l: int
    lhs: int | None  # C(n,l) * p**ord(sum); None when the sum is zero
    rhs: int  # p**ord_p(n!)
    satisfied: bool


@dataclass(frozen=True)
class ClaimRecord:
    """One verification outcome."""

    theorem: TheoremId
    params: dict[str, Any]
    total: int | None
    order: PAdicOrder | None
    bound: int | None
    verdict: Verdict
    margin: int | None
    sc2: Sc2Comparison | None = None

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-safe rendering: big integers as decimal strings."""
        out: dict[str, Any] = {
            "theorem": self.theorem.value,
            "params": dict(self.params),
            "sum": None if self.total is None else str(self.total),
            "ord": None
            if self.order is None
            else ("inf" if self.order.is_infinite else self.order.value),
            "bound": "sc2" if self.theorem is TheoremId.SC2 else self.bound,
            "verdict": self.verdict.value,
            "margin": self.margin,
        }
        if self.sc2 is not None:
            out["sc2"] = {
                "l": self.sc2.l,
                "lhs": None if self.sc2.lhs is None else str(self.sc2.lhs),
                "rhs": str(self.sc2.rhs),
                "satisfied": self.sc2.satisfied,
            }
        return out


def _record_params(params: dict[str, Any], cls: ResidueClass) -> dict[str, Any]:
    """A record's params: the tuple's (in canonical order), d and r, and f
    last, as its coefficient string."""
    out = {**params, "d": cls.modulus, "r": cls.residue}
    if "f" in out:
        out["f"] = out.pop("f").coeff_string()
    return out


def check_claim(
    theorem: TheoremId | str,
    params: Mapping[str, Any],
    probe_inapplicable: bool = False,
) -> ClaimRecord:
    """Evaluate one claim: the filtered sum, its p-adic order, the bound, and
    the verdict.

    ``params`` must hold every required parameter of the theorem plus the
    residue ``r``.  Tuples outside the theorem's hypotheses come back as
    NOT-APPLICABLE; with ``probe_inapplicable`` the sum, order and raw bound
    are still computed for inspection (the verdict stays NOT-APPLICABLE).  A
    SUN tuple with beta > alpha has no FLOOR sum, so it gets only the bound.
    """
    theorem, wiring, checked = _checked_theorem(theorem, params, ("r",))
    cls = ResidueClass(wiring.modulus(**checked), params["r"])
    params = checked
    record_params = _record_params(params, cls)

    if not (wiring.hypotheses is None or wiring.hypotheses(**params)):
        total = order = bound = None
        if probe_inapplicable:
            total = wiring.sum(cls, **params)
            if total is not None:
                order = ord_p(total, params["p"])
            if wiring.bound is not None:
                bound = wiring.bound(**params)
        return ClaimRecord(
            theorem, record_params, total, order, bound, Verdict.NOT_APPLICABLE, None
        )

    total = wiring.sum(cls, **params)

    if wiring.bound is None:  # SC2: decided by the exact integer comparison
        l, lhs, rhs, satisfied = sc2_comparison(
            params["n"], params["p"], params["f"], total
        )
        comparison = Sc2Comparison(l, lhs, rhs, satisfied)
        if total == 0:
            verdict = Verdict.HOLDS_VACUOUS
            order: PAdicOrder | None = INFINITY
        else:
            verdict = Verdict.HOLDS if satisfied else Verdict.VIOLATION
            order = ord_p(total, params["p"])
        return ClaimRecord(theorem, record_params, total, order, None, verdict, None, comparison)

    bound = wiring.bound(**params)
    if total == 0:
        return ClaimRecord(
            theorem, record_params, total, INFINITY, bound, Verdict.HOLDS_VACUOUS, None
        )
    order = ord_p(total, params["p"])
    margin = order.value - bound
    if bound < 0:
        verdict = Verdict.HOLDS_TRIVIAL_BOUND
    elif order.value == bound:
        verdict = Verdict.TIGHT
    elif order.value > bound:
        verdict = Verdict.HOLDS
    else:
        verdict = Verdict.VIOLATION
    return ClaimRecord(theorem, record_params, total, order, bound, verdict, margin)


def _residues(residues: str | Iterable[int], d: int) -> range | list[int]:
    """Every residue modulo d ("all"), or the given ones reduced modulo d,
    sorted and deduplicated."""
    return range(d) if residues == "all" else sorted({r % d for r in residues})


@dataclass(slots=True)
class TupleResult:
    """The records of one parameter tuple: what they share, and a column per
    field that differs, in residue order.  The record of ``residues[i]`` has
    the params ``{**params, "r": residues[i]}``; ``orders`` are as a report
    writes them: an int, "inf" for a zero sum, None without a sum."""

    theorem: TheoremId
    params: dict[str, Any]
    bound: int | None
    residues: Sequence[int | None]
    totals: Sequence[int | None]
    orders: Sequence[int | str | None]
    verdicts: Sequence[Verdict]
    margins: Sequence[int | None]
    sc2: Sequence[Sc2Comparison | None]

    def head(self, count: int) -> "TupleResult":
        """The result of the first ``count`` residues."""
        return TupleResult(self.theorem, self.params, self.bound, self.residues[:count],
                           self.totals[:count], self.orders[:count], self.verdicts[:count],
                           self.margins[:count], self.sc2[:count])

    def records(self) -> list[ClaimRecord]:
        return [
            ClaimRecord(self.theorem, {**self.params, "r": r}, total,
                        None if order is None else INFINITY if order == "inf"
                        else PAdicOrder(order),
                        self.bound, verdict, margin, comparison)
            for r, total, order, verdict, margin, comparison in zip(
                self.residues, self.totals, self.orders, self.verdicts, self.margins,
                self.sc2)
        ]


def evaluate_tuple(
    theorem: TheoremId | str,
    params: Mapping[str, Any],
    residues: str | Iterable[int] = "all",
    probe_inapplicable: bool = False,
) -> TupleResult:
    """The records of one parameter tuple as one :class:`TupleResult`: its
    :meth:`~TupleResult.records` are ``[check_claim(theorem, {**params,
    "r": r}, probe_inapplicable) for r in rs]``, where rs is every residue
    modulo the class modulus d ("all") or the given residues reduced modulo
    d, sorted and deduplicated.  ``params`` holds the theorem's parameters;
    any ``r`` in it is ignored.

    The parameter check, the hypotheses and the bound are evaluated once for
    the tuple, a theorem with a one-pass ``sums`` computes all d sums at once,
    and SC2's l, C(n, l) and p**ord_p(n!) are worked out once.
    """
    theorem, wiring, params = _checked_theorem(theorem, params)
    p = params["p"]
    d = wiring.modulus(**params)
    rs = _residues(residues, d)
    base = _record_params(params, ResidueClass(d, 0))
    applicable = wiring.hypotheses is None or wiring.hypotheses(**params)
    if not (applicable or probe_inapplicable):
        nones = [None] * len(rs)
        return TupleResult(theorem, base, None, rs, nones, nones,
                           [Verdict.NOT_APPLICABLE] * len(rs), nones, nones)

    if wiring.sums is not None:
        every = wiring.sums(d=d, **params)
        totals = [every[r] for r in rs]
    else:
        totals = [wiring.sum(ResidueClass(d, r), **params) for r in rs]
    bound = None if wiring.bound is None else wiring.bound(**params)
    if applicable and bound is None:  # SC2: decided by the exact integer comparison
        l, comb, rhs = sc2_constants(params["n"], p, params["f"])

    orders, verdicts, margins, comparisons = [], [], [], []
    for total in totals:
        order = margin = comparison = None
        if total == 0:
            order = "inf"
        elif total is not None:  # None: probed sun with beta > alpha, the bound only
            order = ord_p_nonzero(total, p)  # _checked_theorem checked p
        if not applicable:  # probed: sums, orders and the raw bound, for inspection
            verdict = Verdict.NOT_APPLICABLE
        elif bound is None:
            lhs = None if total == 0 else comb * p**order
            comparison = Sc2Comparison(l, lhs, rhs, lhs is None or lhs >= rhs)
            if total == 0:
                verdict = Verdict.HOLDS_VACUOUS
            else:
                verdict = Verdict.HOLDS if comparison.satisfied else Verdict.VIOLATION
        elif total == 0:
            verdict = Verdict.HOLDS_VACUOUS
        else:
            margin = order - bound
            if bound < 0:
                verdict = Verdict.HOLDS_TRIVIAL_BOUND
            elif margin == 0:
                verdict = Verdict.TIGHT
            elif margin > 0:
                verdict = Verdict.HOLDS
            else:
                verdict = Verdict.VIOLATION
        orders.append(order)
        verdicts.append(verdict)
        margins.append(margin)
        comparisons.append(comparison)
    return TupleResult(theorem, base, bound, rs, totals, orders, verdicts, margins, comparisons)


# --------------------------------------------------------------------------
# Grids
# --------------------------------------------------------------------------


def _axis(values: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(int(v) for v in values)))


#: The :class:`GridSpec` field that holds each parameter's axis.  The keys are
#: in canonical order, which every theorem's ``params`` follows, so the
#: product of a grid's axes runs in sorted record order.
AXIS_FIELDS: dict[str, str] = {
    "n": "ns",
    "p": "primes",
    "alpha": "alphas",
    "beta": "betas",
    "l": "ls",
    "m": "ms",
    "a": "a_values",
    "f": "polys",
}


@dataclass(frozen=True)
class GridSpec:
    """A finite parameter product for one theorem.

    ``residues`` is either the string "all" (one full period 0..d-1, with d
    derived from the other parameters) or an explicit collection of residues.
    The axes of the parameters the theorem takes must be nonempty, the others
    empty.  Every value is checked here (primes, and the minimum of each of n,
    alpha, beta, l, m), so that a sweep over a constructed grid raises no
    parameter error.
    """

    theorem: TheoremId
    ns: tuple[int, ...]
    primes: tuple[int, ...]
    alphas: tuple[int, ...] = ()
    betas: tuple[int, ...] = ()
    ls: tuple[int, ...] = ()
    ms: tuple[int, ...] = ()
    a_values: tuple[int, ...] = ()
    residues: tuple[int, ...] | str = "all"
    polys: tuple[IntPolynomial, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "theorem", _coerce_theorem(self.theorem))
        if isinstance(self.residues, str):
            if self.residues != "all":
                raise ParameterError(f"residues must be 'all' or a collection, got {self.residues!r}")
        else:
            object.__setattr__(self, "residues", _axis(self.residues))
        taken = THEOREMS[self.theorem].params
        for name, field in AXIS_FIELDS.items():
            # polynomials keep their first-occurrence order, without repeats
            values = (tuple(dict.fromkeys(getattr(self, field))) if name == "f"
                      else _axis(getattr(self, field)))
            object.__setattr__(self, field, values)
            if name in taken and not values:
                raise ParameterError(f"{self.theorem.value} grid needs the {name} axis")
            if name not in taken and values:
                raise ParameterError(f"{self.theorem.value} grid does not take a {name} axis")
        for p in self.primes:
            check_prime(p)
        for name, low in PARAM_MINIMUM.items():
            values = getattr(self, AXIS_FIELDS[name])
            if values and values[0] < low:  # axes are sorted
                raise ParameterError(f"{name} must be >= {low}, got {values[0]}")


def _grid_tuples(grid: GridSpec) -> Iterator[dict[str, Any]]:
    """The parameter tuples of the grid, without residues, in sorted order:
    the product of the theorem's axes."""
    names = THEOREMS[grid.theorem].params
    for values in itertools.product(*(getattr(grid, AXIS_FIELDS[name]) for name in names)):
        yield dict(zip(names, values))


def grid_params(grid: GridSpec) -> Iterator[dict[str, Any]]:
    """All claims' parameters of the grid in sorted (deterministic) order:
    each tuple of :func:`_grid_tuples` followed by its residues."""
    wiring = THEOREMS[grid.theorem]
    for params in _grid_tuples(grid):
        for r in _residues(grid.residues, wiring.modulus(**params)):
            yield {**params, "r": r}


def required_tables(grids: Iterable[GridSpec]) -> dict[Family, int]:
    """Triangle families (with the largest row needed) for a set of grids."""
    needs: dict[Family, int] = {}
    for grid in grids:
        for family in THEOREMS[grid.theorem].tables:
            needs[family] = max(needs.get(family, 0), max(grid.ns))
    return needs


@dataclass(frozen=True)
class GridSummary:
    total: int
    verdicts: dict[str, int]
    min_margin: int | None
    first_violation: dict[str, Any] | None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "verdicts": dict(self.verdicts),
            "min_margin": self.min_margin,
            "first_violation": self.first_violation,
        }


@dataclass(frozen=True)
class GridResult:
    records: list[ClaimRecord]
    summary: GridSummary

    @property
    def violations(self) -> int:
        return self.summary.verdicts[Verdict.VIOLATION.value]


class RunningSummary:
    """The :class:`GridSummary` of the records of the tuple results passed to
    :meth:`add` so far."""

    def __init__(self) -> None:
        self.total = 0
        self.verdicts = {v.value: 0 for v in Verdict}
        self.min_margin: int | None = None
        self.first_violation: dict[str, Any] | None = None

    def add(self, res: TupleResult) -> None:
        verdicts = res.verdicts
        self.total += len(verdicts)
        counts = self.verdicts
        for verdict in verdicts:
            counts[verdict._value_] += 1  # .value is a slower descriptor
        low = min((margin for margin in res.margins if margin is not None), default=None)
        if low is not None and (self.min_margin is None or low < self.min_margin):
            self.min_margin = low
        if self.first_violation is None and Verdict.VIOLATION in verdicts:
            self.first_violation = {
                **res.params, "r": res.residues[verdicts.index(Verdict.VIOLATION)]}

    def merge(self, part: GridSummary) -> None:
        """Add the summary of records that came after those added so far."""
        self.total += part.total
        for name, count in part.verdicts.items():
            self.verdicts[name] += count
        if part.min_margin is not None and (
            self.min_margin is None or part.min_margin < self.min_margin
        ):
            self.min_margin = part.min_margin
        if self.first_violation is None:
            self.first_violation = part.first_violation

    def summary(self) -> GridSummary:
        return GridSummary(self.total, dict(self.verdicts), self.min_margin, self.first_violation)


def ensure_tables(grids: Iterable[GridSpec]) -> None:
    """Build the triangle rows the grids need (:func:`required_tables`)."""
    for family, top in required_tables(grids).items():
        triangles.ensure_rows(family, top)


def _numbered_tuples(
    grids: Iterable[GridSpec], size: int
) -> Iterator[tuple[int, GridSpec, dict[str, Any]]]:
    """Every tuple of the grids, in record order, with the number of its
    chunk: the records are cut into chunks of at least ``size`` claims, at
    tuple boundaries, numbered from 0.  Only each tuple's residue count is
    worked out, not its records."""
    number = claims = 0
    for grid in grids:
        modulus = THEOREMS[grid.theorem].modulus
        for params in _grid_tuples(grid):
            if claims >= size:
                number, claims = number + 1, 0
            yield number, grid, params
            claims += len(_residues(grid.residues, modulus(**params)))


def count_chunks(grids: Iterable[GridSpec], size: int, at_most: int) -> int:
    """The number of chunks of :func:`iter_chunks`, or ``at_most`` if there
    are more; only the tuples up to the first of chunk ``at_most`` are read."""
    count = 0
    for number, _, _ in _numbered_tuples(grids, size):
        if number == at_most:
            break
        count = number + 1
    return count


def iter_chunks(
    grids: Iterable[GridSpec],
    size: int,
    probe_inapplicable: bool = False,
    first: int = 0,
    step: int = 1,
    fail_fast: bool = False,
) -> Iterator[tuple[int, list[TupleResult]]]:
    """Chunks number ``first``, ``first + step``, ``first + 2 step``, ... of
    the grids' tuple results, as (number, results), one chunk held at a time.

    Each tuple is evaluated whole by :func:`evaluate_tuple`, and the results
    are cut into chunks of at least ``size`` claims, at tuple boundaries,
    numbered from 0.  Only the tuples of these chunks are evaluated, so
    ``step`` callers with ``first`` = 0 .. step-1 share the work of one
    sweep.  With ``fail_fast`` the results stop at the first VIOLATION: its
    tuple's result is cut right after it, and no later tuple is evaluated.
    The triangles must have been built (:func:`ensure_tables`).
    """
    chunk: list[TupleResult] = []
    current = first
    for number, grid, params in _numbered_tuples(grids, size):
        if number % step != first:
            continue
        if number != current:
            if chunk:
                yield current, chunk
            chunk, current = [], number
        res = evaluate_tuple(grid.theorem, params, grid.residues, probe_inapplicable)
        if fail_fast and Verdict.VIOLATION in res.verdicts:
            chunk.append(res.head(res.verdicts.index(Verdict.VIOLATION) + 1))
            break
        chunk.append(res)
    if chunk:
        yield current, chunk


def run_grids(
    grids: Iterable[GridSpec],
    probe_inapplicable: bool = False,
    fail_fast: bool = False,
) -> GridResult:
    """Every record of the grids' sweep (:func:`iter_chunks`), collected in a
    list, and their summary.

    The triangles the grids need are built first, so a
    :class:`CapacityError` is raised before any tuple is evaluated.
    """
    grids = list(grids)
    ensure_tables(grids)
    summary = RunningSummary()
    records = []
    for _, chunk in iter_chunks(grids, 1, probe_inapplicable, fail_fast=fail_fast):
        for res in chunk:
            summary.add(res)
            records += res.records()
    return GridResult(records, summary.summary())


def run_grid(
    grid: GridSpec,
    probe_inapplicable: bool = False,
    fail_fast: bool = False,
) -> GridResult:
    """Single-grid convenience wrapper around :func:`run_grids`."""
    return run_grids([grid], probe_inapplicable, fail_fast)
