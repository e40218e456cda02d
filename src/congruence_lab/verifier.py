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
the reference evaluation and the library call.  :meth:`_Plan.evaluate` is
the one evaluation body of a parameter tuple: its residues' sums, in one
pass for all d where the theorem has a ``sums`` and every residue is asked
for, then each sum's order (``ord_p_nonzero`` of the checked ``p``),
margin and verdict in one pass; the records of its result
(:meth:`TupleResult.records`) are one :func:`check_claim` per residue.

Who checks what: :func:`check_claim` and :func:`evaluate_tuple`, the
library call for one tuple, check a claim's parameters once, in
:func:`_checked_theorem`, before anything reads them.  A :class:`GridSpec`
checks every value of its axes and residues when it is built, so a
sweep's tuples skip that check.  So no function of a :data:`THEOREMS`
entry checks anything (only each :class:`ResidueClass` checks its own d
and r), and both paths call the entry's functions, so that a patched entry
reaches either path.

A sweep runs in blocks, the tuples of a grid that share n.  One
:class:`_Plan` per theorem and residue set of the sweep walks its grids
(:meth:`_Plan.tuples`), working out the class modulus, hypotheses and
bound at the innermost axis each reads, so once per distinct value of the
parameters it names, and owns the :class:`~filtered_sums._SweepState` in
which the sums of a block share their triangle rows and terms.
:func:`evaluate_tuple` runs a block of one tuple.  Each tuple's result, in
a sweep's chunks as from :func:`evaluate_tuple`, is a :class:`TupleResult`.

Grid sweeps evaluate every tuple of a finite parameter product serially, in
sorted order, so the record sequence (and hence any rendered report) is
deterministic.  :func:`iter_chunks` drives every sweep: it cuts the tuple
results into numbered chunks and evaluates only every ``step``-th chunk, so
that several processes can share a sweep (``verify --workers``), and with
``fail_fast`` it stops right after the first VIOLATION.  It holds one chunk
at a time and tallies each chunk's records at once
(:meth:`GridSummary.of`), so a sweep's memory does not depend on its size;
:func:`run_grids` collects the records into a list.  The summaries of the
chunks merge in chunk order (:meth:`GridSummary.merge`) into the sweep's.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from enum import Enum

from . import triangles
from ._slots import Frozen, Slotted
from .bounds import THEOREMS, Theorem, TheoremId, _named, sc2_comparison, sc2_constants
from .errors import ParameterError
from .exactmath import (INFINITY, IntPolynomial, PAdicOrder, check_collection, check_params, ord_p,
                        ord_p_nonzero)
from .filtered_sums import ResidueClass, _SweepState
from .triangles import Family

__all__ = [
    "AXIS_FIELDS",
    "ClaimRecord",
    "GridResult",
    "GridSpec",
    "GridSummary",
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


# the members, as module globals for the per-tuple columns and tallies
_VERDICTS = tuple(Verdict)
_HOLDS, _VACUOUS, _TRIVIAL, _TIGHT, _VIOLATION, _NOT_APPLICABLE = _VERDICTS


def _coerce_theorem(theorem: TheoremId | str) -> TheoremId:
    try:
        return TheoremId(theorem)
    except ValueError as exc:
        raise ParameterError(f"unknown theorem id {theorem!r}") from exc


def _checked_theorem(
    theorem: TheoremId | str, params: Mapping[str, Any], extra: tuple[str, ...] = ()
) -> tuple[TheoremId, Theorem, dict[str, Any]]:
    """The theorem id, its wiring and the parameters it takes, in canonical
    order, once ``params`` holds those and the names in ``extra``, and the
    parameters pass :func:`~congruence_lab.exactmath.check_params`, as a
    :class:`GridSpec`'s axes do.  A member is taken as it is; a string goes
    through :func:`_coerce_theorem`."""
    if not isinstance(theorem, TheoremId):
        theorem = _coerce_theorem(theorem)
    wiring = THEOREMS[theorem]
    missing = [name for name in wiring.params + extra if name not in params]
    if missing:
        raise ParameterError(f"{theorem.value} needs parameters {', '.join(missing)}")
    params = {name: params[name] for name in wiring.params}
    check_params(**params)
    return theorem, wiring, params


class Sc2Comparison(Frozen):
    """Exact comparison operands replacing the integer margin for SC2 records."""

    __slots__ = ("l", "lhs", "rhs", "satisfied")

    def __init__(
        self,
        l: int,
        lhs: int | None,  # C(n,l) * p**ord(sum); None when the sum is zero
        rhs: int,  # p**ord_p(n!)
        satisfied: bool,
    ) -> None:
        self._set(l, lhs, rhs, satisfied)


class ClaimRecord(Frozen):
    """One verification outcome."""

    __slots__ = ("theorem", "params", "total", "order", "bound", "verdict", "margin", "sc2")

    def __init__(self, theorem: TheoremId, params: dict[str, Any], total: int | None,
                 order: PAdicOrder | None, bound: int | None, verdict: Verdict,
                 margin: int | None, sc2: Sc2Comparison | None = None) -> None:
        self._set(theorem, params, total, order, bound, verdict, margin, sc2)

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


def _record_params(params: dict[str, Any], d: int, r: int) -> dict[str, Any]:
    """A record's params: the tuple's (in canonical order), d and r, and f
    last, as its coefficient string."""
    out = {**params, "d": d, "r": r}
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
    record_params = _record_params(params, cls.modulus, cls.residue)

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


#: The fields of a :class:`TupleResult` that the tuple's records share, and
#: its columns, a field per record in residue order.
_SHARED, _COLUMNS = "theorem params d bound", "residues totals orders verdicts margins sc2"


class TupleResult(namedtuple("TupleResult", f"{_SHARED} {_COLUMNS}")):
    """The records of one parameter tuple, as :meth:`_Plan.evaluate` gives
    them: what they share, the theorem, the tuple's params (the theorem's
    parameters in canonical order, ``f`` a polynomial), the class modulus d
    and the bound; and a column per field that differs, in residue order:
    residues, sums, orders (an int, "inf" for a zero sum, None without a
    sum), verdicts, margins and SC2 comparisons."""

    __slots__ = ()

    def records(self) -> list[ClaimRecord]:
        return [
            ClaimRecord(self.theorem, _record_params(self.params, self.d, r), total,
                        None if order is None else INFINITY if order == "inf"
                        else PAdicOrder(order),
                        self.bound, verdict, margin, comparison)
            for r, total, order, verdict, margin, comparison in zip(
                self.residues, self.totals, self.orders, self.verdicts, self.margins,
                self.sc2)
        ]

    def first(self, count: int) -> TupleResult:
        """The result of its first ``count`` records."""
        return self._replace(**{name: getattr(self, name)[:count] for name in _COLUMNS.split()})


class _Plan:
    """What the tuples of one theorem and residue set share across a sweep's
    grids: its :data:`THEOREMS` entry; the asked residues, checked ("all" or
    an :func:`_axis`); for each axis, which of the class modulus, hypotheses
    and bound :meth:`tuples` works out there (``at``: the innermost axis
    each names, the last for one that names none); and the
    :class:`~filtered_sums._SweepState` its ``sums`` keep.  The values must
    have been checked, by a :class:`GridSpec` or :func:`_checked_theorem`."""

    __slots__ = ("theorem", "wiring", "probe", "asked", "at", "state")

    def __init__(self, theorem: TheoremId, residues: str | tuple[int, ...],
                 probe_inapplicable: bool) -> None:
        self.theorem = theorem
        self.wiring = wiring = THEOREMS[theorem]
        self.probe = probe_inapplicable
        self.asked = residues
        names = wiring.params
        fns = (wiring.modulus, wiring.hypotheses, wiring.bound)
        depths = [fn and max(map(names.index, _named(fn) or names)) for fn in fns]
        self.at = [[fn if depth == at else None for fn, depth in zip(fns, depths)]
                   for at in range(len(names))]
        self.state = _SweepState()

    def tuples(self, axes: Sequence[Sequence[Any]]) -> Iterator[tuple]:
        """Each tuple of the product of ``axes``, the values of the
        theorem's parameters in canonical order, in sorted order, as
        (params, d, residues, applicable, bound).  A walk of the product
        that works out all three per tuple ran ``sc3-sweep`` 1.11x slower."""
        # the moduli of a block, which the Stirling sums fold their terms into
        depth = next(at for at, fns in enumerate(self.at) if fns[0])  # the modulus's axis
        names = self.wiring.params[:depth + 1]
        self.state.moduli = tuple({self.wiring.modulus(**dict(zip(names, values)))
                                   for values in itertools.product(*axes[:depth + 1])})
        rows: Iterable[tuple] = [({}, None, None, True, None)]
        for name, values, fns in zip(self.wiring.params, axes, self.at):
            rows = self._extend(rows, name, values, *fns)
        return iter(rows)

    def _extend(self, rows: Iterable[tuple], name: str, values: Sequence[Any], modulus: Callable,
                hypotheses: Callable, bound: Callable) -> Iterator[tuple]:
        """Each row with each value of axis ``name``, and what is worked out there."""
        for outer, d, rs, applicable, exponent in rows:
            for value in values:
                params = {**outer, name: value}
                if modulus:
                    d = modulus(**params)
                    rs = _residues(self.asked, d)
                if hypotheses:
                    applicable = hypotheses(**params)
                if bound:
                    exponent = bound(**params)
                yield params, d, rs, applicable, exponent

    def evaluate(self, params: dict[str, Any], d: int, rs: Sequence[int], applicable: bool,
                 bound: int | None) -> TupleResult:
        """The result of one tuple of :meth:`tuples`."""
        wiring, count = self.wiring, len(rs)
        totals = orders = margins = sc2 = [None] * count
        verdicts = [_NOT_APPLICABLE] * count
        if not (applicable or self.probe):
            return TupleResult(self.theorem, params, d, None, rs, totals, orders, verdicts,
                               margins, sc2)
        if wiring.sums is not None and count == d:  # every residue, so rs is range(d)
            totals = wiring.sums(d=d, state=self.state, **params)
        else:
            totals = [wiring.sum(ResidueClass(d, r), **params) for r in rs]
        p = params["p"]
        if applicable and bound is not None:  # one pass: each sum's order, margin and verdict
            orders, margins, verdicts = [], [], []
            for total in totals:
                if total:
                    order = ord_p_nonzero(total, p)
                    margin = order - bound
                    verdicts.append(_TRIVIAL if bound < 0 else _TIGHT if margin == 0
                                    else _HOLDS if margin > 0 else _VIOLATION)
                else:
                    order, margin = "inf", None
                    verdicts.append(_VACUOUS)
                orders.append(order)
                margins.append(margin)
        else:  # probed (sums, orders and the raw bound, for inspection), or SC2
            # None: probed sun with beta > alpha, the bound only
            orders = [ord_p_nonzero(total, p) if total else None if total is None else "inf"
                      for total in totals]
            if applicable:  # SC2: decided by the exact integer comparison
                verdicts, sc2 = self._sc2(params, totals, orders)
        return TupleResult(self.theorem, params, d, bound, rs, totals, orders, verdicts, margins,
                           sc2)

    def _sc2(self, params: dict[str, Any], totals: list[int],
             orders: list[int | str]) -> tuple[list, list]:
        """The verdicts and comparisons of an applicable SC2 tuple: l,
        C(n, l) and p**ord_p(n!) are worked out once, and each residue's
        comparison from them."""
        p = params["p"]
        l, comb, rhs = sc2_constants(params["n"], p, params["f"])
        verdicts, comparisons = [], []
        for total, order in zip(totals, orders):
            if total == 0:
                comparisons.append(Sc2Comparison(l, None, rhs, True))
                verdicts.append(_VACUOUS)
            else:
                lhs = comb * p**order
                comparisons.append(Sc2Comparison(l, lhs, rhs, lhs >= rhs))
                verdicts.append(_HOLDS if lhs >= rhs else _VIOLATION)
        return verdicts, comparisons


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

    Its parameters and residues are checked first (:func:`_checked_theorem`,
    :func:`_checked_residues`); then it runs through a :class:`_Plan` as a
    block of one tuple: the hypotheses and the bound once for the tuple,
    all d sums at once where the theorem has a one-pass ``sums`` and every
    residue is asked for (a subset gets one ``sum`` per residue), and SC2's
    l, C(n, l) and p**ord_p(n!) once.
    """
    theorem, _, params = _checked_theorem(theorem, params)
    plan = _Plan(theorem, _checked_residues(residues), probe_inapplicable)
    (row,) = plan.tuples([(value,) for value in params.values()])
    return plan.evaluate(*row)


# --------------------------------------------------------------------------
# Grids
# --------------------------------------------------------------------------


def _axis(name: str, values: Iterable[Any], field: str) -> tuple[Any, ...]:
    """An axis's distinct values, each passed by
    :func:`~congruence_lab.exactmath.check_params`: sorted, or polynomials
    in first-occurrence order.  ``field`` names the argument in the error
    for values that are not a collection."""
    values = check_collection(field, values)
    for value in values:
        check_params(**{name: value})
    if name == "f":
        return tuple(dict.fromkeys(values))
    return tuple(sorted({operator.index(v) for v in values}))


def _checked_residues(residues: Iterable[int] | str) -> tuple[int, ...] | str:
    """The string "all", or the given residues as an :func:`_axis`."""
    if not isinstance(residues, str):
        return _axis("r", residues, "residues")
    if residues != "all":
        raise ParameterError(f"residues must be 'all' or a collection, got {residues!r}")
    return residues


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


class GridSpec(Frozen):
    """A finite parameter product for one theorem.

    ``residues`` is either the string "all" (one full period 0..d-1, with d
    derived from the other parameters) or an explicit collection of residues.
    The axes of the parameters the theorem takes must be nonempty, the others
    empty.  Every value, residues included, is checked here with
    :func:`~congruence_lab.exactmath.check_params`, so that a sweep over a
    constructed grid raises no parameter error.
    """

    __slots__ = ("theorem", "ns", "primes", "alphas", "betas", "ls", "ms", "a_values",
                 "residues", "polys")

    def __init__(
        self,
        theorem: TheoremId | str,
        ns: Iterable[int],
        primes: Iterable[int],
        alphas: Iterable[int] = (),
        betas: Iterable[int] = (),
        ls: Iterable[int] = (),
        ms: Iterable[int] = (),
        a_values: Iterable[int] = (),
        residues: Iterable[int] | str = "all",
        polys: Iterable[IntPolynomial] = (),
    ) -> None:
        object.__setattr__(self, "theorem", _coerce_theorem(theorem))
        object.__setattr__(self, "residues", _checked_residues(residues))
        given = dict(zip(AXIS_FIELDS, (ns, primes, alphas, betas, ls, ms, a_values, polys)))
        taken = THEOREMS[self.theorem].params
        for name, attr in AXIS_FIELDS.items():
            values = _axis(name, given[name], attr)
            object.__setattr__(self, attr, values)
            if name in taken and not values:
                raise ParameterError(f"{self.theorem.value} grid needs the {name} axis")
            if name not in taken and values:
                raise ParameterError(f"{self.theorem.value} grid does not take a {name} axis")


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


class GridSummary(Slotted):
    """The tally of a sweep's records (:meth:`of`, :meth:`merge`, in record
    order).  A new one is the tally of no records (``verdicts`` None: every
    verdict counted 0)."""

    __slots__ = ("total", "verdicts", "min_margin", "first_violation")

    def __init__(self, total: int = 0, verdicts: dict[str, int] | None = None,
                 min_margin: int | None = None,
                 first_violation: dict[str, Any] | None = None) -> None:
        self.total = total
        self.verdicts = {v.value: 0 for v in Verdict} if verdicts is None else verdicts
        self.min_margin = min_margin
        self.first_violation = first_violation

    @classmethod
    def of(cls, results: list[TupleResult]) -> GridSummary:
        """The tally of the records of tuple results, counted over their
        columns at once."""
        verdicts = [v for res in results for v in res.verdicts]
        margins = [m for res in results for m in res.margins if m is not None]
        first = next((_record_params(res.params, res.d,
                                     res.residues[res.verdicts.index(_VIOLATION)])
                      for res in results if _VIOLATION in res.verdicts), None)
        # ._value_ is an enum member's value without the .value descriptor
        return cls(len(verdicts), {v._value_: verdicts.count(v) for v in _VERDICTS},
                   min(margins, default=None), first)

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

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "verdicts": dict(self.verdicts),
            "min_margin": self.min_margin,
            "first_violation": self.first_violation,
        }


class GridResult(Frozen):
    __slots__ = ("records", "summary")

    def __init__(self, records: list[ClaimRecord], summary: GridSummary) -> None:
        self._set(records, summary)

    @property
    def violations(self) -> int:
        return self.summary.verdicts[Verdict.VIOLATION.value]


def ensure_tables(grids: Iterable[GridSpec]) -> None:
    """Build the triangle rows the grids need (:func:`required_tables`)."""
    for family, top in required_tables(grids).items():
        triangles.ensure_rows(family, top)


def _numbered_tuples(
    grids: Iterable[GridSpec], size: int, probe_inapplicable: bool = False
) -> Iterator[tuple[int, _Plan, tuple]]:
    """Every tuple of the grids, in record order, as :meth:`_Plan.tuples`
    gives it, with the number of its chunk and its plan, one per theorem
    and residue set of the sweep: the records are cut into chunks of at
    least ``size`` claims, at tuple boundaries, numbered from 0."""
    number = claims = 0
    plans: dict[tuple[TheoremId, str | tuple[int, ...]], _Plan] = {}
    for grid in grids:
        key = (grid.theorem, grid.residues)
        plan = plans[key] = plans.get(key) or _Plan(*key, probe_inapplicable)
        for row in plan.tuples([getattr(grid, AXIS_FIELDS[name]) for name in plan.wiring.params]):
            if claims >= size:
                number, claims = number + 1, 0
            yield number, plan, row
            claims += len(row[2])  # its residues


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
) -> Iterator[tuple[int, GridSummary, list[TupleResult]]]:
    """Chunks number ``first``, ``first + step``, ``first + 2 step``, ... of
    the grids' tuple results (:meth:`_Plan.evaluate`, with no parameter
    check: the grid has checked every value), as (number, summary,
    results), one chunk held at a time.  The results are cut into chunks of
    at least ``size`` claims, at tuple boundaries, numbered from 0.  Only
    the tuples of these chunks are evaluated, so ``step`` callers with
    ``first`` = 0 .. step-1 share the work of one sweep.  With ``fail_fast``
    the results stop at the first VIOLATION: its tuple's columns are cut
    right after it, and no later tuple is evaluated.  The triangles must
    have been built (:func:`ensure_tables`).
    """
    results: list[TupleResult] = []
    current = first
    for number, plan, row in _numbered_tuples(grids, size, probe_inapplicable):
        if number % step != first:
            continue
        if number != current:
            if results:
                yield current, GridSummary.of(results), results
            results, current = [], number
        res = plan.evaluate(*row)
        if fail_fast and _VIOLATION in res.verdicts:
            results.append(res.first(res.verdicts.index(_VIOLATION) + 1))
            break
        results.append(res)
    if results:
        yield current, GridSummary.of(results), results


def run_grids(
    grids: Iterable[GridSpec],
    probe_inapplicable: bool = False,
    fail_fast: bool = False,
) -> GridResult:
    """Every record of the grids' sweep (:func:`iter_chunks`), collected in
    a list, and their summary.

    The triangles the grids need are built first, so a
    :class:`CapacityError` is raised before any tuple is evaluated.
    """
    grids = list(grids)
    ensure_tables(grids)
    summary = GridSummary()
    records = []
    for _, part, results in iter_chunks(grids, 1, probe_inapplicable, fail_fast=fail_fast):
        summary.merge(part)
        records += [rec for res in results for rec in res.records()]
    return GridResult(records, summary)


def run_grid(
    grid: GridSpec,
    probe_inapplicable: bool = False,
    fail_fast: bool = False,
) -> GridResult:
    """Single-grid convenience wrapper around :func:`run_grids`."""
    return run_grids([grid], probe_inapplicable, fail_fast)
