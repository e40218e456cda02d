"""Claim evaluation, grid sweeps, verdict classification and summaries.

A claim is one theorem id plus a complete parameter tuple.  Its verdict:

    NOT-APPLICABLE       the theorem's hypotheses fail for the tuple
    HOLDS-VACUOUS        the filtered sum is zero (infinite order)
    HOLDS-TRIVIAL-BOUND  the bound is negative, so any nonzero sum satisfies it
    TIGHT                nonzero sum with order exactly equal to the bound
    HOLDS                nonzero sum with order strictly above the bound
    VIOLATION            nonzero sum with order below the bound

Grid sweeps evaluate every tuple of a finite parameter product serially, in
sorted order, so the record sequence (and hence any rendered report) is
deterministic.  :func:`iter_records` yields the records one at a time and
:class:`RunningSummary` tallies them as they pass, so a sweep's memory does
not depend on its size; :func:`run_grids` collects them into a list.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator, Mapping

from . import filtered_sums, triangles
from .bounds import (
    PARAM_MINIMUM,
    REQUIRED_PARAMS,
    BoundSpec,
    TheoremId,
    bound_exponent,
    sc2_comparison,
)
from .errors import ParameterError
from .exactmath import INFINITY, IntPolynomial, PAdicOrder, check_prime, ord_p
from .filtered_sums import ResidueClass, Variant
from .triangles import Family

__all__ = [
    "ClaimRecord",
    "GridResult",
    "GridSpec",
    "GridSummary",
    "RunningSummary",
    "Sc2Comparison",
    "Verdict",
    "check_claim",
    "grid_params",
    "iter_records",
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


# --------------------------------------------------------------------------
# Per-theorem wiring: class modulus and sum evaluation
# --------------------------------------------------------------------------


def _modulus(theorem: TheoremId, params: Mapping[str, Any]) -> int:
    p = params["p"]
    if theorem is TheoremId.FLECK or theorem is TheoremId.WAN:
        return p
    if theorem is TheoremId.SUN:
        return p ** params["beta"]
    if theorem in (TheoremId.SC1, TheoremId.SC2):
        return p - 1
    if theorem is TheoremId.SC3:
        return p ** params["alpha"] * (p - 1)
    return p ** params["alpha"]


def _evaluate(theorem: TheoremId, params: Mapping[str, Any], cls: ResidueClass) -> int:
    n, p = params["n"], params["p"]
    if theorem is TheoremId.FLECK:
        return filtered_sums.fleck_sum(n, p, 1, cls, 0)
    if theorem is TheoremId.WEISMAN:
        return filtered_sums.fleck_sum(n, p, params["alpha"], cls, 0)
    if theorem is TheoremId.WAN:
        return filtered_sums.fleck_sum(n, p, 1, cls, params["l"])
    if theorem is TheoremId.SUN:
        return filtered_sums.fleck_sum(
            n, p, params["alpha"], cls, params["l"], Variant.FLOOR, params["beta"]
        )
    if theorem in (TheoremId.WAN_STRONG, TheoremId.DAVIS_SUN_A, TheoremId.DAVIS_SUN_B):
        return filtered_sums.fleck_sum(n, p, params["alpha"], cls, params["l"])
    if theorem is TheoremId.EC1:
        return filtered_sums.eulerian_wan_sum(n, p, params["alpha"], cls, params["l"])
    if theorem is TheoremId.EC2:
        return filtered_sums.eulerian_power_sum(n, p, params["alpha"], cls, params["a"])
    if theorem in (TheoremId.SC1, TheoremId.SC3):
        return filtered_sums.stirling_product_sum(n, params["m"], cls, params["a"])
    if theorem is TheoremId.SC2:
        return filtered_sums.stirling_poly_sum(n, params["f"], cls, params["a"])
    raise ParameterError(f"unknown theorem id {theorem!r}")


_PARAM_ORDER = ("n", "p", "alpha", "beta", "l", "m", "a", "d", "r", "f")


def _record_params(
    theorem: TheoremId, params: Mapping[str, Any], cls: ResidueClass
) -> dict[str, Any]:
    out: dict[str, Any] = {}
    merged = dict(params)
    merged["d"] = cls.modulus
    merged["r"] = cls.residue
    for key in _PARAM_ORDER:
        if key in merged:
            value = merged[key]
            if isinstance(value, IntPolynomial):
                value = value.coeff_string()
            out[key] = value
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
    theorem = _coerce_theorem(theorem)
    needed = REQUIRED_PARAMS[theorem] + ("r",)
    missing = [name for name in needed if name not in params]
    if missing:
        raise ParameterError(f"{theorem.value} needs parameters {', '.join(missing)}")
    if theorem is TheoremId.SC2 and not isinstance(params["f"], IntPolynomial):
        raise ParameterError("parameter f must be an IntPolynomial")

    cls = ResidueClass(_modulus(theorem, params), params["r"])
    record_params = _record_params(theorem, params, cls)

    spec_kwargs = {
        name: params[name] for name in REQUIRED_PARAMS[theorem] if name not in ("f",)
    }
    spec = BoundSpec(theorem=theorem, **spec_kwargs)

    if not spec.hypotheses_hold():
        total = order = bound = None
        if probe_inapplicable:
            if not (theorem is TheoremId.SUN and params["beta"] > params["alpha"]):
                total = _evaluate(theorem, params, cls)
                order = ord_p(total, params["p"])
            if theorem is not TheoremId.SC2:
                bound = bound_exponent(spec)
        return ClaimRecord(
            theorem, record_params, total, order, bound, Verdict.NOT_APPLICABLE, None
        )

    total = _evaluate(theorem, params, cls)

    if theorem is TheoremId.SC2:
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

    bound = bound_exponent(spec)
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


# --------------------------------------------------------------------------
# Grids
# --------------------------------------------------------------------------


def _axis(values: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(int(v) for v in values)))


@dataclass(frozen=True)
class GridSpec:
    """A finite parameter product for one theorem.

    ``residues`` is either the string "all" (one full period 0..d-1, with d
    derived from the other parameters) or an explicit collection of residues.
    Unused axes must stay empty; used axes must be nonempty.  Every value is
    checked here (primes, and the minimum of each of n, alpha, beta, l, m),
    so that a sweep over a constructed grid raises no parameter error.
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
        object.__setattr__(self, "ns", _axis(self.ns))
        object.__setattr__(self, "primes", _axis(self.primes))
        object.__setattr__(self, "alphas", _axis(self.alphas))
        object.__setattr__(self, "betas", _axis(self.betas))
        object.__setattr__(self, "ls", _axis(self.ls))
        object.__setattr__(self, "ms", _axis(self.ms))
        object.__setattr__(self, "a_values", _axis(self.a_values))
        if isinstance(self.residues, str):
            if self.residues != "all":
                raise ParameterError(f"residues must be 'all' or a collection, got {self.residues!r}")
        else:
            object.__setattr__(self, "residues", _axis(self.residues))
        object.__setattr__(self, "polys", tuple(self.polys))
        needed = REQUIRED_PARAMS[self.theorem]
        axes = {
            "alpha": self.alphas,
            "beta": self.betas,
            "l": self.ls,
            "m": self.ms,
            "a": self.a_values,
        }
        if not self.ns or not self.primes:
            raise ParameterError("grid needs nonempty n and p axes")
        for name, values in axes.items():
            if name in needed and not values:
                raise ParameterError(f"{self.theorem.value} grid needs the {name} axis")
            if name not in needed and values:
                raise ParameterError(f"{self.theorem.value} grid does not take a {name} axis")
        for p in self.primes:
            check_prime(p)
        values_of = {"n": self.ns, **axes}
        for name, low in PARAM_MINIMUM.items():
            values = values_of[name]
            if values and values[0] < low:  # axes are sorted
                raise ParameterError(f"{name} must be >= {low}, got {values[0]}")
        if self.theorem is TheoremId.SC2:
            if not self.polys:
                raise ParameterError("sc2 grid needs at least one polynomial")
        elif self.polys:
            raise ParameterError(f"{self.theorem.value} grid does not take polynomials")


def grid_params(grid: GridSpec) -> Iterator[dict[str, Any]]:
    """All parameter tuples of the grid in sorted (deterministic) order."""
    theorem = grid.theorem
    needed = REQUIRED_PARAMS[theorem]

    def axis(name: str) -> tuple:
        if name not in needed:
            return (None,)
        return {
            "alpha": grid.alphas,
            "beta": grid.betas,
            "l": grid.ls,
            "m": grid.ms,
            "a": grid.a_values,
        }[name]

    polys = grid.polys if theorem is TheoremId.SC2 else (None,)
    for n in grid.ns:
        for p in grid.primes:
            for alpha in axis("alpha"):
                for beta in axis("beta"):
                    for l in axis("l"):
                        for m in axis("m"):
                            for a in axis("a"):
                                for f in polys:
                                    params: dict[str, Any] = {"n": n, "p": p}
                                    if alpha is not None:
                                        params["alpha"] = alpha
                                    if beta is not None:
                                        params["beta"] = beta
                                    if l is not None:
                                        params["l"] = l
                                    if m is not None:
                                        params["m"] = m
                                    if a is not None:
                                        params["a"] = a
                                    if f is not None:
                                        params["f"] = f
                                    d = _modulus(theorem, params)
                                    if grid.residues == "all":
                                        rs: Iterable[int] = range(d)
                                    else:
                                        rs = sorted({r % d for r in grid.residues})
                                    for r in rs:
                                        yield {**params, "r": r}


def required_tables(grids: Iterable[GridSpec]) -> dict[Family, int]:
    """Triangle families (with the largest row needed) for a set of grids."""
    needs: dict[Family, int] = {}
    for grid in grids:
        top = max(grid.ns)
        if grid.theorem in (TheoremId.EC1, TheoremId.EC2):
            fams: tuple[Family, ...] = (Family.EULERIAN,)
        elif grid.theorem in (TheoremId.SC1, TheoremId.SC3):
            fams = (Family.STIRLING1, Family.STIRLING2)
        elif grid.theorem is TheoremId.SC2:
            fams = (Family.STIRLING1,)
        else:
            fams = ()
        for fam in fams:
            needs[fam] = max(needs.get(fam, 0), top)
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
    """The :class:`GridSummary` of the records passed to :meth:`add` so far."""

    def __init__(self) -> None:
        self.total = 0
        self.verdicts = {v.value: 0 for v in Verdict}
        self.min_margin: int | None = None
        self.first_violation: dict[str, Any] | None = None

    def add(self, rec: ClaimRecord) -> None:
        self.total += 1
        self.verdicts[rec.verdict.value] += 1
        if rec.margin is not None and (self.min_margin is None or rec.margin < self.min_margin):
            self.min_margin = rec.margin
        if rec.verdict is Verdict.VIOLATION and self.first_violation is None:
            self.first_violation = dict(rec.params)

    def summary(self) -> GridSummary:
        return GridSummary(self.total, dict(self.verdicts), self.min_margin, self.first_violation)


def summarize(records: Iterable[ClaimRecord]) -> GridSummary:
    running = RunningSummary()
    for rec in records:
        running.add(rec)
    return running.summary()


def iter_records(
    grids: Iterable[GridSpec],
    probe_inapplicable: bool = False,
    fail_fast: bool = False,
) -> Iterator[ClaimRecord]:
    """The record of every tuple of every grid, evaluated serially and lazily,
    in deterministic order.

    The triangles the grids need are built before this returns, so a
    :class:`CapacityError` is raised here, before the first record.  With
    ``fail_fast`` the records stop right after the first VIOLATION.
    """
    grids = list(grids)
    for family, top in required_tables(grids).items():
        triangles.ensure_rows(family, top)
    return _records(grids, probe_inapplicable, fail_fast)


def _records(
    grids: list[GridSpec], probe_inapplicable: bool, fail_fast: bool
) -> Iterator[ClaimRecord]:
    for grid in grids:
        for params in grid_params(grid):
            rec = check_claim(grid.theorem, params, probe_inapplicable=probe_inapplicable)
            yield rec
            if fail_fast and rec.verdict is Verdict.VIOLATION:
                return


def run_grids(
    grids: Iterable[GridSpec],
    probe_inapplicable: bool = False,
    fail_fast: bool = False,
) -> GridResult:
    """Every record of :func:`iter_records`, collected in a list, and their
    summary."""
    records = list(iter_records(grids, probe_inapplicable, fail_fast))
    return GridResult(records, summarize(records))


def run_grid(
    grid: GridSpec,
    probe_inapplicable: bool = False,
    fail_fast: bool = False,
) -> GridResult:
    """Single-grid convenience wrapper around :func:`run_grids`."""
    return run_grids([grid], probe_inapplicable, fail_fast)
