import itertools
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congruence_lab import bounds, exactmath, filtered_sums, triangles, verifier
from congruence_lab.bounds import THEOREMS, TheoremId
from congruence_lab.errors import CapacityError, ParameterError
from congruence_lab.exactmath import IntPolynomial, ord_p
from congruence_lab.verifier import (
    AXIS_FIELDS,
    ClaimRecord,
    GridSpec,
    GridSummary,
    Verdict,
    check_claim,
    evaluate_tuple,
    grid_params,
    iter_chunks,
    run_grid,
    run_grids,
)
from oracles import report_summary


class TestCheckClaim:
    def test_fleck_tight(self):
        rec = check_claim(TheoremId.FLECK, {"n": 3, "p": 2, "r": 0})
        assert rec.total == 4
        assert rec.order == 2
        assert rec.bound == 2
        assert rec.verdict is Verdict.TIGHT
        assert rec.margin == 0
        assert rec.params == {"n": 3, "p": 2, "d": 2, "r": 0}

    def test_ec2_tight(self):
        rec = check_claim(TheoremId.EC2, {"n": 4, "p": 2, "alpha": 1, "a": 3, "r": 1})
        assert (rec.total, rec.bound, rec.verdict) == (60, 2, Verdict.TIGHT)

    def test_sc1_margin(self):
        rec = check_claim(TheoremId.SC1, {"n": 4, "p": 3, "m": 2, "a": 1, "r": 0})
        assert (rec.total, rec.order, rec.bound) == (18, 2, 1)
        assert rec.verdict is Verdict.HOLDS
        assert rec.margin == 1
        assert rec.params["d"] == 2

    def test_vacuous(self):
        rec = check_claim(TheoremId.FLECK, {"n": 1, "p": 3, "r": 2})
        assert rec.total == 0
        assert rec.order.is_infinite
        assert rec.verdict is Verdict.HOLDS_VACUOUS
        assert rec.margin is None

    def test_trivial_bound(self):
        rec = check_claim(TheoremId.SC3, {"n": 1, "p": 2, "alpha": 1, "m": 1, "a": -2, "r": 1})
        assert rec.bound == -1
        assert rec.total == -2
        assert rec.verdict is Verdict.HOLDS_TRIVIAL_BOUND
        assert rec.margin == rec.order.value - rec.bound > 0

    def test_not_applicable(self):
        rec = check_claim(TheoremId.EC2, {"n": 1, "p": 2, "alpha": 1, "a": 3, "r": 0})
        assert rec.verdict is Verdict.NOT_APPLICABLE
        assert rec.total is None and rec.order is None and rec.bound is None
        rec = check_claim(TheoremId.WAN, {"n": 4, "p": 2, "l": 2, "r": 0})
        assert rec.verdict is Verdict.NOT_APPLICABLE

    def test_probe_inapplicable_fills_data(self):
        rec = check_claim(
            TheoremId.EC2, {"n": 1, "p": 2, "alpha": 1, "a": 3, "r": 0}, probe_inapplicable=True
        )
        assert rec.verdict is Verdict.NOT_APPLICABLE
        assert rec.total == 1  # A(1,0) * 3**0
        assert rec.order == 0
        assert rec.bound == -1

    def test_sc2_record(self):
        f = IntPolynomial((0, 0, 1))
        rec = check_claim(TheoremId.SC2, {"n": 4, "p": 2, "a": 1, "f": f, "r": 0})
        assert rec.bound is None
        assert rec.sc2 is not None and rec.sc2.satisfied
        assert rec.verdict in (Verdict.HOLDS, Verdict.HOLDS_VACUOUS)
        assert rec.margin is None
        assert rec.params["f"] == "0,0,1"
        data = rec.to_json_dict()
        assert data["bound"] == "sc2"
        assert data["sc2"]["rhs"] == str(rec.sc2.rhs)

    def test_missing_parameter(self):
        with pytest.raises(ParameterError):
            check_claim(TheoremId.WEISMAN, {"n": 3, "p": 2, "r": 0})
        with pytest.raises(ParameterError):
            check_claim(TheoremId.SC2, {"n": 3, "p": 2, "a": 1, "f": "0,1", "r": 0})

    def test_unknown_theorem(self):
        with pytest.raises(ParameterError):
            check_claim("nonsense", {"n": 3, "p": 2, "r": 0})
        with pytest.raises(ParameterError):
            evaluate_tuple("nonsense", {"n": 3, "p": 2})
        with pytest.raises(ParameterError):
            GridSpec("nonsense", ns=(1,), primes=(2,))

    def test_sums_are_looked_up_at_call_time(self, monkeypatch):
        # a patched filtered_sums kernel reaches every theorem; a claim's sum
        # calls the unchecked per-residue kernel, since its parameters are checked
        called = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                called.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("_fleck_sum", "_eulerian_wan_sum", "_eulerian_power_sum",
                     "_stirling_product_sum", "_stirling_poly_sum"):
            monkeypatch.setattr(filtered_sums, name, counted(name, getattr(filtered_sums, name)))
        params = {"n": 6, "p": 2, "alpha": 1, "beta": 1, "l": 1, "m": 2, "a": 1,
                  "f": IntPolynomial((0, 1)), "r": 0}
        for theorem in TheoremId:
            del called[:]
            check_claim(theorem, {k: params[k] for k in THEOREMS[theorem].params + ("r",)})
            assert len(called) == 1, theorem

    def test_residue_canonicalized_into_params(self):
        rec = check_claim(TheoremId.FLECK, {"n": 3, "p": 2, "r": -1})
        assert rec.params["r"] == 1


class TestGridSpec:
    def test_axis_normalization(self):
        grid = GridSpec(TheoremId.WEISMAN, ns=(3, 1, 2, 2), primes=(3, 2), alphas=(1,))
        assert grid.ns == (1, 2, 3)
        assert grid.primes == (2, 3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(TheoremId.WEISMAN, ns=(1,), primes=(2,))  # missing alpha axis
        with pytest.raises(ParameterError):
            GridSpec(TheoremId.FLECK, ns=(1,), primes=(2,), alphas=(1,))  # stray axis
        with pytest.raises(ParameterError):
            GridSpec(TheoremId.SC2, ns=(1,), primes=(2,), a_values=(1,))  # no polynomials
        with pytest.raises(ParameterError):
            GridSpec(TheoremId.FLECK, ns=(1,), primes=(2,), residues="evens")
        # every value is checked up front, before a sweep writes anything
        for bad in (
            dict(theorem=TheoremId.FLECK, ns=(1, 2), primes=(2, 4)),
            dict(theorem=TheoremId.FLECK, ns=(0, 1), primes=(2,)),
            dict(theorem=TheoremId.WEISMAN, ns=(1,), primes=(2,), alphas=(0, 1)),
            dict(theorem=TheoremId.SUN, ns=(1,), primes=(2,), alphas=(1,), betas=(-1, 0), ls=(0,)),
            dict(theorem=TheoremId.WAN, ns=(1,), primes=(2,), ls=(-1,)),
            dict(theorem=TheoremId.SC1, ns=(3,), primes=(2,), ms=(0, 1), a_values=(1,)),
        ):
            with pytest.raises(ParameterError):
                GridSpec(**bad)
        # a bare value where a collection belongs is named, not a bare TypeError
        for field, build in (
            ("ns", lambda: GridSpec(TheoremId.FLECK, ns=5, primes=(2,))),
            ("primes", lambda: GridSpec(TheoremId.FLECK, ns=(3,), primes=2)),
            ("residues", lambda: GridSpec(TheoremId.FLECK, ns=(3,), primes=(2,), residues=5)),
            ("polys", lambda: GridSpec(TheoremId.SC2, ns=(3,), primes=(3,), a_values=(1,),
                                       polys=None)),
            ("residues", lambda: evaluate_tuple("fleck", {"n": 3, "p": 2}, residues=5)),
        ):
            with pytest.raises(ParameterError, match=f"^{field} must be a collection, got "):
                build()

    def test_grid_params_order_and_residues(self):
        grid = GridSpec(TheoremId.WEISMAN, ns=(1, 2), primes=(2,), alphas=(1, 2))
        tuples = list(grid_params(grid))
        assert tuples == sorted(
            tuples, key=lambda t: (t["n"], t["p"], t["alpha"], t["r"])
        )
        # residues expand to one full period of the class modulus
        assert [t["r"] for t in tuples if t["n"] == 1 and t["alpha"] == 2] == [0, 1, 2, 3]

    def test_explicit_residues_canonicalized(self):
        grid = GridSpec(TheoremId.FLECK, ns=(5,), primes=(3,), residues=(4, 1, -2))
        tuples = list(grid_params(grid))
        assert [t["r"] for t in tuples] == [1]  # all three are 1 mod 3

    def test_deterministic(self):
        grid = GridSpec(TheoremId.SUN, ns=(4, 9), primes=(2, 3), alphas=(1, 2), betas=(0, 1), ls=(0, 1))
        assert list(grid_params(grid)) == list(grid_params(grid))


class TestRunGrid:
    def test_summary_and_invariants(self):
        grid = GridSpec(TheoremId.FLECK, ns=range(1, 31), primes=(2, 3))
        result = run_grid(grid)
        assert result.summary.total == len(result.records)
        assert result.violations == 0
        assert result.summary.first_violation is None
        for rec in result.records:
            if rec.verdict in (Verdict.HOLDS, Verdict.TIGHT):
                assert rec.margin >= 0
                assert (rec.margin == 0) == (rec.verdict is Verdict.TIGHT)

    def test_min_margin_zero_means_some_tight(self):
        result = run_grid(GridSpec(TheoremId.FLECK, ns=range(1, 31), primes=(2, 3)))
        assert result.summary.min_margin == 0
        assert result.summary.verdicts[Verdict.TIGHT.value] > 0

    def test_empty_intersection_residues_vacuous(self):
        grid = GridSpec(TheoremId.FLECK, ns=(1,), primes=(5,), residues=(3, 4))
        result = run_grid(grid)
        assert result.summary.total == 2
        assert result.summary.verdicts[Verdict.HOLDS_VACUOUS.value] == 2

    def test_capacity_error(self):
        grid = GridSpec(TheoremId.SC1, ns=(triangles.ROW_LIMIT + 1,), primes=(2,), ms=(1,),
                        a_values=(1,))
        with pytest.raises(CapacityError):
            run_grid(grid)

    def test_binomial_theorems_do_not_need_tables(self):
        grid = GridSpec(TheoremId.WEISMAN, ns=(triangles.ROW_LIMIT + 1,), primes=(2,),
                        alphas=(1,))
        assert run_grid(grid).violations == 0

    def test_fail_fast_without_violation_keeps_everything(self):
        grid = GridSpec(TheoremId.FLECK, ns=range(1, 11), primes=(2,))
        assert run_grid(grid, fail_fast=True).summary.total == 20

    def test_probe_inapplicable_in_grids(self):
        grid = GridSpec(TheoremId.WAN, ns=(4,), primes=(2,), ls=(2,))
        plain = run_grid(grid)
        probed = run_grid(grid, probe_inapplicable=True)
        assert plain.summary.verdicts[Verdict.NOT_APPLICABLE.value] == 2
        assert all(r.total is None for r in plain.records)
        assert all(r.total is not None for r in probed.records)
        assert probed.summary.verdicts[Verdict.NOT_APPLICABLE.value] == 2


def _axis(values, max_size=3):
    return st.lists(values, min_size=1, max_size=max_size)


#: Small axes that reach every verdict: m > n and empty classes give zero
#: sums, beta > alpha has no sun sum, a runs negative and through 0.
AXES = {
    "n": _axis(st.integers(1, 14)),
    "p": _axis(st.sampled_from((2, 3, 5)), max_size=2),
    "alpha": _axis(st.integers(1, 3)),
    "beta": _axis(st.integers(0, 4)),
    "l": _axis(st.integers(0, 3)),
    "m": _axis(st.integers(1, 16)),
    "a": _axis(st.integers(-3, 3)),
    "f": st.lists(st.lists(st.integers(-3, 3), max_size=4).map(tuple).map(IntPolynomial),
                  min_size=1, max_size=2),
}


@st.composite
def grids(draw):
    theorem = draw(st.sampled_from(list(TheoremId)))
    axes = {AXIS_FIELDS[name]: draw(AXES[name]) for name in THEOREMS[theorem].params}
    residues = draw(st.just("all") | st.lists(st.integers(-10, 30), min_size=1, max_size=4))
    return GridSpec(theorem, residues=residues, **axes)


class TestCheckTuple:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(grids(), min_size=1, max_size=3), st.booleans())
    @example([GridSpec(TheoremId.SUN, ns=(1, 5, 9), primes=(2, 3), alphas=(1,),
                       betas=(0, 1, 2), ls=(0, 1))], True)
    @example([GridSpec(TheoremId.EC2, ns=(2, 8), primes=(2, 3), alphas=(1, 2),
                       a_values=(-5, 0, 4))], True)
    @example([GridSpec(TheoremId.SC3, ns=(4, 9), primes=(3,), alphas=(1, 2), ms=(2, 12),
                       a_values=(-2, 0), residues=(17, -1, 5, 5))], False)
    @example([GridSpec(TheoremId.SC2, ns=(3, 6), primes=(2, 5), a_values=(-1, 2),
                       polys=(IntPolynomial(()), IntPolynomial((0, -1, 0, 3))))], False)
    # both stepped families in one sweep, and wan-strong's plan shared by two
    # grids whose n restarts lower
    @example([GridSpec(TheoremId.WAN_STRONG, ns=(6, 7, 9), primes=(2, 3), alphas=(1, 2),
                       ls=(0, 2)),
              GridSpec(TheoremId.SC1, ns=(3, 4, 5), primes=(2, 3), ms=(1, 2), a_values=(-1, 2)),
              GridSpec(TheoremId.WAN_STRONG, ns=(2, 3), primes=(2,), alphas=(2,), ls=(1, 3))],
             False)
    def test_equals_check_claim_per_residue(self, grids, probe):
        """One sweep of the drawn grids, both stepped families and the same
        theorem twice among them, against check_claim claim for claim."""
        got = run_grids(grids, probe).records
        want = [check_claim(grid.theorem, params, probe) for grid in grids
                for params in grid_params(grid)]
        assert got == want
        # the parameter order too, although no report depends on it
        assert [list(rec.params.items()) for rec in got] == [
            list(rec.params.items()) for rec in want]

    def test_one_tuple_and_its_residues(self):
        params = {"n": 9, "p": 3, "alpha": 1, "m": 2, "a": -2}
        d = 3**1 * 2
        assert evaluate_tuple("sc3", params).records() == [
            check_claim("sc3", {**params, "r": r}) for r in range(d)]
        assert evaluate_tuple(TheoremId.SC3, params, (7, 1, -5, 3)).records() == [
            check_claim("sc3", {**params, "r": r}) for r in (1, 3)]
        with pytest.raises(ParameterError):
            evaluate_tuple("sc3", {"n": 9, "p": 3})
        with pytest.raises(ParameterError):
            evaluate_tuple("sc2", {"n": 9, "p": 3, "a": 1, "f": "0,1"})

    def test_a_residue_subset_builds_no_other_class(self):
        # weisman's class modulus 2**16 has 65,536 classes: the one-pass
        # sums would build them all for the two residues asked for
        params = {"n": 3, "p": 2, "alpha": 16}
        tracemalloc.start()
        try:
            records = evaluate_tuple("weisman", params, residues=[0, 5]).records()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert records == [check_claim("weisman", {**params, "r": r}) for r in (0, 5)]

    def test_sweeps_evaluate_once_per_tuple(self, monkeypatch):
        # one call of the sweep's per-tuple entry (_Plan.evaluate) and one call
        # of the table's bound per tuple (the counting wrapper takes only
        # **params, so it reads every parameter), and no check_claim, no
        # evaluate_tuple, no parameter check and no theorem coercion (the
        # grid has checked its values and holds the member), with fail_fast
        # off and on
        grid = GridSpec(TheoremId.WAN_STRONG, ns=range(1, 11), primes=(2, 3), alphas=(1, 2),
                        ls=(0, 1))
        calls = {"evaluate": 0, "evaluate_tuple": 0, "check_claim": 0, "_checked_theorem": 0,
                 "_coerce_theorem": 0, "bound": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("evaluate_tuple", "check_claim", "_checked_theorem", "_coerce_theorem"):
            monkeypatch.setattr(verifier, name, counted(name, getattr(verifier, name)))
        monkeypatch.setattr(verifier._Plan, "evaluate",
                            counted("evaluate", verifier._Plan.evaluate))
        wiring = THEOREMS[TheoremId.WAN_STRONG]
        monkeypatch.setitem(THEOREMS, TheoremId.WAN_STRONG,
                            wiring._replace(bound=counted("bound", wiring.bound)))
        tuples = 10 * 2 * 2 * 2
        want = {"evaluate": tuples, "evaluate_tuple": 0, "check_claim": 0, "_checked_theorem": 0,
                "_coerce_theorem": 0, "bound": tuples}
        assert len(run_grid(grid).records) == 10 * 2 * (2 + 4 + 3 + 9)
        assert calls == want
        calls.update(dict.fromkeys(calls, 0))
        assert len(run_grid(grid, fail_fast=True).records) == 10 * 2 * (2 + 4 + 3 + 9)
        assert calls == want

    def test_a_block_fetches_its_triangle_rows_once(self, monkeypatch):
        # sc1's and sc3's sums read the rows s(n, .) and S(k, .), k <= n, only
        # for what they do not step from n - 1: a sweep fetches each family's
        # row at most once per block of tuples that share n, where it fetched
        # both twice per tuple.  The first n of a window fetches, and so does
        # a block with a modulus above n; an m axis of 1..n, or a static one
        # that skips no level, then steps every level, so the window's later
        # blocks fetch nothing
        grids = [GridSpec(TheoremId.SC3, ns=(n,), primes=(2, 3), alphas=(1, 2),
                          ms=range(1, n + 1), a_values=range(-2, 1)) for n in range(1, 8)]
        grids += [GridSpec(TheoremId.SC3, ns=(n,), primes=(2, 3), alphas=(1,),
                           ms=range(1, n + 1), a_values=range(-2, 1)) for n in range(20, 24)]
        grids.append(GridSpec(TheoremId.SC1, ns=(*range(30, 36), 38, 39), primes=(2, 3),
                              ms=(1, 2), a_values=range(-2, 1)))
        verifier.ensure_tables(grids)
        real, calls = triangles.ensure_rows, []

        def counted(family, n):
            calls.append((family, n))
            return real(family, n)

        monkeypatch.setattr(triangles, "ensure_rows", counted)
        results = [res for _, chunk in iter_chunks(grids, 1) for res in chunk]
        assert len(results) == 4 * 28 * 3 + 2 * 86 * 3 + 8 * 2 * 2 * 3
        assert len(calls) == len(set(calls))
        assert {n for _, n in calls} == {*range(1, 8), 20, 30, 38}  # 38 follows a gap
        monkeypatch.undo()
        assert [rec for res in results for rec in res.records()] == [
            check_claim(grid.theorem, params) for grid in grids for params in grid_params(grid)]

    def test_the_bound_is_worked_out_once_per_value_of_what_it_reads(self, monkeypatch):
        # sc3's bound names (n, p, alpha, m) and not a: with a innermost, a
        # sweep works it out once per six tuples.  A bound that takes only
        # **params reads every parameter, a too: it is worked out for every
        # tuple, and a stale one would not match check_claim's
        grid = GridSpec(TheoremId.SC3, ns=(5, 6), primes=(2, 3), alphas=(1,), ms=(1, 2),
                        a_values=range(-2, 4))
        wiring = THEOREMS[TheoremId.SC3]
        seen = []

        def named(n, p, alpha, m, **_):
            seen.append((n, p, alpha, m))
            return wiring.bound(n=n, p=p, alpha=alpha, m=m)

        def every(**params):
            seen.append(tuple(params.values()))
            return wiring.bound(**params) + params["a"]

        for bound, want in ((named, itertools.product((5, 6), (2, 3), (1,), (1, 2))),
                            (every, itertools.product((5, 6), (2, 3), (1,), (1, 2),
                                                      range(-2, 4)))):
            monkeypatch.setitem(THEOREMS, TheoremId.SC3, wiring._replace(bound=bound))
            del seen[:]
            records = run_grid(grid).records
            assert seen == list(want)
            assert records == [check_claim(grid.theorem, params) for params in grid_params(grid)]

    def test_a_per_residue_sweep_checks_only_its_classes(self, monkeypatch):
        # ec1 has no one-pass sums, and its per-residue kernels check nothing;
        # the grid has checked every value, so the sweep checks no tuple's
        # parameters: what is left is each ResidueClass checking its own d and
        # r, one per residue (the plan builds no class of its own)
        grid = GridSpec(TheoremId.EC1, ns=range(3, 9), primes=(2, 3), alphas=(1, 2),
                        ls=(0, 1))
        checks = []
        for module in (verifier, filtered_sums, bounds, triangles):
            def counted(real=module.check_params, **params):
                checks.append(params)
                return real(**params)
            monkeypatch.setattr(module, "check_params", counted)
        records = run_grid(grid).records
        tuples = list(verifier._grid_tuples(grid))
        assert len(tuples) == 6 * 2 * 2 * 2
        assert THEOREMS[TheoremId.EC1].sums is None
        expected = []
        for params in tuples:
            d = THEOREMS[TheoremId.EC1].modulus(**params)
            expected += [{"d": d, "r": r} for r in range(d)]
        assert checks == expected
        monkeypatch.undo()
        assert records == [check_claim(grid.theorem, params) for params in grid_params(grid)]

    def test_p_is_still_checked(self, monkeypatch):
        # evaluate_tuple takes each residue's order unchecked, after its
        # parameter check has checked p once for the tuple
        with pytest.raises(ParameterError, match="p must be a prime"):
            evaluate_tuple("wan-strong", {"n": 9, "p": 4, "alpha": 1, "l": 0})
        with pytest.raises(ParameterError, match="p must be a prime"):
            ord_p(8, 4)
        # the parameter check checks p; _FleckLevels.sums, the tuple's one
        # sum, takes no p, and none of the nine orders checks it
        checks = []
        real_params, real_prime = verifier.check_params, exactmath.check_prime

        def counted_params(**params):
            checks.append("check_params")
            return real_params(**params)

        def counted_prime(p):
            checks.append(p)
            return real_prime(p)

        monkeypatch.setattr(verifier, "check_params", counted_params)
        monkeypatch.setattr(exactmath, "check_prime", counted_prime)
        records = evaluate_tuple("wan-strong", {"n": 9, "p": 3, "alpha": 2, "l": 0}).records()
        assert len(records) == 9 and checks == ["check_params", 3]

    def test_sc2_checks_p_only_in_its_grid(self, monkeypatch):
        # `verify sc2 --n 1..30 --p 2,3 --a=-1,1,2 --f 0,0,1`: 180 tuples and
        # 270 claims.  The grid checks each prime once; each tuple works out
        # p**ord_p(n!) once with l and C(n, l), by the unchecked Legendre
        # count, and its per-residue sums check nothing.  (A comparison per
        # claim, as check_claim makes, checks p three more times a claim.)
        # Every check of p, check_params' included, is exactmath.check_prime.
        checks = []
        real = exactmath.check_prime

        def counted(p):
            checks.append(p)
            return real(p)

        monkeypatch.setattr(exactmath, "check_prime", counted)
        grid = GridSpec(TheoremId.SC2, ns=range(1, 31), primes=(2, 3), a_values=(-1, 1, 2),
                        polys=(IntPolynomial((0, 0, 1)),))
        verifier.ensure_tables([grid])
        results = [res for _, chunk in iter_chunks([grid], 1) for res in chunk]
        assert sum(len(res.residues) for res in results) == 270
        assert len(results) == 180 and checks == [2, 3]
        records = [rec for res in results for rec in res.records()]
        assert records == [check_claim(grid.theorem, params) for params in grid_params(grid)]

    @pytest.mark.parametrize("theorem, axes", [
        (TheoremId.SC3, {"alphas": (1, 2), "ms": (1, 2, 5), "a_values": (-1, 2)}),
        (TheoremId.SC1, {"ms": (1, 2, 5), "a_values": (-1, 2)}),
        (TheoremId.DAVIS_SUN_B, {"alphas": (1, 2), "ls": (0, 3)}),
        (TheoremId.EC2, {"alphas": (1, 2), "a_values": (1, 3)}),
    ])
    def test_a_sweeps_bounds_check_nothing(self, theorem, axes, monkeypatch):
        # the grid checks each prime when it is built, so the bounds
        # (ord_p(m!) and ord_p(n!) among them) and the orders check p no more
        grid = GridSpec(theorem, ns=range(1, 25), primes=(2, 3), **axes)
        verifier.ensure_tables([grid])
        checks = []
        monkeypatch.setattr(exactmath, "check_prime", checks.append)
        results = [res for _, chunk in iter_chunks([grid], 1) for res in chunk]
        assert checks == []
        monkeypatch.undo()
        records = [rec for res in results for rec in res.records()]
        assert records == [check_claim(grid.theorem, params) for params in grid_params(grid)]


#: A parameter below its minimum, or a p that is not prime, for each check
BAD_PARAMS = [
    ("sun", {"n": 5, "p": 2, "alpha": 1, "beta": -1, "l": 0}),
    ("weisman", {"n": 5, "p": 2, "alpha": -1}),
    ("weisman", {"n": 5, "p": 2, "alpha": 0}),
    ("wan", {"n": 5, "p": 2, "l": -1}),
    ("sc1", {"n": 5, "p": 2, "m": 0, "a": 1}),
    ("fleck", {"n": 0, "p": 2}),
    ("sc3", {"n": 5, "p": 4, "alpha": 1, "m": 1, "a": 1}),
]


class TestParameterCheck:
    @pytest.mark.parametrize("path", ["check_claim", "evaluate_tuple"])
    @pytest.mark.parametrize("theorem, params", BAD_PARAMS)
    def test_bad_parameter_fails_as_in_a_grid(self, theorem, params, path):
        # before the class modulus reads it (sun's p**beta, weisman's p**alpha)
        with pytest.raises(ParameterError) as grid_error:
            GridSpec(TheoremId(theorem), **{AXIS_FIELDS[k]: (v,) for k, v in params.items()})
        with pytest.raises(ParameterError) as claim_error:
            if path == "check_claim":
                check_claim(theorem, {**params, "r": 0})
            else:
                evaluate_tuple(theorem, params)
        assert str(claim_error.value) == str(grid_error.value)

    def test_parameters_the_theorem_does_not_take_are_dropped(self):
        want = {"n": 5, "p": 2, "d": 2, "r": 0}
        assert check_claim("fleck", {"n": 5, "p": 2, "r": 0, "alpha": 3}).params == want
        assert evaluate_tuple("fleck", {"n": 5, "p": 2, "alpha": 3}).records()[0].params == want


class TestChunks:
    @settings(max_examples=200, deadline=None)
    @given(grids(), st.integers(1, 40))
    def test_chunks_cut_the_records_at_tuple_boundaries(self, grid, size):
        records = run_grid(grid).records
        chunks = list(iter_chunks([grid], size))
        assert [rec for _, chunk in chunks for res in chunk for rec in res.records()] == records
        # each chunk's summary is the tally of its records
        assert [summary.to_json_dict() for summary, _ in chunks] == [
            report_summary([rec for res in chunk for rec in res.records()])
            for _, chunk in chunks]
        # a chunk takes whole tuples until it holds at least size claims
        want = []
        for params in verifier._grid_tuples(grid):
            if not want or want[-1] >= size:
                want.append(0)
            want[-1] += len(evaluate_tuple(grid.theorem, params, grid.residues).residues)
        assert [sum(len(res.residues) for res in chunk) for _, chunk in chunks] == want

    def test_fail_fast_cuts_the_chunk_after_the_first_violation(self, monkeypatch):
        # one tuple of the fourth chunk gets an unreachable bound: with
        # fail_fast the chunks before it are kept whole, its tuple's columns
        # are cut right after its first VIOLATION, and no later tuple is
        # evaluated
        wiring = THEOREMS[TheoremId.WAN_STRONG]

        def bound(**params):
            return 10**6 if tuple(params.values()) == (2, 3, 2, 0) else wiring.bound(**params)

        monkeypatch.setitem(THEOREMS, TheoremId.WAN_STRONG, wiring._replace(bound=bound))
        grid = GridSpec(TheoremId.WAN_STRONG, ns=range(1, 11), primes=(2, 3), alphas=(1, 2),
                        ls=(0, 1))
        full = list(iter_chunks([grid], 16))
        evaluated = []
        real_evaluate = verifier._Plan.evaluate

        def counted(plan, params, *found):
            evaluated.append(tuple(params.values()))
            return real_evaluate(plan, params, *found)

        monkeypatch.setattr(verifier._Plan, "evaluate", counted)
        cut = list(iter_chunks([grid], 16, fail_fast=True))
        records = [rec for _, chunk in full for res in chunk for rec in res.records()]
        verdicts = [rec.verdict for rec in records]
        want = records[:verdicts.index(Verdict.VIOLATION) + 1]
        assert [rec for _, chunk in cut for res in chunk for rec in res.records()] == want
        assert len(cut) == 4
        assert cut[:-1] == full[:3]
        summary, last = cut[-1]
        assert summary.to_json_dict() == report_summary(
            [rec for res in last for rec in res.records()])
        assert last[-1].verdicts == last[-1].verdicts[:-1] + [Verdict.VIOLATION]
        assert len(last[-1].residues) < 9  # part-way through the tuple's residues
        assert evaluated[-1] == (2, 3, 2, 0)

    def test_chunks_span_grids(self):
        grids = [GridSpec(TheoremId.SC3, ns=(n,), primes=(2,), alphas=(1,), ms=range(1, n + 1),
                          a_values=(1,)) for n in range(1, 9)]
        # 2 claims per tuple, n tuples for each n: 72 claims
        chunks = list(iter_chunks(grids, 10))
        assert [sum(len(res.residues) for res in chunk) for _, chunk in chunks] == [10] * 7 + [2]
        assert [rec for _, chunk in chunks for res in chunk
                for rec in res.records()] == run_grids(grids).records


VERDICTS = list(Verdict)


@st.composite
def record_lists(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from(VERDICTS), st.none() | st.integers(-9, 9)),
                         max_size=30))
    return [ClaimRecord(TheoremId.FLECK, {"n": i}, None, None, None, verdict, margin)
            for i, (verdict, margin) in enumerate(rows)]


class TestGridSummary:
    @given(record_lists(), st.lists(st.integers(0, 30), max_size=5))
    def test_merged_parts_equal_one_summary(self, records, cuts):
        cuts = sorted({min(c, len(records)) for c in cuts} | {0, len(records)})
        merged = GridSummary()
        for lo, hi in zip(cuts, cuts[1:]):
            merged.merge(GridSummary(**report_summary(records[lo:hi])))
        assert merged.to_json_dict() == report_summary(records)
