"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import math
import random
import time

from congruence_lab import identities, triangles, verifier
from congruence_lab.bounds import THEOREMS, TheoremId
from congruence_lab.cli import main
from congruence_lab.exactmath import IntPolynomial, ord_p
from congruence_lab.filtered_sums import (
    ResidueClass,
    binom_power_sum,
    eulerian_power_sum,
    eulerian_wan_sum,
    fleck_sum,
    stirling_poly_sum,
    stirling_product_sum,
)
from congruence_lab.verifier import GridSpec, Verdict, check_claim, run_grids

from oracles import (
    eulerian_by_enumeration,
    naive_filtered_sum,
    stirling1_by_enumeration,
    stirling2_by_enumeration,
)


def report(criterion: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} ({elapsed:.1f}s)")


def run_and_count(grids) -> verifier.GridResult:
    return run_grids(grids)


def test_criterion_1_classical_congruences():
    t0 = time.perf_counter()
    grids = [
        GridSpec(TheoremId.FLECK, ns=range(1, 81), primes=(2, 3, 5, 7)),
        GridSpec(TheoremId.WEISMAN, ns=range(1, 121), primes=(2, 3), alphas=(1, 2, 3)),
        GridSpec(TheoremId.WAN, ns=range(1, 81), primes=(2, 3, 5, 7), ls=range(5)),
        GridSpec(
            TheoremId.WAN_STRONG, ns=range(1, 121), primes=(2, 3), alphas=(1, 2, 3), ls=range(5)
        ),
        GridSpec(TheoremId.DAVIS_SUN_A, ns=range(1, 81), primes=(2, 3, 5), alphas=(1, 2), ls=range(4)),
        GridSpec(TheoremId.DAVIS_SUN_B, ns=range(1, 81), primes=(2, 3, 5), alphas=(1, 2), ls=range(4)),
    ]
    for p in (2, 3):
        for alpha in (1, 2, 3):
            grids.append(
                GridSpec(
                    TheoremId.SUN,
                    ns=range(p ** (alpha - 1), 101),
                    primes=(p,),
                    alphas=(alpha,),
                    betas=range(alpha + 1),
                    ls=range(4),
                )
            )
    result = run_and_count(grids)
    elapsed = time.perf_counter() - t0
    violations = result.violations
    ok = violations == 0 and elapsed < 120.0
    report(1, ok, f"classical grids, {result.summary.total} claims, {violations} violations", elapsed)
    assert violations == 0, result.summary.first_violation
    assert elapsed < 120.0


def test_criterion_2_eulerian_theorems():
    t0 = time.perf_counter()
    grids = [
        GridSpec(TheoremId.EC1, ns=range(1, 61), primes=(2, 3, 5), alphas=(1, 2), ls=(0, 1, 2))
    ]
    for p in (2, 3, 5):
        for alpha in (1, 2):
            a_set = sorted({1, 1 + p, 1 - p, 1 + 2 * p, 1 - 3 * p})
            grids.append(
                GridSpec(
                    TheoremId.EC2,
                    ns=range(p**alpha, 61),
                    primes=(p,),
                    alphas=(alpha,),
                    a_values=a_set,
                )
            )
    result = run_and_count(grids)
    elapsed = time.perf_counter() - t0
    ok = result.violations == 0 and elapsed < 120.0
    report(2, ok, f"eulerian grids, {result.summary.total} claims, {result.violations} violations", elapsed)
    assert result.violations == 0, result.summary.first_violation
    assert elapsed < 120.0


def test_criterion_3_stirling_mod_p_minus_1():
    t0 = time.perf_counter()
    grids = [
        GridSpec(TheoremId.SC1, ns=(n,), primes=(2, 3, 5), ms=range(1, n + 1), a_values=range(-2, 4))
        for n in range(1, 51)
    ]
    polys = tuple(
        IntPolynomial(c)
        for c in ((1,), (0, 1), (0, 0, 1), (0, 0, 0, 1), (1, 1, 1), (0, -1, 0, 3))
    )
    grids.append(
        GridSpec(TheoremId.SC2, ns=range(1, 51), primes=(2, 3, 5), a_values=range(-2, 4), polys=polys)
    )
    result = run_and_count(grids)
    elapsed = time.perf_counter() - t0
    ok = result.violations == 0 and elapsed < 180.0
    report(3, ok, f"stirling mod p-1 grids, {result.summary.total} claims, {result.violations} violations", elapsed)
    assert result.violations == 0, result.summary.first_violation
    assert elapsed < 180.0


def test_criterion_4_stirling_prime_power():
    t0 = time.perf_counter()
    grids = [
        GridSpec(
            TheoremId.SC3,
            ns=(n,),
            primes=(2, 3),
            alphas=(1, 2),
            ms=range(1, min(n, 10) + 1),
            a_values=range(-2, 4),
        )
        for n in range(1, 81)
    ]
    result = run_and_count(grids)
    elapsed = time.perf_counter() - t0
    ok = result.violations == 0 and elapsed < 120.0
    report(4, ok, f"stirling prime-power grid, {result.summary.total} claims, {result.violations} violations", elapsed)
    assert result.violations == 0, result.summary.first_violation
    assert elapsed < 120.0


def test_criterion_5_identity_suite():
    t0 = time.perf_counter()
    failed = []
    total = 0
    for identity in identities.IDENTITY_IDS:
        for result in identities.suite(identity):
            total += 1
            if not result.passed:
                failed.append(result)
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed < 60.0
    report(5, ok, f"identity suite, {total} checks, {len(failed)} failures", elapsed)
    assert not failed, failed[:3]
    assert elapsed < 60.0


def test_criterion_6_spot_tightness():
    t0 = time.perf_counter()
    rec = check_claim(TheoremId.FLECK, {"n": 3, "p": 2, "r": 0})
    fleck_ok = (rec.total, rec.order, rec.verdict) == (4, 2, Verdict.TIGHT)
    rec = check_claim(TheoremId.EC2, {"n": 4, "p": 2, "alpha": 1, "a": 3, "r": 1})
    ec2_ok = (rec.total, rec.order, rec.verdict) == (60, 2, Verdict.TIGHT)
    rec = check_claim(TheoremId.SC1, {"n": 4, "p": 3, "m": 2, "a": 1, "r": 0})
    sc1_ok = (rec.total, rec.margin, rec.verdict) == (18, 1, Verdict.HOLDS)
    spot_sums_ok = (
        fleck_sum(5, ResidueClass(2, 0), 1) == 20
        and eulerian_wan_sum(3, ResidueClass(2, 0), 0) == 2
        and eulerian_wan_sum(3, ResidueClass(2, 0), 1) == 1
        and binom_power_sum(2, ResidueClass(2, 1), 3) == -6
        and stirling_product_sum(4, 1, ResidueClass(2, 0), 1) == 12
        and stirling_poly_sum(3, IntPolynomial((0, 1)), ResidueClass(2, 1), 1) == 5
    )
    elapsed = time.perf_counter() - t0
    ok = fleck_ok and ec2_ok and sc1_ok and spot_sums_ok
    report(6, ok, "spot tuples reproduce exactly", elapsed)
    assert fleck_ok and ec2_ok and sc1_ok and spot_sums_ok


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(987654321)
    mismatches = 0
    for _ in range(1000):
        family = rng.choice(["fleck", "floor", "bpow", "ewan", "epow", "cdr", "spoly"])
        n = rng.randint(1, 32)
        p = rng.choice([2, 3, 5])
        alpha = rng.randint(1, 2)
        l = rng.randint(0, 3)
        a = rng.randint(-3, 3)
        d = p**alpha
        r = rng.randint(-2 * d, 2 * d)
        cls = ResidueClass(d, r)
        rc = cls.residue
        if family == "fleck":
            got = fleck_sum(n, cls, l)
            want = naive_filtered_sum(
                n, d, rc, lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - rc) // d, l)
            )
        elif family == "floor":
            beta = rng.randint(0, alpha)
            cls_b = ResidueClass(p**beta, r)
            rb = cls_b.residue
            got = THEOREMS[TheoremId.SUN].sum(cls_b, n=n, p=p, alpha=alpha, beta=beta, l=l)
            want = naive_filtered_sum(
                n, p**beta, rb,
                lambda k: math.comb(n, k) * (-1) ** k * math.comb((k - rb) // d, l),
            )
        elif family == "bpow":
            got = binom_power_sum(n, cls, a)
            want = naive_filtered_sum(n, d, rc, lambda k: math.comb(n, k) * (-a) ** k)
        elif family == "ewan":
            got = eulerian_wan_sum(n, cls, l)
            want = naive_filtered_sum(
                n - 1, d, rc,
                lambda k: triangles.eulerian(n, k) * math.comb((k - rc) // d, l),
            )
        elif family == "epow":
            got = eulerian_power_sum(n, cls, a)
            want = naive_filtered_sum(n - 1, d, rc, lambda k: triangles.eulerian(n, k) * a**k)
        elif family == "cdr":
            m = rng.randint(1, 12)
            dd = rng.randint(1, 12)
            cls_d = ResidueClass(dd, r)
            rd = cls_d.residue
            got = stirling_product_sum(n, m, cls_d, a)
            want = naive_filtered_sum(
                n, dd, rd,
                lambda k: triangles.stirling1(n, k) * triangles.stirling2(k, m) * a**k,
            )
        else:
            f = IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 4))))
            dd = rng.randint(1, 12)
            cls_d = ResidueClass(dd, r)
            rd = cls_d.residue
            got = stirling_poly_sum(n, f, cls_d, a)
            want = naive_filtered_sum(
                n, dd, rd, lambda k: triangles.stirling1(n, k) * f(k) * a**k
            )
        if got != want:
            mismatches += 1

    triangle_ok = True
    for n in range(8):
        for k in range(n + 2):
            if triangles.stirling1(n, k) != stirling1_by_enumeration(n, k):
                triangle_ok = False
    for n in range(9):
        for k in range(n + 2):
            if triangles.stirling2(n, k) != stirling2_by_enumeration(n, k):
                triangle_ok = False
    for n in range(1, 8):
        for k in range(n + 1):
            if triangles.eulerian(n, k) != eulerian_by_enumeration(n, k):
                triangle_ok = False

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and triangle_ok
    report(7, ok, f"1000 random filtered sums vs naive loop, {mismatches} mismatches; "
                  f"triangles vs enumeration {'ok' if triangle_ok else 'MISMATCH'}", elapsed)
    assert mismatches == 0
    assert triangle_ok


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    payloads = {}
    for fmt in ("json", "csv"):
        outputs = []
        for workers in (1, 5):
            out = tmp_path / f"report-{fmt}-{workers}.{fmt}"
            code = main([
                "verify", "ec1", "--p", "2,3", "--alpha", "1,2", "--l", "0,1",
                "--n", "1..25", "--r", "all", "--workers", str(workers),
                "--no-timestamp", "--format", fmt, "--out", str(out),
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        payloads[fmt] = outputs
    json_ok = payloads["json"][0] == payloads["json"][1]
    csv_ok = payloads["csv"][0] == payloads["csv"][1]
    round_trip = json.dumps(
        json.loads(payloads["json"][0].decode("utf-8")), indent=2, sort_keys=True
    ) + "\n" == payloads["json"][0].decode("utf-8")
    elapsed = time.perf_counter() - t0
    ok = json_ok and csv_ok and round_trip
    report(8, ok, "1 vs 5 workers byte-identical (json and csv), canonical round-trip", elapsed)
    assert json_ok and csv_ok and round_trip
