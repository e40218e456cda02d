"""The three `congruence-lab verify` workloads, generated from a seed.

The seed moves one window of the grid without changing its shape, so a
workload's claim count does not depend on the seed.  Seeds that agree modulo
a workload's ``period`` give the same grid; seed 0 gives the base grid.

This module knows the grid shapes on its own (it does not ask the program),
so the expected claim count and record order are an independent check on
the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Workload:
    name: str
    theorem: str
    ns: range
    primes: tuple[int, ...]
    alphas: tuple[int, ...]
    ls: tuple[int, ...] = ()
    a_values: range | None = None  # set for sc3, whose m axis runs 1..n
    fmt: str = "json"
    workers: int = 1
    shifted_axis: str = "n"  # the axis the seed moves: "n" or "a"
    period: int = 1

    def shift(self, seed: int) -> int:
        return seed % self.period

    def axes(self, seed: int) -> tuple[range, range | None]:
        """The (n, a) axes for ``seed``."""
        s = self.shift(seed)
        if self.shifted_axis == "n":
            return range(self.ns.start + s, self.ns.stop + s), self.a_values
        a = self.a_values
        return self.ns, range(a.start + s, a.stop + s)

    def argv(self, seed: int) -> list[str]:
        """The `congruence-lab` arguments, without ``--out``."""
        ns, a_values = self.axes(seed)
        out = [
            "verify", self.theorem,
            f"--n={ns.start}..{ns.stop - 1}",
            "--p=" + ",".join(map(str, self.primes)),
            "--alpha=" + ",".join(map(str, self.alphas)),
        ]
        if self.ls:
            out.append(f"--l={self.ls[0]}..{self.ls[-1]}")
        if a_values is not None:
            out += ["--m=1..n", f"--a={a_values.start}..{a_values.stop - 1}"]
        out += [
            "--format", self.fmt,
            "--workers", str(self.workers),
            "--no-timestamp",
        ]
        return out

    def modulus(self, p: int, alpha: int) -> int:
        return p**alpha * (p - 1) if self.theorem == "sc3" else p**alpha

    def expected_params(self, seed: int) -> Iterator[dict[str, int]]:
        """Every claim's parameters, in report order."""
        ns, a_values = self.axes(seed)
        for n in ns:
            for p in self.primes:
                for alpha in self.alphas:
                    d = self.modulus(p, alpha)
                    if self.theorem == "sc3":
                        for m in range(1, n + 1):
                            for a in a_values:
                                for r in range(d):
                                    yield {"n": n, "p": p, "alpha": alpha, "m": m,
                                           "a": a, "d": d, "r": r}
                    else:
                        for l in self.ls:
                            for r in range(d):
                                yield {"n": n, "p": p, "alpha": alpha, "l": l,
                                       "d": d, "r": r}

    def claim_count(self) -> int:
        per_n = sum(self.modulus(p, alpha) for p in self.primes for alpha in self.alphas)
        if self.theorem == "sc3":
            return per_n * len(self.a_values) * sum(self.ns)
        return per_n * len(self.ls) * len(self.ns)

    def grids(self, seed: int) -> list:
        """The program's `GridSpec`s for ``seed`` (imports the program)."""
        from congruence_lab.verifier import GridSpec

        ns, a_values = self.axes(seed)
        common = dict(theorem=self.theorem, primes=self.primes, alphas=self.alphas)
        if self.theorem == "sc3":
            return [GridSpec(ns=(n,), ms=range(1, n + 1), a_values=a_values, **common)
                    for n in ns]
        return [GridSpec(ns=ns, ls=self.ls, **common)]


# why each workload was chosen is in BENCHMARK.json and README.md
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sc3-sweep",
            theorem="sc3",
            ns=range(1, 41),
            primes=(2, 3),
            alphas=(1, 2),
            a_values=range(-2, 4),
            shifted_axis="a",
            period=5,
        ),
        Workload(
            name="binom-deep",
            theorem="wan-strong",
            ns=range(600, 651),
            primes=(2, 3),
            alphas=(1, 2),
            ls=(0, 1, 2, 3),
            period=4,
        ),
        Workload(
            name="pool-csv",
            theorem="wan-strong",
            ns=range(1, 121),
            primes=(2, 3),
            alphas=(1, 2, 3),
            ls=(0, 1, 2, 3, 4),
            fmt="csv",
            workers=2,
            period=2,
        ),
    )
}
