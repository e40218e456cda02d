"""The identity suites' options, which the CLI's parser reads without
loading the suites themselves (:mod:`congruence_lab.identities`, which
re-exports these names)."""

from __future__ import annotations

__all__ = ["IDENTITY_IDS", "NONNEGATIVE_OPTIONS", "SUITE_OPTIONS"]


#: the options each suite reads, with their defaults.  n_max bounds n; SCL3E
#: reads scl3e_limit instead, and every prime and alpha up to it when its
#: primes or alphas are None.
SUITE_OPTIONS: dict[str, dict[str, Any]] = {
    "E1": {"n_max": 12, "l_max": 4},
    "E2": {"n_max": 12},
    "S3": {"n_max": 20},
    "SS3": {"n_max": 20},
    "S4": {"n_max": 40, "primes": (2, 3, 5), "alphas": (1, 2)},
    "SCL3E": {"scl3e_limit": 100, "primes": None, "alphas": None},
    "L31": {"n_max": 12, "primes": (2, 3, 5), "count": 200, "seed": 20210},
    "L32": {"n_max": 60},
}

IDENTITY_IDS = tuple(SUITE_OPTIONS)

#: the options that are bounds or counts, each at least 0
NONNEGATIVE_OPTIONS = ("n_max", "l_max", "scl3e_limit", "count")
