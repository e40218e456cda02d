"""congruence-lab: exact-arithmetic verification of Fleck/Weisman-type and
Davis-Sun-type congruences for binomial, Stirling and Eulerian numbers.

The package computes the number triangles and residue-class filtered sums
exactly (arbitrary-precision integers throughout), evaluates the p-adic order
of every sum against the claimed lower-bound exponent, and sweeps parameter
grids to classify each claim as holding, tight, vacuous or violated.
"""

import importlib

#: the module of each name the package exports; it is imported when the name
#: is first read (PEP 562), so that ``python -m congruence_lab.cli`` loads no
#: module that its run does not use
_EXPORTS = {
    "bounds": ("TheoremId", "sc2_comparison"),
    "errors": ("CapacityError", "CongruenceLabError", "ParameterError"),
    "exactmath": ("INFINITY", "IntPolynomial", "PAdicOrder", "binom", "is_prime", "ord_p",
                  "ord_p_factorial"),
    "filtered_sums": ("ResidueClass", "binom_power_sum", "eulerian_power_sum",
                      "eulerian_wan_sum", "fleck_sum", "stirling_poly_sum",
                      "stirling_product_sum"),
    "identities": ("IdentityCheckResult",),
    "triangles": ("Family", "Triangle", "build"),
    "verifier": ("ClaimRecord", "GridResult", "GridSpec", "GridSummary", "Verdict",
                 "check_claim", "run_grid", "run_grids"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
