"""congruence-lab: exact-arithmetic verification of Fleck/Weisman-type and
Davis-Sun-type congruences for binomial, Stirling and Eulerian numbers.

The package computes the number triangles and residue-class filtered sums
exactly (arbitrary-precision integers throughout), evaluates the p-adic order
of every sum against the claimed lower-bound exponent, and sweeps parameter
grids to classify each claim as holding, tight, vacuous or violated.
"""

from .bounds import (
    BoundSpec,
    TheoremId,
    sc2_comparison,
)
from .errors import (
    CapacityError,
    CongruenceLabError,
    ParameterError,
)
from .exactmath import (
    INFINITY,
    IntPolynomial,
    PAdicOrder,
    binom,
    is_prime,
    ord_p,
    ord_p_factorial,
)
from .filtered_sums import (
    ResidueClass,
    binom_power_sum,
    eulerian_power_sum,
    eulerian_wan_sum,
    fleck_sum,
    stirling_poly_sum,
    stirling_product_sum,
)
from .identities import IdentityCheckResult
from .triangles import Family, Triangle, build
from .verifier import (
    ClaimRecord,
    GridResult,
    GridSpec,
    GridSummary,
    Verdict,
    check_claim,
    run_grid,
    run_grids,
)

__version__ = "0.1.0"

__all__ = [
    "BoundSpec",
    "CapacityError",
    "ClaimRecord",
    "CongruenceLabError",
    "Family",
    "GridResult",
    "GridSpec",
    "GridSummary",
    "INFINITY",
    "IdentityCheckResult",
    "IntPolynomial",
    "PAdicOrder",
    "ParameterError",
    "ResidueClass",
    "TheoremId",
    "Triangle",
    "Verdict",
    "binom",
    "binom_power_sum",
    "build",
    "check_claim",
    "eulerian_power_sum",
    "eulerian_wan_sum",
    "fleck_sum",
    "is_prime",
    "ord_p",
    "ord_p_factorial",
    "run_grid",
    "run_grids",
    "sc2_comparison",
    "stirling_poly_sum",
    "stirling_product_sum",
    "__version__",
]
