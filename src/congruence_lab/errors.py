"""Exception types shared across the package."""


class CongruenceLabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CongruenceLabError, ValueError):
    """A parameter is malformed or inconsistent (composite prime, modulus
    mismatch, missing grid axis, ...)."""


class CapacityError(CongruenceLabError):
    """A triangle row above ``triangles.ROW_LIMIT`` was requested."""


class TriangleInvariantError(CongruenceLabError):
    """A triangle fails its invariant checks (row sums, generating identity)."""
