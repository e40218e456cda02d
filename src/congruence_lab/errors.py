"""The package's exception types.  The CLI exits 3 on a :class:`CapacityError`
and 2 on any other :class:`CongruenceLabError`."""


class CongruenceLabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(CongruenceLabError, ValueError):
    """A parameter is malformed or inconsistent (composite prime, missing
    grid axis, ...)."""


class CapacityError(CongruenceLabError):
    """A triangle row above ``triangles.ROW_LIMIT`` was requested."""
