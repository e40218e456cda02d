"""Test-session set-up.

Where libcst is installed, Hypothesis imports it to write the patch of a
failing example, and that import warns (mypy_extensions.TypedDict is
deprecated).  As an error, under ``python -W error`` or pytest's own
``-W error``, the warning would end the run in an INTERNALERROR before the
failure is printed, so libcst is imported here once, with the warning
ignored.
"""

import contextlib
import warnings

with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import libcst  # noqa: F401
