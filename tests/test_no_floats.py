"""No floats anywhere: every module of the package computes over the integers.

The guard reads each module's syntax tree, so it sees code that no test
runs.  It refuses a float literal, a true division (``/`` or ``/=``), a
``float(...)`` call, and a ``math`` function or constant whose value is a
float, whether reached as ``math.name`` or imported by name.
"""

import ast
from pathlib import Path

import pytest

import congruence_lab

#: the names in math whose value, or whose result, is a float
MATH_FLOATS = frozenset(
    "acos acosh asin asinh atan atan2 atanh cbrt copysign cos cosh degrees dist e erf erfc "
    "exp exp2 expm1 fabs fma fmod frexp fsum gamma hypot inf ldexp lgamma log log10 log1p "
    "log2 modf nan nextafter pi pow radians remainder sin sinh sqrt sumprod tan tanh tau "
    "ulp".split())

MODULES = sorted(Path(congruence_lab.__file__).parent.glob("*.py"))


def float_nodes(source: str) -> list[str]:
    """Each float construct in ``source``, as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            what = "float() call"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and node.attr in MATH_FLOATS:
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [alias.name for alias in node.names if alias.name in MATH_FLOATS | {"*"}]
            what = names and f"from math import {', '.join(names)}"
        if what:
            found.append(f"{node.lineno}: {what}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_module_computes_with_floats(path):
    assert float_nodes(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("x = 0.5", ["1: float literal 0.5"]),
    ("y = x / 2", ["1: true division"]),
    ("x /= 2", ["1: true division"]),
    ("y = float(x)", ["1: float() call"]),
    ("y = math.log(x, 2)", ["1: math.log"]),
    ("y = math.sqrt(x)", ["1: math.sqrt"]),
    ("from math import comb, fsum", ["1: from math import fsum"]),
    # the integer forms stay allowed
    ("y = x // 2\nx //= 2\ny = math.comb(x, 2) + math.isqrt(x) + int(x)", []),
])
def test_the_guard_sees_each_float_construct(source, found):
    assert float_nodes(source) == found
