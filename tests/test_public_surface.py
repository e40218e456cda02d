"""The package's public surface: the README's library example gives the
results its comments show, and every name a module exports exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import congruence_lab

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_gives_the_commented_results():
    source = _library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        code = ast.Module(body=[node], type_ignores=[])
        if not isinstance(node, ast.Expr):
            exec(compile(code, str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        # the result is commented on the expression's last line, or on the next
        last = lines[node.end_lineno - 1]
        comment = last.partition("#")[2] or lines[node.end_lineno].partition("#")[2]
        assert repr(value) == comment.strip()
        checked.append(comment.strip())
    assert checked == ["60", "PAdicOrder(2)", "<Verdict.TIGHT: 'TIGHT'>", "0"]


def test_every_exported_name_resolves():
    modules = [congruence_lab] + [
        importlib.import_module(f"congruence_lab.{info.name}")
        for info in pkgutil.iter_modules(congruence_lab.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert len([m for m in modules if hasattr(m, "__all__")]) > 1
