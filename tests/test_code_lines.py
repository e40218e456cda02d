"""tools/code_lines.py, the code-line count of the package's modules."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 8 code lines: a docstring, a comment and a blank line count for none, a
# comment after code leaves its line counted, and a multi-line expression or
# string that is not a docstring counts on each of its lines
SOURCE = '''"""A module docstring,
on two lines."""

import math  # a comment after code

# a comment alone


def f(x):
    """A function docstring."""
    total = (x +
             math.pi)
    return """a string
that is not a docstring"""


class C:
    """A class docstring."""
    y = 1
'''


def test_a_source_string_with_a_known_count():
    assert code_lines.code_lines(SOURCE) == 8


def test_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a", "8", "b", "1", "total", "9"]
