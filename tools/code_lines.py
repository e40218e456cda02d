"""Count the code lines of the package's modules, without docstrings, comments or blank lines.

Run from the root of the repository:

    python tools/code_lines.py [DIR]

DIR defaults to src/congruence_lab.  A line counts when it holds a token
that is not a comment and is not part of a module, class or function
docstring; a token that spans lines (a multi-line string) counts on each of
them.  It prints each module's count, largest first, and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code: layout, the encoding marker and comments
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def _docstrings(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    spans = _docstrings(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or any(start <= token.start < end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    folder = Path(argv[0] if argv else "src/congruence_lab")
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(folder.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<16} {count:>6,}")
    print(f"{'total':<16} {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
