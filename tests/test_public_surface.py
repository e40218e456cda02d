"""The package's public surface: the README's library example gives the
results its comments show, its CLI examples exit 0 with the output it shows,
every name a module exports exists, and the benchmark's tracer finds every
name it reads."""

import ast
import copy
import importlib
import itertools
import os
import pickle
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import congruence_lab
from congruence_lab import cli

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


def _cli_examples() -> list[tuple[list[str], list[str]]]:
    """The arguments of every `congruence-lab` line in the README's shell
    blocks, each with the output lines the README shows under it."""
    examples: list = []
    fence = shown = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fence, shown = (line[3:] if fence is None else None), None
        elif fence == "" and line.startswith("congruence-lab "):
            shown = []
            examples.append((shlex.split(line)[1:], shown))
        elif fence == "" and line and shown is not None:
            shown.append(line)
    return examples


@pytest.mark.parametrize("argv, shown", [
    pytest.param(argv, shown, id=" ".join(argv[:2])) for argv, shown in _cli_examples()
])
def test_readme_cli_example_exits_0_with_the_shown_output(argv, shown, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.chdir(tmp_path)  # the examples' --out files land here
    assert cli.main(argv) == 0
    if shown:
        assert capsys.readouterr().out.splitlines() == shown


def test_readme_cli_examples_are_found():
    examples = _cli_examples()
    assert len(examples) == 9
    assert [shown for _, shown in examples if shown] == [["4 / ord_2 = 2"], ["18 / ord_3 = 2"]]


def _readme_flag_table(header: str) -> dict[str, dict[str, str]]:
    """The README table whose header row starts with ``header``: the flags
    of each entry, with the default text each shows."""
    lines = README.read_text(encoding="utf-8").split(f"\n{header} |", 1)[1].splitlines()
    table = {}
    for row in itertools.takewhile(lambda line: line.startswith("|"), lines[2:]):
        entries, flags = row.strip("| ").split(" | ")
        for entry in entries.split(", "):
            table[entry.strip("`")] = {
                name.strip("`").removeprefix("--").replace("-", "_"): default
                for names, default in re.findall(r"(\S+) \(([^)]*)\)", flags)
                for name in names.split("/")
            }
    return table


def _shown(default) -> str:
    if default is None:
        return "optional"
    if isinstance(default, tuple):
        return ",".join(map(str, default))
    return "needed" if default is cli._NEEDED else str(default)


@pytest.mark.parametrize("header, table", [("| kind", "_SUM_FLAGS"),
                                           ("| suite", "_IDENTITY_FLAGS")])
def test_the_readme_flag_tables_are_the_cli_tables(header, table):
    expected = {entry.lower(): {name: _shown(default) for name, default in flags.items()}
                for entry, flags in getattr(cli, table).items()}
    assert _readme_flag_table(header) == expected


def test_every_exported_name_resolves(monkeypatch):
    # dir() lists the exports before they are first read and imported
    for name in congruence_lab._MODULE_OF:
        monkeypatch.delitem(vars(congruence_lab), name, raising=False)
    assert set(congruence_lab.__all__) <= set(dir(congruence_lab))
    modules = [congruence_lab] + [
        importlib.import_module(f"congruence_lab.{info.name}")
        for info in pkgutil.iter_modules(congruence_lab.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert len([m for m in modules if hasattr(m, "__all__")]) > 1


def _traced_run(tmp_path, argv: str) -> None:
    root = README.parent
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(tmp_path), *argv.split(),
         "--no-timestamp", "--out", str(tmp_path / "r.json")],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_the_benchmark_tracer_installs(tmp_path):
    # perfbench/tracer.py patches the program by name: a missing function only
    # prints "not traced", but an attribute it reads without a guard (such as
    # bounds.BoundSpec, a bare name kept for that read) fails the traced run
    _traced_run(tmp_path, "verify fleck --n 1..3 --p 2")


@pytest.mark.parametrize("argv", [
    "verify sun --n 1..5 --p 2 --alpha 1 --beta 0 --l 0",
    "verify wan --n 1..6 --p 3 --l 0,1 --r 1",
])
def test_the_benchmark_tracer_counts_a_per_residue_sum(argv, tmp_path):
    # no benchmark workload calls a per-residue sum; the tracer counts the
    # members of the ResidueClass it finds among such a sum's arguments
    _traced_run(tmp_path, argv)


def test_value_classes_behave_as_frozen_records():
    from congruence_lab import ResidueClass
    from congruence_lab.verifier import GridSpec, GridSummary

    cls = ResidueClass(3, 4)
    assert repr(cls) == "ResidueClass(modulus=3, residue=1)"
    assert cls == ResidueClass(3, 1) and cls != ResidueClass(3, 2) and cls != (3, 1)
    assert hash(cls) == hash(ResidueClass(3, -2))
    with pytest.raises(AttributeError):
        cls.residue = 2
    with pytest.raises(AttributeError, match="^cannot delete field 'residue'$"):
        del cls.residue
    grid = GridSpec("fleck", ns=(3, 1), primes=(2,))
    assert repr(grid) == ("GridSpec(theorem=<TheoremId.FLECK: 'fleck'>, ns=(1, 3), primes=(2,), "
                          "alphas=(), betas=(), ls=(), ms=(), a_values=(), residues='all', "
                          "polys=())")
    for value in (cls, grid, congruence_lab.PAdicOrder(2), congruence_lab.IntPolynomial((1, 0))):
        assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value
    summary = GridSummary()
    summary.total = 2  # a tally is mutable, and so not hashable
    assert summary == GridSummary(2)
    with pytest.raises(TypeError):
        hash(summary)
