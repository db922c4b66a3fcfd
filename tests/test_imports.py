"""Imports and private names: each imported name is used, each private name
is referenced in the package, and the command line needs no scipy, nor
numpy.random for its checks and reconstructions."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import four_lines_values

from colorrep.fileio import save_rep, save_table
from colorrep.generators import conjugated_rep, skew_matrix_algebra
from colorrep.gns import PDFunction
from colorrep.grading import all_degrees
from colorrep.reps import restrict
from colorrep.spaces import GradedSpace

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "colorrep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_scan_sees_unused_names():
    src = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nd()\n"
    assert unused_imports(src) == ["b (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(source: str) -> list[tuple[str, int, bool]]:
    """Private module-level names and private methods: name, line, method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, False))
        if isinstance(node, ast.ClassDef):
            out.extend((f.name, f.lineno, True) for f in node.body
                       if isinstance(f, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend((n.id, n.lineno, False) for t in targets
                       for n in ast.walk(t) if isinstance(n, ast.Name))
    return [d for d in out if _private(d[0])]


def unreferenced_private_names(sources: dict[str, str], module: str) -> list[str]:
    """Private names of one module of a package that the package never reads.

    A module-level name counts as read when its own module reads it, another
    module imports it from there, or reads it as ``module._name``; a method
    counts as read when any module reads an attribute of that name.
    """
    trees = {name: ast.parse(src) for name, src in sources.items()}
    loads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(getattr(node, "ctx", None), ast.Load)]
    attrs = {node.attr for node in loads if isinstance(node, ast.Attribute)}
    read_here = {node.id for node in ast.walk(trees[module])
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read_here |= {node.attr for node in loads if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name) and node.value.id == module}
    read_here |= {alias.name for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == module
                  for alias in node.names}
    return [f"{name} (line {line})"
            for name, line, method in private_definitions(sources[module])
            if name not in (attrs if method else read_here)]


def test_the_scan_sees_unreferenced_private_names():
    sources = {
        "a": "_A = 1\n_B: int = 2\n_C = 3\n__all__ = []\ndef _f():\n"
             "    return _A\nclass _K:\n    def _m(self):\n"
             "        return self._n()\n    def _n(self):\n        pass\n"
             "    def __init__(self):\n        pass\n",
        "b": "from . import a\nfrom .a import _B\n_C = 0\nprint(_B, _C, a._K)\n",
    }
    assert unreferenced_private_names(sources, "a") == [
        "_C (line 3)", "_f (line 5)", "_m (line 8)"]
    assert unreferenced_private_names(sources, "b") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_names_are_read_in_the_package(path):
    # a private name that only tests read is dead code in the package
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources, path.stem) == []


def test_the_command_line_imports_no_scipy():
    # scipy is a test-only reference; the runtime needs numpy alone
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c",
         "import colorrep.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_the_reconstruction_commands_import_no_numpy_random(tmp_path):
    # every draw on these paths uses the standard library's random; importing
    # numpy.random costs a process about 15 ms and 5 MB
    space = GradedSpace(2, {d: 1 for d in all_degrees(2)})
    rep = conjugated_rep(skew_matrix_algebra(space)[1], seed=7)
    cyclic = np.array([1.0, 0.0, 0.0, 0.0])
    save_rep(tmp_path / "rep.json", rep, cyclic=cyclic)
    save_rep(tmp_path / "pre.json", restrict(rep))
    save_table(tmp_path / "table.json", PDFunction.from_table(*four_lines_values()))
    commands = [["gns-roundtrip", "--rep", "rep.json"],
                ["gns-construct", "--table", "table.json", "-o", "out.json"],
                ["check-pd", "--rep", "rep.json", "--level", "1"],
                ["stability-extend", "pre.json", "-o", "full.json"]]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from colorrep.cli import main\n"
         f"for argv in {commands!r}:\n"
         "    with contextlib.redirect_stdout(io.StringIO()):\n"
         "        assert main(argv) == 0, argv\n"
         "assert 'numpy.random' not in sys.modules"],
        env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
