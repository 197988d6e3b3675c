import ast
import re
from pathlib import Path

import pytest

import polarnet

SOURCES = sorted(Path(polarnet.__file__).parent.glob("*.py"))


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in project["dependencies"]]
    assert names == ["numpy"]
    scipy_imports = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            scipy_imports += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert scipy_imports == []


def _private_definitions(tree: ast.Module):
    """Names of the module-level functions, classes and constants that start
    with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_helper_is_used():
    # a private name nothing in the package reads is dead code a refactor left behind
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = [(name, path) for path, tree in trees.items() for name in _private_definitions(tree)]
    assert len(defined) > 40  # the scan sees the package's helpers
    assert [f"{path}: {name}" for name, path in defined if name not in used] == []
