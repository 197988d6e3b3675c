import ast
import re
from pathlib import Path

import pytest

import polarnet

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later


def test_numpy_is_the_only_runtime_dependency():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group().lower() for d in project["dependencies"]]
    assert names == ["numpy"]
    scipy_imports = []
    for path in sorted(Path(polarnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            scipy_imports += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert scipy_imports == []
