"""numpy stays the only runtime dependency: the package's modules import only
the standard library, numpy and each other, and pyproject.toml declares
numpy alone."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of every import in ``path`` of a module outside
    ALLOWED; a relative import stays inside the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names if name.split(".")[0] not in ALLOWED]
    return found


def test_the_package_imports_only_the_standard_library_and_numpy():
    paths = sorted((ROOT / "src" / "slim").glob("*.py"))
    assert paths
    found = {path.name: foreign_imports(path) for path in paths}
    assert {name: imports for name, imports in found.items() if imports} == {}


def test_a_foreign_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\nimport os.path\n"
                      "from . import model\nimport scipy.sparse\n"
                      "from numpy import linalg\n"
                      "def f():\n    from yaml import safe_load\n", encoding="utf-8")
    assert foreign_imports(module) == [(4, "scipy.sparse"), (7, "yaml")]


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9._-]+", d).group() for d in dependencies] == ["numpy"]
