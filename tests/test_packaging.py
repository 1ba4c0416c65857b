"""The package declares what it imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent


def third_party_imports() -> set[str]:
    """Top-level names of the modules that src/tmsvlab imports from outside
    the standard library and the package itself."""
    names = set()
    for path in (ROOT / "src" / "tmsvlab").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"tmsvlab"}


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_")
                for spec in project["dependencies"]}
    imports = third_party_imports()
    assert {"numpy", "orjson"} <= imports
    assert imports <= declared, imports - declared
