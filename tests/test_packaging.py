"""The package declares what it imports and ships only what it uses."""

import ast
import re
import sys
from pathlib import Path

import pytest

import tmsvlab

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


def names_read(tree: ast.Module) -> set[str]:
    """The names that a module reads, as a variable, an attribute or a string
    (perfbench/spans.py names the functions it traces), outside the
    top-level definition of the same name."""
    names = set()
    for node in tree.body:
        found = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(sub.value)
        names |= found - {getattr(node, "name", None)}
    return names


def test_every_top_level_function_and_class_is_used():
    # a function or class that only the tests call belongs in tests/, as the
    # gridded sampler does
    package = ROOT / "src" / "tmsvlab"
    defined, read = {}, set()
    for path in [*package.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= names_read(tree)
        if path.is_relative_to(package):
            defined.update((node.name, path.stem) for node in tree.body
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    unused = sorted(f"{module}.{name}" for name, module in defined.items() if name not in read)
    assert not unused, unused


def test_package_root_binds_only_its_version_and_modules():
    # each name is imported from the module that defines it: the root
    # re-exports none, so no name has a second public path
    bound = sorted(name for name, value in vars(tmsvlab).items() if not name.startswith("_")
                   and value is not sys.modules.get(f"tmsvlab.{name}"))
    assert not bound, bound
    assert isinstance(tmsvlab.__version__, str) and not hasattr(tmsvlab, "__all__")
