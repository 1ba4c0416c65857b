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


def attributes_read(node: ast.AST) -> set[str]:
    """The attribute names that node reads, and its strings, outside each
    method's own body for that method's name.  Variables do not count, so a
    local named as a method does not keep the method."""
    names = set()
    for child in ast.iter_child_nodes(node):
        found = attributes_read(child)
        if isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef):
            found.discard(child.name)
        names |= found
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        names.add(node.attr)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        names.add(node.value)
    return names


def test_every_method_and_property_is_used():
    # a method or property that only the tests read belongs in tests/, as
    # the basis index of source_oracle does
    package = ROOT / "src" / "tmsvlab"
    defined, read = set(), set()
    for path in [*package.rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= attributes_read(tree)
        if path.is_relative_to(package):
            defined.update((path.stem, cls.name, node.name) for cls in tree.body
                           if isinstance(cls, ast.ClassDef) for node in cls.body
                           if isinstance(node, ast.FunctionDef)
                           and not (node.name.startswith("__") and node.name.endswith("__")))
    unused = sorted(".".join(key) for key in defined if key[2] not in read)
    assert not unused, unused


def test_package_root_binds_only_its_version_and_modules():
    # each name is imported from the module that defines it: the root
    # re-exports none, so no name has a second public path
    bound = sorted(name for name, value in vars(tmsvlab).items() if not name.startswith("_")
                   and value is not sys.modules.get(f"tmsvlab.{name}"))
    assert not bound, bound
    assert isinstance(tmsvlab.__version__, str) and not hasattr(tmsvlab, "__all__")
