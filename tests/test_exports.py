"""Every public name the package exports exists, so a stale export of a
deleted name fails here instead of at a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import siggate

MODULES = sorted(m.name for m in pkgutil.iter_modules(siggate.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"siggate.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import_succeeds(name):
    namespace = {}
    exec(f"from siggate.{name} import *", namespace)
    assert set(getattr(importlib.import_module(f"siggate.{name}"), "__all__", ())) \
        <= set(namespace)


def test_every_name_the_package_imports_exists():
    tree = ast.parse(Path(siggate.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"siggate.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"siggate.{node.module}.{alias.name}"
            assert getattr(siggate, alias.asname or alias.name) \
                is getattr(module, alias.name)


def _autodiff_reads(path: Path) -> set[str]:
    """Names of ``siggate.autodiff`` that the module at ``path`` reads: attributes of
    each name it binds to the module, and names it imports from the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("autodiff"):
                reads.update(alias.name for alias in node.names)
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "autodiff")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            reads.add(node.attr)
    return reads


def _module_level_forms(tree: ast.Module) -> list[str]:
    """The ``*_vjp`` names a module defines or assigns at its top level."""
    names = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    names += [target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)]
    return [name for name in names if name.endswith("_vjp")]


def test_every_autodiff_export_has_a_reader():
    # An exported tape op or a form that neither the library nor the benchmark
    # calls is dead weight; a form only the tests call belongs in their oracles.
    from siggate import autodiff

    root = Path(__file__).resolve().parents[1]
    package = Path(siggate.__file__).parent
    paths = [p for p in package.glob("*.py") if p.name != "autodiff.py"]
    paths += sorted((root / "perfbench").rglob("*.py"))
    reads = set().union(*map(_autodiff_reads, paths))
    assert [name for name in autodiff.__all__ if name not in reads] == []
    # a form may also be read inside autodiff, by the op that runs it
    tree = ast.parse(Path(autodiff.__file__).read_text(encoding="utf-8"))
    reads |= {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    forms = _module_level_forms(tree)
    assert "matmul_vjp" in forms and "square_vjp" in forms
    assert [name for name in forms if name not in reads] == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(path: Path) -> list[str]:
    """``line: expr`` of each attribute ``x._name`` read in the module at
    ``path`` where ``x`` is not ``self`` or ``cls``, and of each
    ``from .x import _name`` (dunders are not private)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))
            or (isinstance(node, ast.ImportFrom) and node.level
                and any(_is_private(alias.name) for alias in node.names))]


def test_no_module_reads_a_private_name_of_another_object():
    # A name with a leading underscore belongs to its own class or module:
    # another object reaches it only through a public name.
    package = Path(siggate.__file__).parent
    assert sorted(read for path in sorted(package.glob("*.py"))
                  for read in _private_reads(path)) == []
