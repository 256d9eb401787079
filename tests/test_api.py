"""Every public name is used by the program: each name in a module's
``__all__`` is read by code under ``src/``, ``scripts/`` or ``perfbench/``,
not counting its definition, its import lines or its ``__all__`` entry.
The package's own ``__all__`` only re-exports names of these modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ballblowup

ROOT = Path(__file__).resolve().parents[1]
MODULES = [
    f"ballblowup.{m.name}" for m in pkgutil.iter_modules(ballblowup.__path__)
    if hasattr(importlib.import_module(f"ballblowup.{m.name}"), "__all__")
]


def _module_of(path: Path) -> str | None:
    """The package module a source file defines, or None."""
    rel = path.relative_to(ROOT / "src") if ROOT / "src" in path.parents else None
    if rel is None or rel.name == "__init__.py":
        return None
    return ".".join(rel.with_suffix("").parts)


def _reads(path: Path) -> set:
    """(module, name) pairs the code in ``path`` reads: a name imported from
    a package module or defined in this file's own module, and an attribute
    of a name bound to a package module (``asympt.decompose``, with
    ``from . import bubble as bb`` also ``bb.u_prime``)."""
    tree = ast.parse(path.read_text(), str(path))
    own = _module_of(path)
    modules = {m.rsplit(".", 1)[1]: m for m in MODULES}  # short names
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "ballblowup" + ("." + base if base else "")
            for alias in node.names:
                full = f"{base}.{alias.name}"
                if full in MODULES:
                    modules[alias.asname or alias.name] = full
                elif base in MODULES:
                    imported[alias.asname or alias.name] = (base, alias.name)
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                reads.add(imported[node.id])
            elif own is not None:
                reads.add((own, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.add((modules[node.value.id], node.attr))
    return reads


READS = set().union(*(
    _reads(path) for d in ("src", "scripts", "perfbench") for path in (ROOT / d).rglob("*.py")
))


@pytest.mark.parametrize("module", MODULES)
def test_public_names_are_used(module):
    unused = [n for n in importlib.import_module(module).__all__ if (module, n) not in READS]
    assert not unused, f"{module}.__all__ names no program code reads: {unused}"
