"""Every public name is used by the program: each name in a module's
``__all__``, and each public module-level function outside it, is read by
code under ``src/``, ``scripts/`` or ``perfbench/``, not counting its
definition, its import lines or its ``__all__`` entry, and so is each
private module-level function of a package module; each public method
and property of a class in ``__all__`` is read there as an attribute of
some object; and every defaulted parameter of a public or module-level
private function is set by some call there and left unset by another.
The package's own ``__all__`` only re-exports names of these modules.  No
file under ``src/`` or ``scripts/`` reads a private name of another
package module."""

import ast
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import pytest

import ballblowup
from ballblowup import asympt, greenfn

ROOT = Path(__file__).resolve().parents[1]
MODULES = [
    f"ballblowup.{m.name}" for m in pkgutil.iter_modules(ballblowup.__path__)
    if hasattr(importlib.import_module(f"ballblowup.{m.name}"), "__all__")
]
PACKAGE = [f"ballblowup.{m.name}" for m in pkgutil.iter_modules(ballblowup.__path__)]


def _module_of(path: Path) -> str | None:
    """The package module a source file defines, or None."""
    rel = path.relative_to(ROOT / "src") if ROOT / "src" in path.parents else None
    if rel is None or rel.name == "__init__.py":
        return None
    return ".".join(rel.with_suffix("").parts)


def _scan(path: Path) -> tuple[set, list, set]:
    """The (module, name) pairs the code in ``path`` reads, its calls of
    them as ((module, name), positional count, keyword names), and the
    attribute names it reads of any object.  A name is
    read when it is imported from a package module or defined in this file's
    own module, and so is an attribute of a name bound to a package module
    (``asympt.decompose``, with ``from . import bubble as bb`` also
    ``bb.u_prime``).  A ``*args`` call counts as setting every position, a
    ``**kwargs`` call every keyword."""
    tree = ast.parse(path.read_text(), str(path))
    own = _module_of(path)
    modules = {m.rsplit(".", 1)[1]: m for m in PACKAGE}  # short names
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "ballblowup" + ("." + base if base else "")
            for alias in node.names:
                full = f"{base}.{alias.name}"
                if full in PACKAGE:
                    modules[alias.asname or alias.name] = full
                elif base in PACKAGE:
                    imported[alias.asname or alias.name] = (base, alias.name)

    def target(node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                return imported[node.id]
            return (own, node.id) if own is not None else None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                return (modules[node.value.id], node.attr)
        return None

    reads, calls, attrs = set(), [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        name = target(node)
        if name is not None:
            reads.add(name)
        if isinstance(node, ast.Call) and target(node.func) is not None:
            npos = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                npos = math.inf
            keywords = {k.arg for k in node.keywords}
            calls.append((target(node.func), npos, keywords))
    return reads, calls, attrs


FILES = [path for d in ("src", "scripts", "perfbench") for path in (ROOT / d).rglob("*.py")]
SCANS = [_scan(path) for path in FILES]
READS = set().union(*(reads for reads, _, _ in SCANS))
CALLS = [call for _, calls, _ in SCANS for call in calls]
ATTRS = set().union(*(attrs for _, _, attrs in SCANS))
# build_report reads each extrapolated law's target as getattr(laws, field),
# field one of asympt's law table (test_limit_laws_have_target_and_entry)
ATTRS |= {name for name, *_ in asympt._LIMIT_LAWS}


@pytest.mark.parametrize("module", MODULES)
def test_public_names_are_used(module):
    mod = importlib.import_module(module)
    outside = [n for n, v in vars(mod).items() if inspect.isfunction(v) and v.__module__ == module
               and not n.startswith("_") and n not in mod.__all__]
    unused = [n for n in [*mod.__all__, *outside] if (module, n) not in READS]
    assert not unused, f"{module}: public names no program code reads: {unused}"


@pytest.mark.parametrize("module", PACKAGE)
def test_private_functions_are_used(module):
    # a private helper that only tests call is a test hook, and the tests
    # then check a path the program never takes
    mod = importlib.import_module(module)
    unused = [n for n, v in vars(mod).items() if inspect.isfunction(v) and v.__module__ == module
              and n.startswith("_") and not n.startswith("__") and (module, n) not in READS]
    assert not unused, f"{module}: private functions no program code calls: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_public_members_are_used(module):
    # methods and properties are matched by attribute name alone: the
    # receiver's type is not known to the scan
    mod = importlib.import_module(module)
    classes = [getattr(mod, n) for n in mod.__all__ if inspect.isclass(getattr(mod, n))]
    unused = [
        f"{cls.__name__}.{attr}"
        for cls in classes for attr, v in vars(cls).items()
        if not attr.startswith("_") and attr not in ATTRS
        and (inspect.isfunction(v) or isinstance(v, (property, classmethod, staticmethod)))
    ]
    assert not unused, f"{module}: public members no program code reads: {unused}"


def _sets(call, index: int, param: inspect.Parameter) -> bool:
    """Whether the program call ``call`` sets ``param``, the parameter at
    ``index`` of the called function's signature."""
    _, npos, keywords = call
    if param.name in keywords or None in keywords:
        return True
    return param.kind is not inspect.Parameter.KEYWORD_ONLY and index < npos


def _defaulted(module):
    """(name, index, param, the program calls of name) for every defaulted
    parameter of a public or module-level private function of ``module``."""
    mod = importlib.import_module(module)
    private = [n for n, v in vars(mod).items() if n.startswith("_") and inspect.isfunction(v)
               and v.__module__ == module]
    for name in [*mod.__all__, *private]:
        fn = getattr(mod, name)
        if not inspect.isfunction(fn):
            continue
        calls = [call for call in CALLS if call[0] == (module, name)]
        for i, param in enumerate(inspect.signature(fn).parameters.values()):
            if param.default is not inspect.Parameter.empty:
                yield name, i, param, calls


@pytest.mark.parametrize("module", MODULES)
def test_defaulted_parameters_are_set(module):
    # a default that no program call overrides is a knob only tests turn:
    # it belongs in a module constant
    unset = [f"{name}({param.name})" for name, i, param, calls in _defaulted(module)
             if not any(_sets(call, i, param) for call in calls)]
    assert not unset, f"{module}: defaulted parameters no program call sets: {unset}"


@pytest.mark.parametrize("module", MODULES)
def test_defaulted_parameters_are_left_unset(module):
    # a default that every program call overrides is one only tests take:
    # the parameter is required
    always = [f"{name}({param.name})" for name, i, param, calls in _defaulted(module)
              if all(_sets(call, i, param) for call in calls)]
    assert not always, f"{module}: defaulted parameters every program call sets: {always}"


def test_private_names_stay_in_their_module():
    # what another module or a script needs of a module is public
    crossing = [
        f"{path.relative_to(ROOT)} reads {module}.{name}"
        for path, (reads, _, _) in zip(FILES, SCANS) if ROOT / "perfbench" not in path.parents
        for module, name in sorted(reads)
        if module != _module_of(path) and name.startswith("_") and not name.startswith("__")
    ]
    assert not crossing, crossing


def test_limit_laws_have_target_and_entry():
    # a law of the table is judged against its BlowupLaws property and
    # reported in its TheoremReport field, so it cannot land without either
    for name, *_ in asympt._LIMIT_LAWS:
        assert name in asympt.TheoremReport.__dataclass_fields__
        assert isinstance(inspect.getattr_static(greenfn.BlowupLaws, name), property)
