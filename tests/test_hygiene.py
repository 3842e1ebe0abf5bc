"""Source hygiene: no module of the package imports a name it never uses, no
public function, class or module-level constant is dead, no default is one
that every caller leaves alone or one that every caller overrides, and every
listed mutant still applies to the source.

``__init__.py`` is exempt from the import check, since importing is how it
re-exports.  A name counts as used when it appears anywhere in the module
body, annotations included.  A public definition is live when another
statement of the package outside ``__init__.py`` reads it, ``perfbench/`` or
``scripts/`` use it, or ``USER_API`` names it.  A re-export alone keeps
nothing alive: a name that only tests reach is dead code.
"""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, apply_edits

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boundarylab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_leftovers():
    source = "import os, sys\nfrom .x import a, b as c\nfrom __future__ import annotations\n"
    assert unused_imports(source + "def f(v: c) -> None:\n    sys.exit()\n") == ["a", "os"]


def test_modules_found():
    assert {"cosets.py", "spaces.py", "measures.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# -- dead code ---------------------------------------------------------------------

ROOT = PACKAGE.parent.parent
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

#: Re-exports that nothing in ``src/``, ``scripts/`` or ``perfbench/`` reads,
#: kept on purpose as user-facing API, each for the reason given.
USER_API = (
    "cosets.cocycle",              # the paper's coset cocycle of gamma at coset i
    "measures.poisson_transform",  # the paper's Poisson transform of a measure
)


def _names_in(node, strings: bool = False) -> set[str]:
    """Identifiers a subtree reads: names, attributes and imported names, and
    with ``strings`` the dotted parts of string constants (perfbench traces
    functions by name)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(n.value.split("."))
    return out


def _defined_name(node) -> str | None:
    """The name a module-level function, class or single-name assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif isinstance(node, ast.AnnAssign):
        target = node.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def unreferenced_definitions(package: dict[str, str], callers: list[str],
                             allowed=()) -> list[str]:
    """Public module-level functions, classes and constants of ``package``
    (module name -> source) that no other statement of the package outside
    ``__init__`` reads, no caller source uses and ``allowed`` does not name; as
    ``module.name``."""
    statements = [(module, stmt) for module, source in package.items()
                  for stmt in ast.parse(source).body]
    read = set()
    for source in callers:
        read |= _names_in(ast.parse(source), strings=True)
    dead = []
    for module, node in statements:
        name = _defined_name(node)
        if (module == "__init__" or name is None or name.startswith("_") or name in read
                or f"{module}.{name}" in allowed):
            continue
        if not any(name in _names_in(stmt) for other, stmt in statements
                   if stmt is not node and other != "__init__"):
            dead.append(f"{module}.{name}")
    return sorted(dead)


def test_unreferenced_definitions_finds_dead_code():
    package = {
        "a": "def live():\n    return helper()\n\ndef helper():\n    return 1\n\n"
             "def dead():\n    return dead()\n\nclass Exported:\n    pass\n\n"
             "def traced():\n    pass\n\ndef _private():\n    pass\n\n"
             "def api():\n    pass\n\n"
             "CAP = 3\nSTEP: int = 2\nUSED = CAP\n_HIDDEN = 1\nx, y = 1, 2\n",
        "__init__": "from .a import Exported, api\n",
    }
    callers = ["from boundarylab import a\na.live()\nPLAN = ('a', 'traced')\nprint(a.USED)\n"]
    # the re-export alone keeps neither Exported nor api alive; the allow-list keeps api
    assert unreferenced_definitions(package, callers, ("a.api",)) == [
        "a.Exported", "a.STEP", "a.dead"]


def test_every_public_definition_is_reachable():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unreferenced_definitions(package, callers, USER_API) == []


def test_user_api_is_needed():
    """Each allow-listed name exists and would be flagged without its entry."""
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unreferenced_definitions(package, callers) == sorted(USER_API)


# -- mutants -------------------------------------------------------------------------

@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_still_applies(mutant):
    """Each edit applies to the source as the edits before it leave it, and each
    killing test is defined; no mutant is run here."""
    names = {name for name, _, _ in mutant.edits}
    apply_edits({n: (PACKAGE / n).read_text(encoding="utf-8") for n in names}, mutant.edits)
    for test in mutant.tests:
        path, _, func = test.partition("::")
        assert f"def {func}(" in (ROOT / path).read_text(encoding="utf-8"), test


# -- unset defaults --------------------------------------------------------------------

#: Defaulted parameters and dataclass fields that no call in ``src/``,
#: ``scripts/`` or ``perfbench/`` sets, kept on purpose, each for the reason given.
DEFAULTS_KEPT = (
    "CylinderFunction.cosets",  # cylinder functions on the induced (Gamma, X)-space itself
)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _has_default(value) -> bool:
    """Whether a dataclass field's right-hand side gives it a default: any
    value but a ``field(...)`` call with neither ``default`` nor
    ``default_factory``."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _defaulted(module: ast.Module):
    """(label, callee name, positional index or None, name) for every defaulted
    parameter of a public function or method, and every defaulted field of a
    dataclass, defined at the top level of ``module``."""
    def params(fn, callee, prefix, skip):
        args = fn.args.posonlyargs + fn.args.args
        for pos, (a, d) in enumerate(zip(args, [None] * (len(args) - len(fn.args.defaults))
                                         + fn.args.defaults)):
            if d is not None:
                yield f"{prefix}{a.arg}", callee, pos - skip, a.arg
        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if d is not None:
                yield f"{prefix}{a.arg}", callee, None, a.arg

    for node in module.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from params(node, node.name, f"{node.name}.", 0)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
        if _is_dataclass(node):
            for pos, s in enumerate(fields):
                if _has_default(s.value):
                    yield f"{node.name}.{s.target.id}", node.name, pos, s.target.id
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                yield from params(fn, fn.name, f"{node.name}.{fn.name}.", 0 if static else 1)


def _defaults_and_calls(package: dict[str, str], callers: list[str]):
    """Each default of ``package`` (module name -> source) as (label, the calls
    that set it, the calls that omit it), over the calls in the package
    outside ``__init__`` and in ``callers``.  A call sets a default by
    keyword, by position, or through ``*`` or ``**``.  A call matches by the
    bare name it calls, so a call of a like-named callable counts too."""
    sources = [s for m, s in package.items() if m != "__init__"] + list(callers)
    calls: dict[str, list[ast.Call]] = {}
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(n)

    def sets(call, pos, name):
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if any(k.arg in (None, name) for k in call.keywords):
            return True
        return pos is not None and len(call.args) > pos

    for source in package.values():
        for label, callee, pos, name in _defaulted(ast.parse(source)):
            found = calls.get(callee, [])
            setting = [c for c in found if sets(c, pos, name)]
            yield label, setting, [c for c in found if c not in setting]


def unset_defaults(package: dict[str, str], callers: list[str], allowed=()) -> list[str]:
    """Labels of the defaulted parameters and dataclass fields of ``package``
    that no call sets (see ``_defaults_and_calls``) and ``allowed`` does not
    name."""
    return sorted(label for label, setting, _ in _defaults_and_calls(package, callers)
                  if not setting and label not in allowed)


def unrelied_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """Labels of the defaulted parameters and dataclass fields of ``package``
    that no call omits: each caller passes its own value, so the default is a
    second copy of a setting that lives elsewhere (or one no caller reaches)."""
    return sorted(label for label, _, omitting in _defaults_and_calls(package, callers)
                  if not omitting)


def test_unset_defaults_finds_options_no_caller_sets():
    package = {
        "a": "from dataclasses import dataclass, field\n\n"
             "def f(x, y=1, z=2, *, k=3):\n    pass\n\n"
             "def g(x, y=1):\n    pass\n\n"
             "def h(x=0, y=1):\n    pass\n\n"
             "def _private(x=0):\n    pass\n\n"
             "@dataclass\nclass D:\n    a: int\n    b: int = 0\n    c: dict = field(default=None)\n\n"
             "    def m(self, v=1, w=2):\n        pass\n\n"
             "class Plain:\n    n: int = 0\n",
        "__init__": "from .a import f\nf(1, 2, 3, k=4)\n",
    }
    callers = ["from a import D, f, g, h\nf(0, z=5)\nargs = (1, 2)\ng(*args)\nh(**{})\n"
               "D(1, 2).m(7)\n"]
    # __init__ sets nothing; D(1, 2) sets b by position, m(7) sets v; k and c stay unset
    assert unset_defaults(package, callers) == ["D.c", "D.m.w", "f.k", "f.y"]
    assert unset_defaults(package, callers, ("D.c", "f.k")) == ["D.m.w", "f.y"]


def test_unrelied_defaults_finds_defaults_every_caller_overrides():
    package = {
        "a": "from dataclasses import dataclass, field\n\n"
             "def f(x, y=1, z=2):\n    pass\n\n"
             "def g(x, y=1):\n    pass\n\n"
             "def h(x=0):\n    pass\n\n"
             "def unused(x=0):\n    pass\n\n"
             "@dataclass\nclass D:\n    a: int\n    b: int = 0\n    c: dict = field(repr=False)\n"
             "    e: list = field(default_factory=list)\n",
        "__init__": "from .a import g\ng(1)\n",
    }
    callers = ["from a import D, f, g, h\nf(0, 1)\nf(0, 1, z=2)\ng(0, y=2)\n"
               "h(**{'x': 1})\nD(1, 2, c={})\nD(1, 2, c={}, e=[])\n"]
    # both f calls pass y, one omits z; __init__'s g(1) does not count; h's **
    # sets x; unused has no call; field(repr=False) is not a default; D.e is omitted once
    assert unrelied_defaults(package, callers) == ["D.b", "f.y", "g.y", "h.x", "unused.x"]


def test_every_default_is_set_by_some_caller():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unset_defaults(package, callers, DEFAULTS_KEPT) == []


def test_defaults_kept_are_needed():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unset_defaults(package, callers) == sorted(DEFAULTS_KEPT)


def test_every_default_is_relied_on():
    """A default that every caller overrides duplicates the setting its callers
    take from elsewhere (for the engines, the scenario): delete it."""
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unrelied_defaults(package, callers) == []
