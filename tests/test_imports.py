"""Every name a package module, demo, perfbench module or test imports is
used in it, and every public definition of the package is used outside the
unit tests, with the definers that share a public name listed.

``__init__.py`` is left out: it imports names to re-export them.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zrhydro"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "demos").glob("*.py"),
                  *(ROOT / "perfbench").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from .engine import SumTree, field\n"
              "def f():\n    import json\n    return np.zeros(SumTree)\n")
    assert unused_imports(source) == ["field", "json", "os"]


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


#: where a package name counts as used
USERS = sorted([*MODULES, *(ROOT / "demos").glob("*.py"),
                *(ROOT / "perfbench").glob("*.py"),
                ROOT / "tests" / "test_acceptance.py"])

#: public names nothing in USERS refers to, each kept for a reason
UNREFERENCED_OK = {
    "boundary_density_from_left_trace":
        "per-call reference for the beta = 0 boundary map in test_pde",
    "left_trace_from_grid":
        "per-call reference for the trace column in test_pde",
    "partition_function": "package API, re-exported in zrhydro.__all__",
    "marginal_pmf": "reference the unit tests compare against",
    "sample_marginal": "reference the unit tests compare against",
    "constant": "DensityProfile constructor of the unit tests' fixtures",
    "integral": "measure of the resample mass-conservation test",
}


def referenced_names(source: str) -> set[str]:
    """Names read, attributes taken and names imported in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def definitions(source: str) -> list[tuple[str | None, str]]:
    """(class, name) of each top-level function and class, with class
    None, and of each method of those classes."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((None, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((node.name, f.name) for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return found


def public_definitions(source: str) -> list[str]:
    """Top-level functions and classes, and the methods of those classes,
    whose names do not start with _."""
    return [name for _, name in definitions(source)
            if not name.startswith("_")]


def shared_names(sources: dict[str, str]) -> dict[str, list[str]]:
    """Public names defined more than once in ``sources`` (module file
    name to source), each with its sorted definers: the class of a
    method, the module file of a top-level definition."""
    found = {}
    for module, source in sources.items():
        for cls, name in definitions(source):
            if not name.startswith("_"):
                found.setdefault(name, []).append(cls or module)
    return {name: sorted(d) for name, d in found.items() if len(d) > 1}


def test_finds_unreferenced_definitions():
    source = ("import m\ndef used(): pass\ndef unused(): return used()\n"
              "class Kept: pass\nclass Gone: pass\n_private = m.Kept\n"
              "class Both:\n    def called(self): pass\n"
              "    def uncalled(self): pass\n    def _hidden(self): pass\n"
              "Both().called()\n")
    refs = referenced_names(source)
    assert [n for n in public_definitions(source) if n not in refs] == [
        "unused", "Gone", "uncalled"]


def test_every_public_definition_is_referenced():
    used = set().union(*(referenced_names(p.read_text()) for p in USERS))
    defined = {name for p in MODULES
               for name in public_definitions(p.read_text())}
    assert sorted(defined - used - UNREFERENCED_OK.keys()) == []
    # an exemption whose name is used again, or gone, is stale
    assert sorted(UNREFERENCED_OK.keys() & used) == []
    assert sorted(UNREFERENCED_OK.keys() - defined) == []


#: the public names that more than one definition carries.  A reference
#: to the name counts for every definer, so each one's caller was checked
#: by hand; a new shared name or definer fails until it is checked too.
SHARED = {
    "at_time": ["ComposedSolution", "PdeGrid"],
    "centers": ["DensityProfile", "PdeGrid"],
    "drift": ["FluxModel", "ModelParams"],
    "notify": ["CallbackObserver", "SnapshotObserver"],
    "passed": ["ComparisonEntry", "ComparisonReport", "KruzhkovEntry",
               "KruzhkovReport", "SiteStatistic", "StationarityReport"],
    "run": ["GillespieLoop", "LabeledCouplingEngine"],
    "u_max": ["DensityProfile", "PdeGrid"],
}


def test_finds_shared_names():
    sources = {"a.py": "def run(): pass\nclass A:\n    def run(self): pass\n"
                       "    def go(self): pass\n    def _x(self): pass\n",
               "b.py": "class B:\n    def run(self): pass\n"
                       "    def _x(self): pass\n"}
    assert shared_names(sources) == {"run": ["A", "B", "a.py"]}


def test_shared_names_are_the_checked_ones():
    assert shared_names({p.name: p.read_text() for p in MODULES}) == SHARED
