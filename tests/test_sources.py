"""Arrays reach the compiled library only through ``_ckernel``, and
``_ckernel`` declares each entry point as ``_kernel.c`` defines it.

``_ckernel.Array`` checks every array that crosses into C.  A module that
imports ``ctypes`` or takes an array's ``.ctypes`` address itself would
go round that check, so no package module but ``_ckernel.py`` does.  A
ctypes declaration that drifts from the C definition passes arguments in
the wrong slots, which corrupts memory without an error, so the two are
compared parameter by parameter, and ``_ckernel.State`` with the kernel's
``zrh_state`` field by field.
"""
import ast
import ctypes
import re
from pathlib import Path

import pytest

from zrhydro import _ckernel

SRC = Path(__file__).resolve().parent.parent / "src" / "zrhydro"


def ctypes_uses(source: str) -> list[int]:
    """Lines that import ``ctypes`` or read an attribute named ``ctypes``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if "ctypes" in names:
            lines.append(node.lineno)
    return sorted(lines)


def test_finds_ctypes_uses():
    source = ("import numpy as np\nimport ctypes\nfrom ctypes import c_int\n"
              "a = np.zeros(3)\np = a.ctypes.data\nq = np.ctypeslib\n")
    assert ctypes_uses(source) == [2, 3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_ckernel_touches_ctypes(path):
    if path.name == "_ckernel.py":
        assert ctypes_uses(path.read_text())
    else:
        assert ctypes_uses(path.read_text()) == []


#: an exported definition: a return type at the start of a line (static
#: helpers start with "static"), a zrh_ name and its parameter list
C_DEFINITION = re.compile(r"^(void|int)\s+(zrh_\w+)\s*\(([^)]*)\)\s*\{",
                          re.MULTILINE)


def _c_kind(param: str) -> str:
    if "*" in param:
        return "pointer"
    return param.split()[-2]  # the type before the name


def c_signatures(source: str) -> dict:
    """name -> (return type, parameter kinds) of each exported zrh_*
    definition; a kind is "pointer" or the scalar type."""
    out = {}
    for ret, name, params in C_DEFINITION.findall(source):
        params = [p.strip() for p in params.split(",")]
        kinds = [] if params == ["void"] else [_c_kind(p) for p in params]
        out[name] = (ret, kinds)
    return out


def _ctypes_kind(t) -> str:
    if isinstance(t, _ckernel.Array) or issubclass(t, ctypes._Pointer):
        return "pointer"
    return {ctypes.c_double: "double", ctypes.c_int64: "int64_t",
            ctypes.c_int: "int", ctypes.c_void_p: "pointer"}[t]


def ctypes_signatures(entry_points: dict) -> dict:
    """The same shape as ``c_signatures``, from (restype, argtypes)."""
    return {name: ("void" if restype is None else _ctypes_kind(restype),
                   [_ctypes_kind(t) for t in argtypes])
            for name, (restype, argtypes) in entry_points.items()}


def test_finds_c_signatures_and_their_drift():
    source = ("static int zrh_helper(double x)\n{\n}\n"
              "int zrh_a(const double *x, int64_t n,\n"
              "          double d)\n{\n}\n"
              "void zrh_b(void)\n{\n}\n")
    c = c_signatures(source)
    assert c == {"zrh_a": ("int", ["pointer", "int64_t", "double"]),
                 "zrh_b": ("void", [])}
    _d, _i = ctypes.c_double, ctypes.c_int64
    assert ctypes_signatures({"zrh_a": (ctypes.c_int,
                                        [_ckernel.F64, _i, _d]),
                              "zrh_b": (None, [])}) == c
    # a missing argument, swapped scalars and a wrong return all show
    for drifted in ({"zrh_a": (ctypes.c_int, [_ckernel.F64, _i])},
                    {"zrh_a": (ctypes.c_int, [_ckernel.F64, _d, _i])},
                    {"zrh_a": (None, [_ckernel.F64, _i, _d])}):
        assert ctypes_signatures(drifted)["zrh_a"] != c["zrh_a"]


def test_entry_points_match_the_c_definitions():
    c = c_signatures(_ckernel.SOURCE.read_text())
    assert sorted(c) == sorted(_ckernel.ENTRY_POINTS)
    declared = ctypes_signatures(_ckernel.ENTRY_POINTS)
    for name in c:
        assert declared[name] == c[name], name


#: the body of the kernel's state struct
C_STATE = re.compile(r"typedef struct \{(.*?)\} zrh_state;", re.DOTALL)


def c_state_fields(source: str) -> list:
    """(name, kind) of each ``zrh_state`` field, in order; a kind is
    "pointer" or the scalar type."""
    body = re.sub(r"/\*.*?\*/", "", C_STATE.search(source).group(1),
                  flags=re.DOTALL)
    fields = []
    for decl in filter(None, (d.strip() for d in body.split(";"))):
        # "[const] type a, *b": the type, then its declarators
        scalar, declarators = re.fullmatch(r"(?:const\s+)?(\w+)\s+(.*)",
                                           decl, re.DOTALL).groups()
        for d in (d.strip() for d in declarators.split(",")):
            fields.append((d.lstrip("*").strip(),
                           "pointer" if d.startswith("*") else scalar))
    return fields


def ctypes_fields(fields: list) -> list:
    """The same shape as ``c_state_fields``, from a ``_fields_`` list."""
    return [(name, _ctypes_kind(t)) for name, t in fields]


def test_finds_state_fields_and_their_drift():
    source = ("typedef struct {\n    int64_t mode, n; /* a; b, c */\n"
              "    const double *gt, *scale;\n    double t;\n} zrh_state;\n")
    c = c_state_fields(source)
    assert c == [("mode", "int64_t"), ("n", "int64_t"), ("gt", "pointer"),
                 ("scale", "pointer"), ("t", "double")]
    _i, _d, _p = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fields = [("mode", _i), ("n", _i), ("gt", _p), ("scale", _p), ("t", _d)]
    assert ctypes_fields(fields) == c
    # two fields swapped and one missing both show
    for drifted in (fields[:3] + [fields[4], fields[3]], fields[:-1]):
        assert ctypes_fields(drifted) != c


def test_state_matches_the_c_struct():
    assert (ctypes_fields(_ckernel.State._fields_)
            == c_state_fields(_ckernel.SOURCE.read_text()))
