"""Arrays reach the compiled library only through ``_ckernel``.

``_ckernel.Array`` checks every array that crosses into C.  A module that
imports ``ctypes`` or takes an array's ``.ctypes`` address itself would
go round that check, so no package module but ``_ckernel.py`` does.
"""
import ast
from pathlib import Path

import pytest

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
