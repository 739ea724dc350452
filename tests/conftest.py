"""Fixtures that choose between the compiled library and the Python
references: the engines' event loop, the sum-tree build, the PDE march
and the Phi/R series."""
import shutil

import pytest

from zrhydro import _ckernel


@pytest.fixture
def python_loop(monkeypatch):
    """Run every Python reference: no compiled library loads, so the
    engines run the Python loop, and the sum-tree build, the march and the
    series run their numpy code."""
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    return "python"


@pytest.fixture
def c_kernel():
    """Run on the compiled library; skip where no C compiler exists, fail
    where one exists and the library still does not load."""
    if _ckernel.load() is None:
        if shutil.which(_ckernel.COMPILER) is None:
            pytest.skip("no C compiler")
        pytest.fail("the compiled kernel did not build or load")
    return "c"


@pytest.fixture(params=["c", "python"])
def kernel(request):
    """Each path in turn, compiled and Python; the value is the expected
    ``TrajectoryRecord.kernel``."""
    return request.getfixturevalue(
        "c_kernel" if request.param == "c" else "python_loop")
