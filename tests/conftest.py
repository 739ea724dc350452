"""Fixtures that choose the event loop the engines run."""
import shutil

import pytest

from zrhydro import _ckernel


@pytest.fixture
def python_loop(monkeypatch):
    """Run the engines on the Python reference loop."""
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    return "python"


@pytest.fixture
def c_kernel():
    """Run the engines on the compiled kernel; skip where no C compiler
    exists, fail where one exists and the kernel still does not load."""
    if _ckernel.load() is None:
        if shutil.which(_ckernel.COMPILER) is None:
            pytest.skip("no C compiler")
        pytest.fail("the compiled kernel did not build or load")
    return "c"


@pytest.fixture(params=["c", "python"])
def kernel(request):
    """Each event loop in turn; the value is the expected
    ``TrajectoryRecord.kernel``."""
    return request.getfixturevalue(
        "c_kernel" if request.param == "c" else "python_loop")
