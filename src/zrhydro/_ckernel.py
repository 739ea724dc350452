"""Build and load the compiled library, ``_kernel.c``.

The library holds the engines' event loop (``zrh_run``), the sum-tree
build (``zrh_build``), and the PDE layer's upwind march (``zrh_march``,
with ``zrh_interp``), Phi/R series (``zrh_phi``, ``zrh_density``) and
Kruzhkov integrals (``zrh_kruzhkov``, one test function's grid window in
place, with numpy's pairwise row sums and ``np.trapezoid``).  Each repeats
its Python reference bit for bit; the reference raises every error, and
runs everything when no library loads.

The library is compiled on first use with the system C compiler ``cc``
for the host's own CPU (``-march=native``) and loaded with ``ctypes``;
nothing happens at import.  The shared library is cached under
``$XDG_CACHE_HOME/zrhydro`` (else ``~/.cache/zrhydro``), named by a hash
of the source, the compiler flags and the host's CPU identity (the
``flags`` or ``Features`` line of ``/proc/cpuinfo``, else the machine
name), so an edited source, new flags or another CPU build afresh: a
cache shared by two machines never loads a library built for the other
one's instructions, which would crash rather than raise.  A compiler
that rejects ``-march=native`` builds once more without it, into the same
name.  A build writes a temporary file and renames it into place, so
processes that start at once cannot load a half-written library.
Within one process a module lock guards the first ``load()``, so threads
that start at once build and load the library once, and warn once when
it cannot load; every later call reads the loaded library without the
lock.

The flags keep the arithmetic exact: no ``-ffast-math``, and
``-ffp-contract=off`` so that no multiply-add is fused, which Python and
numpy cannot do either, though ``-march=native`` may offer the fused
instruction.  ``-O3`` enables no transformation that changes a value:
without ``-ffast-math`` gcc vectorizes only element-wise operations and
in-order reductions, so the eight accumulators of the pairwise sum become
one vector that makes the same additions, and a sum that runs in turn is
still added in turn.  On an AVX-512 host gcc 12 moves the Kruzhkov
terms, the pairwise sums, the trapezoid, the march's F scaling and the
sum-tree build to 64-byte vectors; every output stays bit for bit.
``target_clones`` on ``zrh_kruzhkov`` alone was tried in place of a
host build: it gained nothing at ``-O2`` and ran 1.5-1.7 times slower at
``-O3``.  When no compiler is found or the build fails,
``load()`` warns once and returns None, and every caller runs its Python
reference: the engines the Python loop, ``pde`` and ``thermo`` their
numpy code.

``-falign-loops=64`` starts every loop on a 64-byte boundary, so that the
event loop's speed does not hang on where the code before it ends.  On a
2-CPU x86-64 host, appending a routine without the flag moved the loop
and made it faster per event in 32 and 35 of 40 alternated pairs; the
flag alone made it about 6% faster, in 39 of 40.

Every array crosses into C through ``Array``: an entry point's pointer
argument or a ``State`` pointer field takes only a C-contiguous numpy
array of its element type, or None where C takes NULL; anything else
raises TypeError before C runs (ctypes' ArgumentError on a call).
"""
from __future__ import annotations

import ctypes
import os
import threading
import warnings
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILER = "cc"
FLAGS = ("-O3", "-ffp-contract=off", "-falign-loops=64", "-shared", "-fPIC")
#: the host's own instruction set; dropped when the compiler rejects it
HOST_FLAG = "-march=native"
LIBS = ("-lm",)

_i64, _f64, _int = ctypes.c_int64, ctypes.c_double, ctypes.c_int


class Array:
    """The ctypes parameter type of a pointer to ``dtype`` elements."""

    def __init__(self, dtype, null: bool = False):
        self.dtype, self.null = np.dtype(dtype), null

    def from_param(self, a):
        """The address of ``a``'s data; None is NULL where ``null``."""
        if a is None and self.null:
            return None
        if not (isinstance(a, np.ndarray) and a.dtype == self.dtype
                and a.flags.c_contiguous):
            got = (f"{a.dtype} array with strides {a.strides}"
                   if isinstance(a, np.ndarray) else type(a).__name__)
            raise TypeError(f"expected a C-contiguous {self.dtype} array, "
                            f"got {got}")
        if a.size and a.flags.writeable:
            # the cheapest address, but for no empty or read-only array
            return ctypes.c_void_p(ctypes.addressof(
                ctypes.c_char.from_buffer(a)))
        return ctypes.c_void_p(a.ctypes.data)


F64, I64, F64_OR_NULL = Array(np.float64), Array(np.int64), \
    Array(np.float64, null=True)


class State(ctypes.Structure):
    """The kernel's ``zrh_state``; see ``_kernel.c``."""

    #: the element type of each pointer field
    _arrays = dict(gt=F64, scale=F64, rates=F64, tree=F64, a=I64, b=I64,
                   cnt=I64, buf=F64)
    _fields_ = [(name, _i64) for name in
                ("mode", "n", "origin", "closed", "guard")] + \
        [(name, _f64) for name in ("p", "d0", "conv", "leak_cap")] + \
        [(name, ctypes.c_void_p) for name in _arrays] + \
        [(name, _i64) for name in ("buf_n", "i", "events", "ev_max")] + \
        [(name, _f64) for name in ("t", "total", "t_stop")]

    def share(self, **arrays):
        """Point the named fields at these arrays, each checked as an
        entry point's argument is."""
        for name, a in arrays.items():
            setattr(self, name, self._arrays[name].from_param(a))


class KernelUnavailable(RuntimeError):
    pass


#: (restype, argtypes) of each entry point; ``_kernel.c`` documents them
ENTRY_POINTS = {
    "zrh_run": (None, [ctypes.POINTER(State)]),
    "zrh_build": (None, [F64, F64, _i64]),
    "zrh_interp": (None, [F64, _i64, F64, F64, _i64, F64]),
    "zrh_march": (_int, [F64, _i64, _i64, F64, F64, _i64, _f64, _f64,
                         F64_OR_NULL, F64_OR_NULL, _f64, _f64, _f64, _f64,
                         F64]),
    "zrh_density": (_int, [F64, _i64, F64, _f64, _i64, F64]),
    "zrh_phi": (_int, [F64, _i64, _f64, F64, _f64, _i64, _f64, F64]),
    "zrh_kruzhkov": (_int, [F64, _i64, _i64, _i64, _i64, F64, F64, F64, F64,
                            _f64, F64, F64, _i64, _f64, _f64, _f64,
                            F64_OR_NULL, _i64, _i64, F64, F64, _i64, _f64,
                            _f64, _f64, F64, F64, F64]),
}

#: the loaded library, or None after a failed load; unset until the first
#: load()
_loaded: list = []
_lock = threading.Lock()


def _host() -> str:
    """The host CPU's identity: the first ``flags`` (x86) or ``Features``
    (Arm) line of ``/proc/cpuinfo``, else the machine name."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return os.uname().machine


def _library() -> Path:
    """Path of the built kernel, building it if no cached copy exists."""
    # imported here, so that importing the package stays as cheap as before
    import hashlib
    import shutil
    import subprocess
    import tempfile

    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(
        (*FLAGS, HOST_FLAG, *LIBS, _host())).encode())
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    lib = Path(cache) / "zrhydro" / f"kernel-{key.hexdigest()[:16]}.so"
    if lib.is_file():
        return lib
    cc = shutil.which(COMPILER)
    if cc is None:
        raise KernelUnavailable(f"no C compiler ({COMPILER}) on PATH")
    try:
        lib.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".so.tmp")
        os.close(fd)
    except OSError as e:
        raise KernelUnavailable(f"cannot write to {lib.parent}: {e}")
    try:
        # a compiler that rejects the host flag builds the portable
        # library, still 10-100 times faster than the Python reference
        for flags in ((HOST_FLAG, *FLAGS), FLAGS):
            proc = subprocess.run([cc, *flags, "-o", tmp, str(SOURCE), *LIBS],
                                  capture_output=True, text=True, timeout=120)
            if proc.returncode == 0:
                break
        else:
            msg = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise KernelUnavailable(f"kernel build failed: {msg}")
        os.replace(tmp, lib)
    except (OSError, subprocess.SubprocessError) as e:
        raise KernelUnavailable(f"kernel build failed: {e}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _open():
    """The work of ``load()``'s first call."""
    try:
        lib = ctypes.CDLL(str(_library()))
        for name, (restype, argtypes) in ENTRY_POINTS.items():
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
        return lib
    except KernelUnavailable as e:
        reason = e
    except (OSError, AttributeError) as e:
        reason = f"cannot load the kernel: {e}"
    # stacklevel 3: the warning points at load()'s caller
    warnings.warn(f"zrhydro: {reason}; running the Python reference",
                  RuntimeWarning, stacklevel=3)
    return None


def load():
    """The library, built and loaded on the first call, with the argument
    and result types of every entry point set; None, with one
    RuntimeWarning naming the reason, when it cannot be built or loaded.
    Every call, from any thread, returns the first call's result."""
    if not _loaded:
        with _lock:
            if not _loaded:
                _loaded.append(_open())
    return _loaded[0]
