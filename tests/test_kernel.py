"""The compiled library against its Python references.

Both event loops must leave every engine in the same state bit for bit:
occupations, counters, event count, clock, running total rate, and how
far the random stream was read.  The runs here are long enough to cross
two uniform-buffer refills and several audits.  The sum-tree build and
the march's interpolation must match numpy's to the bit; the march and
the series are checked in ``test_pde`` and ``test_thermo``.  Every pointer
argument of an entry point, and every pointer field of the loop's state,
takes only a C-contiguous array of its element type.
"""
import ctypes
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from zrhydro import _ckernel, coupling, engine, pde
from zrhydro.coupling import (BasicCouplingEngine, LabeledCouplingEngine,
                              PairConfiguration, SecondClassEngine)
from zrhydro.engine import (CallbackObserver, Configuration, EventEngine,
                            ModelParams, SumTree, build_initial,
                            choose_window)
from zrhydro.profiles import DensityProfile
from zrhydro.rates import rate_from_spec
from zrhydro.rng import FIRST_BLOCK, UniformBlock, replica_stream
from zrhydro.thermo import ThermoTable, mean_density

SRC = Path(__file__).resolve().parent.parent / "src"
#: events per full-size buffer refill: four uniforms per event
REFILL_EVENTS = (1 << 16) // 4


def _long_run(kind):
    """Two runs of one engine on a closed 121-site window, with observers,
    past two buffer refills; returns the engine and what it observed."""
    gen = np.random.default_rng(7)
    occ = gen.poisson(3.0, 121)
    spec, beta, alpha = {"event": ("linear", 0.0, 0.2),
                         "basic": ("table:0,1,1.5;slope=0.25", -0.5, 0.2),
                         "second": ("linear", 0.0, 0.2),
                         "labeled": ("linear", 1.0, 0.02)}[kind]
    params = ModelParams(0.75, alpha, beta, 60)
    rate = rate_from_spec(spec)
    rng = replica_stream(11, 3)

    def cfg(o):
        return Configuration(-60, o.copy(), closed=True)
    if kind == "event":
        eng = EventEngine(cfg(occ), params, rate, rng)
    elif kind == "basic":
        eng = BasicCouplingEngine(
            PairConfiguration(cfg(occ), cfg(occ + gen.poisson(1.0, 121))),
            params, rate, rng, order_guard=True)
    elif kind == "second":
        eng = SecondClassEngine(cfg(occ), params, rate, rng)
    else:
        eng = LabeledCouplingEngine(cfg(occ), params, rate, rng)
    seen = []
    for t_end, times in ((1.0, (0.1, 0.5, 1.0)), (3.5, (1.7,))):
        if kind == "labeled":
            eng.run(t_end)
        else:
            obs = CallbackObserver(times, lambda t, e: seen.append(
                (t, e.n_events, float(e._total).hex())))
            eng.run(t_end, observers=[obs])
    return eng, seen


def _state(eng):
    occ = [[int(k) for k in getattr(eng, name)] for name in eng._OCC]
    return {"occ": occ, "counters": [int(k) for k in eng._cnt],
            "n_events": eng.n_events, "time": eng.time.hex(),
            "total": float(eng._total).hex(), "uniform_index": eng._ub._i,
            "rng": repr(eng.rng.bit_generator.state)}


@pytest.mark.parametrize("kind", ["event", "basic", "second", "labeled"])
def test_kernel_matches_reference_past_refills(kind, c_kernel, monkeypatch):
    for mod in (engine, coupling):
        monkeypatch.setattr(mod, "AUDIT_EVERY", 10_000, raising=False)
    eng, seen = _long_run(kind)
    assert eng.kernel == "c"
    assert eng.n_events > 2 * REFILL_EVENTS
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    ref, ref_seen = _long_run(kind)
    assert ref.kernel == "python"
    assert _state(eng) == _state(ref)
    assert seen == ref_seen


def test_repeated_end_time_draws_nothing(kernel):
    def make():
        occ = np.random.default_rng(5).poisson(2.0, 21)
        return EventEngine(Configuration(-10, occ, closed=True),
                           ModelParams(0.75, 1.0, 0.0, 20),
                           rate_from_spec("linear"), replica_stream(5, 0))
    once, twice = make(), make()
    once.run(0.4)
    once.run(0.8)
    twice.run(0.4)
    fired = []
    rec = twice.run(0.4, observers=[CallbackObserver(
        [0.4], lambda t, e: fired.append(t))])
    assert fired == [0.4] and rec.n_events == 0 and rec.kernel == kernel
    twice.run(0.8)
    assert _state(once) == _state(twice)


def test_import_neither_builds_nor_loads_the_kernel(tmp_path):
    code = ("import zrhydro, zrhydro.cli, zrhydro.coupling, zrhydro.harness\n"
            "from zrhydro import _ckernel\n"
            "assert _ckernel._loaded == [], _ckernel._loaded\n")
    env = dict(os.environ, PYTHONPATH=str(SRC),
               XDG_CACHE_HOME=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "zrhydro").exists()


def test_concurrent_first_use_builds_once_safely(tmp_path):
    # processes that start together with an empty cache each build to a
    # temporary file and rename it into place; every one loads a whole
    # library
    if shutil.which(_ckernel.COMPILER) is None:
        pytest.skip("no C compiler")
    code = ("import warnings; warnings.simplefilter('error')\n"
            "import numpy as np\n"
            "from zrhydro.engine import (Configuration, EventEngine, "
            "ModelParams)\n"
            "from zrhydro.rates import linear_rate\n"
            "from zrhydro.rng import replica_stream\n"
            "eng = EventEngine(Configuration(-5, np.full(11, 2), True), "
            "ModelParams(0.75, 1.0, 0.0, 10), linear_rate(), "
            "replica_stream(1, 0))\n"
            "assert eng.run(0.1).kernel == 'c'\n")
    env = dict(os.environ, PYTHONPATH=str(SRC),
               XDG_CACHE_HOME=str(tmp_path))
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(3)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    assert [p.suffix for p in (tmp_path / "zrhydro").iterdir()] == [".so"]


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache and no kernel loaded yet in this process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_ckernel, "_loaded", [])
    return tmp_path / "zrhydro"


def _engine():
    return EventEngine(Configuration(-5, np.full(11, 2), closed=True),
                       ModelParams(0.75, 1.0, 0.0, 10),
                       rate_from_spec("linear"), replica_stream(1, 0))


def test_no_compiler_falls_back_with_one_warning(fresh_cache, monkeypatch):
    monkeypatch.setattr(_ckernel, "COMPILER", "zrh-no-such-compiler")
    with pytest.warns(RuntimeWarning, match="no C compiler") as caught:
        first, second = _engine(), _engine()
    assert len(caught) == 1
    assert first.kernel == second.kernel == "python"
    assert first.run(0.5).kernel == "python"


@pytest.fixture
def slow_library(fresh_cache, monkeypatch):
    """``_library`` slowed by 50 ms, so that threads calling ``load()``
    at once all find no library loaded; returns the list of its calls."""
    calls = []
    library = _ckernel._library

    def slow():
        calls.append(threading.get_ident())
        time.sleep(0.05)
        return library()
    monkeypatch.setattr(_ckernel, "_library", slow)
    return calls


def _load_in_threads(count=4):
    start = threading.Barrier(count)

    def load():
        start.wait()
        return _ckernel.load()
    with ThreadPoolExecutor(count) as pool:
        futures = [pool.submit(load) for _ in range(count)]
        return [f.result() for f in futures]


def test_threads_that_load_at_once_build_once(slow_library):
    if shutil.which(_ckernel.COMPILER) is None:
        pytest.skip("no C compiler")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        libs = _load_in_threads()
    assert len(slow_library) == 1 and len(_ckernel._loaded) == 1
    assert libs[0] is not None and all(lib is libs[0] for lib in libs)


def test_threads_without_a_compiler_warn_once(slow_library, monkeypatch):
    monkeypatch.setattr(_ckernel, "COMPILER", "zrh-no-such-compiler")
    with pytest.warns(RuntimeWarning, match="no C compiler") as caught:
        libs = _load_in_threads()
    assert len(caught) == 1 and libs == [None] * 4
    assert len(slow_library) == 1 and _ckernel._loaded == [None]


def test_failed_build_falls_back(fresh_cache, monkeypatch, tmp_path):
    if shutil.which(_ckernel.COMPILER) is None:
        pytest.skip("no C compiler")
    bad = tmp_path / "broken.c"
    bad.write_text("this is not C\n")
    monkeypatch.setattr(_ckernel, "SOURCE", bad)
    # the build with the host flag and the one without both fail
    with pytest.warns(RuntimeWarning, match="kernel build failed") as caught:
        assert _engine().kernel == "python"
    assert len(caught) == 1
    assert not list(fresh_cache.glob("*.tmp"))


def test_rejected_host_flag_builds_the_portable_library(fresh_cache,
                                                        monkeypatch):
    if shutil.which(_ckernel.COMPILER) is None:
        pytest.skip("no C compiler")
    monkeypatch.setattr(_ckernel, "HOST_FLAG", "-march=zrh-no-such-cpu")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _engine().kernel == "c"
    built = list(fresh_cache.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    # cached under the host build's name: the next process loads it
    monkeypatch.setattr(_ckernel, "_loaded", [])
    monkeypatch.setattr(_ckernel, "COMPILER", "zrh-no-such-compiler")
    assert _engine().kernel == "c"


def test_build_is_cached_by_source_and_flags(fresh_cache, monkeypatch):
    if shutil.which(_ckernel.COMPILER) is None:
        pytest.skip("no C compiler")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _engine().kernel == "c"
    built = list(fresh_cache.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    # a second process finds the library without a compiler
    monkeypatch.setattr(_ckernel, "_loaded", [])
    monkeypatch.setattr(_ckernel, "COMPILER", "zrh-no-such-compiler")
    assert _engine().kernel == "c"
    # other flags, or another CPU sharing the cache, name another library
    host = _ckernel._host()
    for name, value in (("FLAGS", _ckernel.FLAGS + ("-g",)),
                        ("_host", lambda: host + " zrh-other-cpu")):
        with monkeypatch.context() as m:
            m.setattr(_ckernel, "_loaded", [])
            m.setattr(_ckernel, name, value)
            with pytest.warns(RuntimeWarning, match="no C compiler"):
                assert _engine().kernel == "python"


@pytest.mark.parametrize("host", [True, False], ids=["host", "portable"])
def test_kernel_compiles_without_warnings(tmp_path, host):
    cc = shutil.which(_ckernel.COMPILER)
    if cc is None:
        pytest.skip("no C compiler")
    flags = (_ckernel.HOST_FLAG, *_ckernel.FLAGS) if host else _ckernel.FLAGS
    proc = subprocess.run(
        [cc, *flags, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernel.so"), str(_ckernel.SOURCE),
         *_ckernel.LIBS], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_refills_between_events_stay_in_the_kernel(c_kernel, monkeypatch):
    # a fresh run reads whole events from each block, so only observer
    # times, audits and the end hand events back to Python
    monkeypatch.setattr(engine, "AUDIT_EVERY", 10_000)
    occ = np.random.default_rng(3).poisson(3.0, 121)
    eng = EventEngine(Configuration(-60, occ, closed=True),
                      ModelParams(0.75, 0.2, 0.0, 60),
                      rate_from_spec("linear"), replica_stream(4, 0))
    calls = []
    stretch = eng._stretch
    eng._stretch = lambda *a: calls.append(1) or stretch(*a)
    times = (0.3, 1.1, 1.9)
    eng.run(2.5, observers=[CallbackObserver(times, lambda t, e: None)])
    assert eng.n_events > 2 * REFILL_EVENTS
    assert len(calls) <= len(times) + eng.n_events // 10_000 + 1


def test_planned_blocks_draw_little_past_the_run(kernel, monkeypatch):
    # the shape of test_12's replicas: about 18,000 events, 73,000
    # uniforms; the doubling ramp alone drew about 1.7 times that
    sizes = []
    refill = UniformBlock.refill

    def spy(ub):
        refill(ub)
        sizes.append(len(ub._buf))
    monkeypatch.setattr(UniformBlock, "refill", spy)
    params = ModelParams(0.75, 1.0, 0.0, 200)
    rho0 = DensityProfile.from_spec("-1:0:1", du=0.01)
    window = choose_window(rho0.support(), params, 0.5, 0.5)
    for rep in range(2):
        sizes.clear()
        rng = replica_stream(112, rep)
        eng = EventEngine(build_initial(rho0, params, window, rng), params,
                          rate_from_spec("linear"), rng, leak_fraction=1.0)
        assert eng.run(0.5).kernel == kernel
        drawn = FIRST_BLOCK + sum(sizes)
        used = drawn - (len(eng._ub._buf) - eng._ub._i)
        assert used > 60_000
        assert drawn <= 1.2 * used


def test_tree_build_is_the_accumulate(c_kernel):
    # node j sums values[j - lowbit(j):j] from the left, as numpy's
    # accumulate does; zeros and spread magnitudes make the order show
    gen = np.random.default_rng(8)
    for n in range(1, 1026):
        v = gen.lognormal(0.0, 3.0, n) * (gen.random(n) < 0.8)
        built = SumTree(v)
        ref = SumTree(v.tolist())
        assert isinstance(built.tree, np.ndarray)
        assert [x.hex() for x in built.tree.tolist()] == [
            x.hex() for x in ref.tree]
        assert built.values.tolist() == ref.values


#: xp strictly increasing, fp with a jump to +-huge (an infinite slope)
#: and an equal pair of infinities (a NaN slope)
INTERP_XP = np.array([-1.0, 0.0, 0.5, 1.25, 2.0, 3.0, 4.5, 5.0, 6.0])
INTERP_FP = np.array([2.0, 0.0, 1.0, 1.7e308, -1.7e308, 3.0, np.inf,
                      np.inf, 7.0])


def test_interp_is_numpys(c_kernel):
    lib = _ckernel.load()
    mids = 0.5 * (INTERP_XP[1:] + INTERP_XP[:-1])
    x = np.concatenate([INTERP_XP, mids, [-5.0, -1.0 - 1e-16, 6.0, 7.5],
                        [np.nan, np.inf, -np.inf, -0.0],
                        np.random.default_rng(1).uniform(-2.0, 7.0, 200)])
    for fp in (INTERP_FP, np.linspace(0.0, 3.0, len(INTERP_XP)) ** 2):
        with np.errstate(all="ignore"):
            want = np.interp(x, INTERP_XP, fp)
        got = np.empty_like(x)
        lib.zrh_interp(x, len(x), INTERP_XP, fp, len(INTERP_XP), got)
        assert [v.hex() for v in got.tolist()] == [
            v.hex() for v in want.tolist()]


def _kruzhkov_integral(lib, ta, ub, dt):
    """zrh_kruzhkov's I on rows H_t = ta[n] * ub[j], with rho = 1, H_u = 0
    and one c = 0 of the |x| form: the trapezoid in t of each row's sum of
    H_t."""
    nt, nu = len(ta), len(ub)
    ones, zeros, xp = np.ones((nt, nu)), np.zeros(nt), np.array([0.0, 2.0])
    c = np.zeros(1)
    scratch = np.empty(5 * nu + 3 * nt)
    I, B = np.empty(1), np.empty(1)
    status = lib.zrh_kruzhkov(ones, 0, nt, 0, nu, ta, ub, zeros, np.zeros(nu),
                              1.0, c, c, 0, 1.0, dt, 0.0, None, nu, 1, xp, xp,
                              2, 1.0, 0.0, 2.0, scratch, I, B)
    assert status == 0
    return float(I[0])


def _kruzhkov_blocks(lib, flux, nu, gen):
    """zrh_kruzhkov against ``pde._kruzhkov_block`` on random blocks nu
    cells wide, of 1, 2 and 3 rows, in both forms, with three c values:
    the block sits off the grid's corner, so rows start at odd cells, and
    H's factors have spread magnitudes and signs."""
    table = flux.thermo
    cs = np.array([0.0, 0.7, 1.9])
    fixed = (table.densities, table.zetas, len(table.zetas), flux.drift,
             *table.range_bounds())

    def spread(k):
        return gen.standard_normal(k) * 10.0 ** gen.integers(-4, 5, k)
    for nt in (1, 2, 3):
        vals = gen.uniform(0.0, 3.0, (nt + 2, nu + 4))
        rho_bar = gen.uniform(0.0, 3.0, nt + 2)
        for semi in (False, True):
            block = (vals, 1, nt, 3, nu, spread(nt), spread(nu), spread(nt),
                     spread(nu), 0.3, cs, flux.F(cs), semi, 0.01, 0.003,
                     gen.standard_normal(), rho_bar if semi else None)
            k = len(cs) * (2 if semi else 1)
            I, B = np.empty(k), np.empty(k)
            assert lib.zrh_kruzhkov(*block, nu + 4, len(cs), *fixed,
                                    np.empty(k * nt + 5 * nu + 2 * nt),
                                    I, B) == 0
            want = np.concatenate(pde._kruzhkov_block(flux, *block))
            assert [v.hex() for v in I.tolist() + B.tolist()] == [
                v.hex() for v in want.tolist()], (nu, nt, semi)


def test_kruzhkov_sums_are_numpys(c_kernel):
    # two equal rows make I the row's sum, as np.sum gives it; one cell a
    # row makes I the trapezoid of the column; spread magnitudes and signs
    # make the order of the additions show.  Whole blocks of every width to
    # 300 match the reference too: the widths cross every vector remainder
    # (mod 8 and mod 16) and both sides of the pairwise sum's 128-cell split
    lib = _ckernel.load()
    gen = np.random.default_rng(4)
    flux = pde.FluxModel(ThermoTable(rate_from_spec("linear"), rho_max=6.0),
                         0.75)
    for n in range(1, 301):
        row = gen.standard_normal(n) * 10.0 ** gen.integers(-8, 9, n)
        got = _kruzhkov_integral(lib, np.ones(2), row, 1.0)
        assert got.hex() == float(np.sum(row)).hex(), n
        want = float(np.trapezoid(row, dx=0.01)) if n > 1 else 0.0
        got = _kruzhkov_integral(lib, row, np.ones(1), 0.01)
        assert got.hex() == want.hex(), n
        _kruzhkov_blocks(lib, flux, n, gen)


KINDS = ("float32", "strided", "other type", "list")


def _bad(kind, dtype):
    """An argument that a pointer to ``dtype`` elements does not take: the
    wrong element type, a strided view, or no array at all."""
    other = np.int64 if dtype == np.float64 else np.float64
    return {"float32": np.zeros(8, np.float32),
            "strided": np.zeros(16, dtype)[::2],
            "other type": np.zeros(8, other), "list": [0] * 8}[kind]


def _arguments(argtypes):
    """Valid arguments of these types that make the C code read nothing:
    every count is 0."""
    return [np.zeros(8) if isinstance(t, _ckernel.Array) else t(0)
            for t in argtypes]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", sorted(set(_ckernel.ENTRY_POINTS)
                                        - {"zrh_run"}))
def test_entry_points_take_only_contiguous_float64_arrays(name, kind,
                                                          c_kernel):
    # ctypes reports a parameter type's TypeError as an ArgumentError that
    # names the argument; no C code runs
    fn = getattr(_ckernel.load(), name)
    argtypes = _ckernel.ENTRY_POINTS[name][1]
    slots = [i for i, t in enumerate(argtypes)
             if isinstance(t, _ckernel.Array)]
    assert slots
    for i in slots:
        args = _arguments(argtypes)
        args[i] = _bad(kind, np.float64)
        with pytest.raises(ctypes.ArgumentError,
                           match=rf"argument {i + 1}: TypeError: expected a "
                                 "C-contiguous float64 array"):
            fn(*args)
        args[i] = None
        if not argtypes[i].null:
            with pytest.raises(ctypes.ArgumentError, match="TypeError"):
                fn(*args)


def test_null_only_where_the_kernel_takes_it(c_kernel):
    nullable = {name: [i for i, t in enumerate(types)
                       if getattr(t, "null", False)]
                for name, (_, types) in _ckernel.ENTRY_POINTS.items()}
    assert {k: v for k, v in nullable.items() if v} == {
        "zrh_march": [8, 9], "zrh_kruzhkov": [16]}
    args = _arguments(_ckernel.ENTRY_POINTS["zrh_march"][1])
    args[8] = args[9] = None
    assert _ckernel.load().zrh_march(*args) == 0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field", sorted(_ckernel.State._arrays))
def test_state_fields_take_only_their_element_type(field, kind):
    dtype = _ckernel.State._arrays[field].dtype
    st = _ckernel.State()
    st.share(**{field: np.zeros(8, dtype)})
    held = getattr(st, field)
    with pytest.raises(TypeError, match=f"expected a C-contiguous {dtype} "
                                        "array"):
        st.share(**{field: _bad(kind, dtype)})
    assert getattr(st, field) == held


def test_empty_and_read_only_arrays_cross(c_kernel, monkeypatch):
    # ctypes.c_char.from_buffer takes neither, so they pass by the address
    # numpy reports; the compiled R(zeta) then matches the reference
    ro = np.linspace(0.0, 3.0, 7)
    ro.flags.writeable = False
    assert _ckernel.F64.from_param(ro).value == ro.ctypes.data
    rate, arrays = rate_from_spec("linear"), (ro, np.zeros(0))
    got = [mean_density(rate, a).tolist() for a in arrays]
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    assert got == [mean_density(rate, a).tolist() for a in arrays]
