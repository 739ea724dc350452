"""Each engine's vectorized ``_site_rates()`` against the per-site rate
written out one site at a time, bit for bit, on both event loops."""
import math

import numpy as np
import pytest

from zrhydro.coupling import (BasicCouplingEngine, LabeledCouplingEngine,
                              PairConfiguration, SecondClassEngine)
from zrhydro.engine import Configuration, EventEngine, ModelParams
from zrhydro.rates import rate_from_spec

N, ALPHA, BETA = 20, 0.7, 0.5
SPECS = ["linear", "indicator", "table:0,1,1.5;slope=0.25"]
#: first lattice site of the 11-site window: the origin at index 5, at
#: index 0 (the left edge) and outside the window
ORIGINS = {"inside": -5, "edge": 0, "outside": 3}


def _engine(kind, spec, x_min):
    params = ModelParams(0.75, ALPHA, BETA, N)
    rate = rate_from_spec(spec)
    occ = np.random.default_rng(4).poisson(2.0, 11)

    def cfg(o):
        return Configuration(x_min, o.copy(), closed=True)
    if kind == "event":
        return EventEngine(cfg(occ), params, rate, np.random.default_rng(1))
    if kind == "basic":
        return BasicCouplingEngine(PairConfiguration(cfg(occ), cfg(occ + 1)),
                                   params, rate, np.random.default_rng(1))
    if kind == "second":
        return SecondClassEngine(cfg(occ), params, rate,
                                 np.random.default_rng(1))
    return LabeledCouplingEngine(cfg(occ), params, rate,
                                 np.random.default_rng(1))


def _scalar_rates(eng, kind, x_min):
    """The total rate of each site, from the model's definition."""
    g = eng.rate.g
    origin = -x_min
    factor = {"event": ALPHA * float(N) ** BETA,
              "basic": ALPHA * float(N) ** BETA,
              "second": 0.0,
              "labeled": ALPHA * math.sqrt(float(N))}[kind]
    out = []
    for i in range(eng._n):
        scale = N * (1.0 + factor) if i == origin else float(N)
        if kind == "basic":
            r = scale * max(g(int(eng._a[i])), g(int(eng._b[i])))
        elif kind == "second":
            w, z = int(eng._w[i]), int(eng._z[i])
            r = scale * g(w + z)
            if i == origin:
                r += ALPHA * float(N) ** (1.0 + BETA) * g(w)
        else:
            occ = eng._occ if kind == "event" else eng._omega
            r = scale * g(int(occ[i]))
        out.append(float(r).hex())
    return out


@pytest.mark.parametrize("where", list(ORIGINS))
@pytest.mark.parametrize("kind", ["event", "basic", "second", "labeled"])
def test_site_rates_match_scalar_formula(kind, where, kernel):
    for spec in SPECS:
        x_min = ORIGINS[where]
        eng = _engine(kind, spec, x_min)
        assert eng.kernel == kernel
        assert (eng._origin >= 0) == (where != "outside")
        for t_end in (0.0, 0.3):
            if t_end:
                eng.run(t_end)
                assert eng.n_events > 0
            got = [float(x).hex() for x in eng._site_rates().tolist()]
            assert got == _scalar_rates(eng, kind, x_min), (spec, t_end)
            # the loop's own rates agree after each audit
            assert got == [float(x).hex() for x in eng._tree.values]
