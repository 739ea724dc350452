"""Golden fixed-seed trajectories of the four event engines.

Each case runs one engine on a tiny window from a seeded configuration,
twice (``run(T1)`` then ``run(T2)``), with observers where the engine
takes them, and compares the end state bit for bit against
``golden_trajectories.json``: occupations, counters, event counts, and
``float.hex`` of the clock and of the running total rate.  The audit
cadence is lowered so that mid-run rate rebuilds happen inside these
short runs and are pinned too.  Each case runs on the compiled kernel and
on the Python reference loop, against the same file.

``g_table_grew`` records that a case's occupations outgrew the g table
that the loop first built, when it still grew the table on demand (it is
now sized once to the window's mass); re-recording carries it over.

A refactor of the event loops must leave these trajectories unchanged.
Re-record only for a change that alters trajectories on purpose:

    PYTHONPATH=src python3 tests/test_golden.py --record
"""
from __future__ import annotations

import json
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from zrhydro import coupling, engine
from zrhydro.coupling import (BasicCouplingEngine, LabeledCouplingEngine,
                              PairConfiguration, SecondClassEngine)
from zrhydro.engine import (CallbackObserver, Configuration, EventEngine,
                            ModelParams)
from zrhydro.rates import rate_from_spec
from zrhydro.rng import replica_stream

GOLDEN = Path(__file__).with_name("golden_trajectories.json")
#: audit cadence during the golden runs, so each crosses a few audits
AUDIT_EVERY = 1000
RATES = ("linear", "indicator", "table:0,1,1.5;slope=0.25")
BETAS = {"event": (-0.5, 0.0, 1.0), "basic": (-0.5, 0.0, 1.0),
         "second": (-0.5, 0.0, 1.0), "labeled": (1.0,)}
N = 40
X_MIN, SITES = -15, 31
T1, T2 = 1.0, 2.5
OBSERVE = ((0.25, 0.5, T1), (1.5, T2))


def _hex(v) -> str:
    return float(v).hex()


def _config(occ, closed):
    return Configuration(X_MIN, np.array(occ, dtype=np.int64), closed)


def _cases():
    for kind, betas in BETAS.items():
        for rate in RATES:
            for beta in betas:
                for closed in (False, True):
                    yield f"{kind}|{rate}|beta={beta:g}|" + (
                        "closed" if closed else "open")


def _parse(case):
    kind, rate, beta, mode = case.split("|")
    return kind, rate, float(beta.split("=")[1]), mode == "closed"


def _state(kind, eng):
    """Everything a trajectory leaves behind, as JSON-ready values."""
    s = {"n_events": eng.n_events, "time": _hex(eng.time),
         "total": _hex(eng._total)}
    if kind == "event":
        c = eng.config
        s.update(occ=eng.occupations().tolist(), destroyed=c.destroyed_count,
                 exited=[c.exited_left, c.exited_right])
    elif kind == "basic":
        om, va = eng.pair.omega, eng.pair.varpi
        s.update(omega=eng.occupations_omega().tolist(),
                 varpi=eng.occupations_varpi().tolist(),
                 destroyed=[om.destroyed_count, va.destroyed_count],
                 exited=[om.exited_left, om.exited_right, va.exited_left,
                         va.exited_right],
                 order_violations=eng.order_violations)
    elif kind == "second":
        st = eng.state()
        s.update(omega=st.omega.occ.tolist(), zeta=st.zeta.occ.tolist(),
                 conversions=st.conversions)
    else:
        s.update(eta=[int(k) for k in eng._eta],
                 omega=[int(k) for k in eng._omega],
                 exited=int(eng._cnt[0]))
    return s


def _result(rec):
    if isinstance(rec, int):
        return rec
    return {"t_end": _hex(rec.t_end), "n_events": rec.n_events,
            "destroyed": rec.destroyed_count,
            "exited": [rec.exited_left, rec.exited_right]}


def run_case(case) -> dict:
    kind, spec, beta, closed = _parse(case)
    gen = np.random.default_rng(zlib.crc32(case.encode()))
    occ = gen.poisson(2.0, SITES)
    params = ModelParams(0.75, 1.0, beta, N)
    rate = rate_from_spec(spec)
    rng = replica_stream(zlib.crc32(case.encode()), 1)
    kw = dict(leak_fraction=1.0)  # let the tiny open windows drain
    if kind == "event":
        eng = EventEngine(_config(occ, closed), params, rate, rng, **kw)
    elif kind == "basic":
        hi = occ + gen.poisson(0.5, SITES)
        eng = BasicCouplingEngine(
            PairConfiguration(_config(occ, closed), _config(hi, closed)),
            params, rate, rng, order_guard=True, **kw)
    elif kind == "second":
        eng = SecondClassEngine(_config(occ, closed), params, rate, rng, **kw)
    else:
        eng = LabeledCouplingEngine(_config(occ, closed), params, rate, rng,
                                    **kw)
    out = {"runs": [], "observed": []}
    for t_end, times in zip((T1, T2), OBSERVE):
        if kind == "labeled":
            rec = eng.run(t_end)
        else:
            obs = CallbackObserver(times, lambda t, e: out["observed"].append(
                [_hex(t), _state(kind, e)]))
            rec = eng.run(t_end, observers=[obs])
        out["runs"].append({"result": _result(rec),
                            "state": _state(kind, eng)})
    return out


@pytest.fixture
def audit_every(monkeypatch):
    for mod in (engine, coupling):
        monkeypatch.setattr(mod, "AUDIT_EVERY", AUDIT_EVERY, raising=False)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _check(case, golden):
    got = run_case(case)
    want = golden[case]
    assert got["runs"] == want["runs"]
    assert got["observed"] == want["observed"]


@pytest.mark.parametrize("case", list(_cases()))
def test_golden_trajectory(case, golden, audit_every, c_kernel):
    _check(case, golden)


@pytest.mark.parametrize("case", list(_cases()))
def test_golden_trajectory_python_loop(case, golden, audit_every,
                                       python_loop):
    _check(case, golden)


@pytest.mark.parametrize("kind", list(BETAS))
def test_golden_cases_reach_audits_and_table_growth(kind, golden):
    mine = {case: c for case, c in golden.items()
            if case.startswith(kind + "|")}
    events = [c["runs"][-1]["state"]["n_events"] for c in mine.values()]
    assert sum(n > AUDIT_EVERY for n in events) >= len(events) // 2
    assert any(c["g_table_grew"] for case, c in mine.items()
               if "|table:" in case)


def _record():
    engine.AUDIT_EVERY = AUDIT_EVERY
    coupling.AUDIT_EVERY = AUDIT_EVERY
    old = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    doc = {case: run_case(case) for case in _cases()}
    for case, c in doc.items():
        c["g_table_grew"] = old.get(case, {}).get("g_table_grew", False)
    lines = [f"{json.dumps(case)}: {json.dumps(doc[case], sort_keys=True)}"
             for case in sorted(doc)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(doc)} cases to {GOLDEN.name}")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
