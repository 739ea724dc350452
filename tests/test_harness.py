import dataclasses
import hashlib
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from zrhydro import harness
from zrhydro.engine import ModelParams
from zrhydro.harness import (ComparisonEntry, ExperimentSpec,
                             SuiteParseError, compare, map_replicas,
                             parse_suite, run_replicas, run_suite,
                             worker_count, write_density_csv,
                             write_report_json)
from zrhydro.invariant import build_profile, stationarity_test
from zrhydro.oracle import dual_rw_estimate, killing_probability_experiment
from zrhydro.profiles import DensityProfile
from zrhydro.rates import linear_rate
from zrhydro.rng import replica_stream
from zrhydro.thermo import ThermoTable


class TestExperimentSpec:
    def test_defaults_valid(self):
        spec = ExperimentSpec(name="smoke")
        assert spec.model_params(50).N == 50

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", target="magic")

    def test_oracle_needs_linear(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="x", rate="indicator", target="oracle")

    def test_bad_rate_rejected_early(self):
        with pytest.raises(Exception):
            ExperimentSpec(name="x", rate="mystery", target="none")

    @pytest.mark.parametrize("replicas", [0, -2])
    def test_no_replicas_rejected(self, replicas):
        # no mean profile exists without a replica
        with pytest.raises(ValueError, match="replicas"):
            ExperimentSpec(name="x", N=(30,), times=(0.1,),
                           replicas=replicas)

    @pytest.mark.parametrize("times", [(), (0.4, -0.1)])
    def test_times_rejected(self, times):
        with pytest.raises(ValueError, match="times"):
            ExperimentSpec(name="x", times=times)

    def test_exclusions(self):
        spec = ExperimentSpec(name="x", p=0.75, delta=0.1)
        (a, b), (c, d) = spec.exclusions(1.0)
        assert (a, b) == (-0.1, 0.1)
        assert c == pytest.approx(0.4) and d == pytest.approx(0.6)
        spec2 = ExperimentSpec(name="y", delta=0.0)
        assert spec2.exclusions(1.0) == ()


def _stationarity(replicas):
    params = ModelParams(1.0, 1.0, 0.0, 40)
    return stationarity_test(build_profile(params, (-10, 10), m_plus=1.0),
                             linear_rate(), ThermoTable(linear_rate(), 4.0),
                             t_end=0.1, replicas=replicas, sites=[0])


_PARAMS = ModelParams(0.75, 1.0, 0.0, 30)
NO_REPLICAS = {
    "killing_probability_experiment": lambda n: (
        killing_probability_experiment(_PARAMS, 0, n, replica_stream(0, 0))),
    "dual_rw_estimate": lambda n: dual_rw_estimate(
        0, 0.1, _PARAMS, lambda u: 1.0, n, replica_stream(0, 0)),
    "stationarity_test": _stationarity,
}


@pytest.mark.parametrize("entry", sorted(NO_REPLICAS))
@pytest.mark.parametrize("replicas", [0, -2])
def test_entry_points_reject_no_replicas(entry, replicas):
    # these divided by zero, or returned nan estimates with warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="replicas must be at least 1"):
            NO_REPLICAS[entry](replicas)


def test_stationarity_needs_two_replicas():
    # one replica gave a nan standard error, with a RuntimeWarning, and
    # failed every site
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least 2 replicas"):
            _stationarity(1)
    assert _stationarity(2).replicas == 2


def test_map_replicas_seeds_each_replica_in_order(monkeypatch):
    want = [replica_stream(5, rep).random() for rep in range(7)]
    for threads in ("1", "3"):
        monkeypatch.setenv("ZRH_THREADS", threads)
        assert map_replicas(lambda rng: rng.random(), 5, 7) == want


class TestWorkerCount:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("ZRH_THREADS", raising=False)
        assert worker_count() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ZRH_THREADS", "4")
        assert worker_count() == 4

    def test_garbage_env(self, monkeypatch):
        monkeypatch.setenv("ZRH_THREADS", "many")
        assert worker_count() == 1


@pytest.fixture(scope="module")
def tiny_report():
    spec = ExperimentSpec(name="tiny", N=(40,), times=(0.2,), replicas=3,
                          tolerance=0.5, seed=11)
    return compare(spec)


class TestCompare:
    def test_tiny_oracle_run(self, tiny_report):
        assert len(tiny_report.entries) == 1
        e = tiny_report.entries[0]
        assert e.N == 40 and e.t == 0.2
        assert 0.0 <= e.distance <= 0.5
        assert tiny_report.passed

    def test_target_none_distance_zero(self):
        spec = ExperimentSpec(name="none", N=(30,), times=(0.1,),
                              replicas=2, target="none", seed=1)
        rep = compare(spec)
        assert rep.entries[0].distance == 0.0 and rep.passed

    def test_forced_failure(self):
        spec = ExperimentSpec(name="fail", N=(30,), times=(0.2,),
                              replicas=2, tolerance=1e-9, seed=2)
        rep = compare(spec)
        assert not rep.passed
        assert "FAIL" in rep.summary_lines()[0]

    def test_wall_time_leaves_out_the_pde_solve(self, monkeypatch):
        solve = harness.compose_theorem_solution

        def slow_solve(*args, **kw):
            time.sleep(0.5)
            return solve(*args, **kw)

        monkeypatch.setattr(harness, "compose_theorem_solution", slow_solve)
        spec = ExperimentSpec(name="pde", N=(20,), times=(0.1, 0.2),
                              replicas=1, target="pde", seed=3)
        rep = compare(spec)
        assert len(rep.entries) == 2
        assert all(e.wall_time < 0.5 for e in rep.entries)

    def test_pde_target_solved_once(self, tmp_path, monkeypatch):
        # the solve reads p and alpha, never N, so every N shares it; the
        # CSV digest was recorded when each N still solved its own target
        solve = harness.compose_theorem_solution
        calls = []

        def spy(*args, **kw):
            calls.append(args)
            return solve(*args, **kw)

        monkeypatch.setattr(harness, "compose_theorem_solution", spy)
        spec = ExperimentSpec(name="pde", N=(20, 30), times=(0.1, 0.2),
                              replicas=1, target="pde", seed=3)
        rep = compare(spec)
        assert len(calls) == 1 and len(rep.entries) == 4
        path = tmp_path / "pde.csv"
        write_density_csv(path, rep)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "e1583f062bd2ca939605755a0e0f17a0d7ed11f32ab5b29dc99ab210eaedb4eb")

    def test_entries_pair_with_their_own_times(self):
        # unsorted times once paired each entry with the snapshot at the
        # position of its time: the t = 0.8 row held the t = 0.4 profile
        runs = [compare(ExperimentSpec(name="x", N=(50,), times=times,
                                       replicas=2, seed=3))
                for times in ((0.8, 0.4), (0.4, 0.8))]
        for t in (0.4, 0.8):
            a, b = (r.mean_profiles[(50, t)].values for r in runs)
            assert np.array_equal(a, b)
        entries = [{e.t: e.distance for e in r.entries} for r in runs]
        assert entries[0] == entries[1]
        assert [e.t for e in runs[0].entries] == [0.8, 0.4]

    def test_run_replicas_keeps_each_record(self):
        spec = ExperimentSpec(name="rec", N=(30,), times=(0.1, 0.2),
                              replicas=3, target="none", seed=4)
        out = run_replicas(spec, 30, DensityProfile.from_spec(spec.rho0),
                           linear_rate())
        assert len(out) == 3
        for profiles, rec in out:
            assert [t for t, _ in profiles] == [0.1, 0.2]
            assert rec.t_end == 0.2 and rec.n_events > 0
            assert rec.kernel in ("c", "python")

    def test_entry_pass_rule(self):
        e = ComparisonEntry(N=1, t=0.0, distance=0.2, se=0.0,
                            tolerance=0.2, wall_time=0.0)
        assert e.passed
        e.distance = 0.2000001
        assert not e.passed


class TestOutputs:
    def test_csv_layout_and_determinism(self, tmp_path, tiny_report):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_density_csv(a, tiny_report)
        write_density_csv(b, tiny_report)
        text = a.read_text()
        assert text.splitlines()[0] == "N,t,u,density"
        assert text == b.read_text()

    def test_rerun_byte_identical(self, tmp_path, tiny_report):
        spec = ExperimentSpec(name="tiny", N=(40,), times=(0.2,),
                              replicas=3, tolerance=0.5, seed=11)
        again = compare(spec)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_density_csv(a, tiny_report)
        write_density_csv(b, again)
        assert a.read_bytes() == b.read_bytes()

    def test_json_sidecar(self, tmp_path, tiny_report):
        path = tmp_path / "r.json"
        write_report_json(path, tiny_report)
        doc = json.loads(path.read_text())
        assert doc["passed"] is True
        assert doc["spec"]["name"] == "tiny"
        assert doc["entries"][0]["N"] == 40

    def test_parallel_matches_serial(self, tiny_report, monkeypatch):
        monkeypatch.setenv("ZRH_THREADS", "2")
        spec = ExperimentSpec(name="tiny", N=(40,), times=(0.2,),
                              replicas=3, tolerance=0.5, seed=11)
        rep = compare(spec)
        assert rep.entries[0].distance == tiny_report.entries[0].distance

    def test_threads_write_the_serial_bytes(self, tmp_path, kernel,
                                            monkeypatch):
        spec = ExperimentSpec(name="tiny", N=(30, 40), times=(0.1, 0.2),
                              replicas=5, tolerance=0.5, seed=11)
        written = []
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("ZRH_THREADS", threads)
            path = tmp_path / f"threads{threads}.csv"
            write_density_csv(path, compare(spec))
            written.append(path.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]


SUITE_OK = """\
# two small experiments
name = one
N = 30
times = 0.1
replicas = 2
tolerance = 0.5

name = two
target = none
N = 30
times = 0.1
replicas = 2
"""


class TestSuiteFiles:
    def test_parse_two_blocks(self, tmp_path):
        f = tmp_path / "s.suite"
        f.write_text(SUITE_OK)
        specs = parse_suite(f)
        assert [s.name for s in specs] == ["one", "two"]
        assert specs[0].N == (30,)
        assert specs[1].target == "none"

    def test_every_field_round_trips(self, tmp_path):
        # a non-default value of every field, each read back as the type
        # of its default
        spec = ExperimentSpec(
            name="all", rate="indicator", p=0.8, alpha=2.0, beta=-0.5,
            N=(20, 40), rho0="0:1:2", times=(0.1, 0.3), ell=3, replicas=4,
            seed=9, du=0.02, target="pde", tolerance=0.25,
            interval=(-1.0, 1.5), delta=0.0, margin=0.75, closed=True)
        lines = []
        for f in dataclasses.fields(spec):
            v = getattr(spec, f.name)
            assert f.name == "name" or v != f.default
            lines.append(f"{f.name} = "
                         + (",".join(map(str, v)) if isinstance(v, tuple)
                            else str(v)))
        path = tmp_path / "all.suite"
        path.write_text("\n".join(lines) + "\n")
        (back,) = parse_suite(path)
        # the repr tells 20 from 20.0, inside tuples too
        assert repr(back) == repr(spec)

    def test_missing_name_line_reported(self, tmp_path):
        f = tmp_path / "s.suite"
        f.write_text("\n\nreplicas = 2\n")
        with pytest.raises(SuiteParseError, match="line 3"):
            parse_suite(f)

    def test_bad_number_reported(self, tmp_path):
        f = tmp_path / "s.suite"
        f.write_text("name = x\np = fast\n")
        with pytest.raises(SuiteParseError, match="line 2"):
            parse_suite(f)

    def test_no_replicas_reported(self, tmp_path):
        f = tmp_path / "s.suite"
        f.write_text(SUITE_OK + "\nname = empty\nN = 30\nreplicas = 0\n")
        with pytest.raises(SuiteParseError, match="line 14: replicas"):
            parse_suite(f)

    def test_negative_time_reported(self, tmp_path):
        f = tmp_path / "s.suite"
        f.write_text(SUITE_OK + "\nname = past\ntimes = 0.4,-0.1\n")
        with pytest.raises(SuiteParseError, match="line 14: times"):
            parse_suite(f)

    def test_missing_equals(self, tmp_path):
        f = tmp_path / "s.suite"
        f.write_text("name = x\njust words\n")
        with pytest.raises(SuiteParseError, match="line 2"):
            parse_suite(f)

    def test_empty_suite_passes(self, tmp_path, capsys):
        f = tmp_path / "s.suite"
        f.write_text("# nothing here\n")
        assert run_suite(f) == 0
        assert "empty suite" in capsys.readouterr().out

    def test_suite_exit_codes_and_outputs(self, tmp_path):
        f = tmp_path / "s.suite"
        f.write_text(SUITE_OK)
        out = tmp_path / "out"
        assert run_suite(f, out_dir=out) == 0
        assert (out / "one.csv").exists()
        assert (out / "two.json").exists()
        bad = tmp_path / "bad.suite"
        bad.write_text("name = doomed\nN = 30\ntimes = 0.1\n"
                       "replicas = 2\ntolerance = 1e-9\n")
        assert run_suite(bad) == 1

    def test_block_lines_print_before_a_later_block_raises(
            self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "s.suite"
        f.write_text(SUITE_OK)
        real = harness.compare

        def second_raises(spec):
            if spec.name == "two":
                raise RuntimeError("block two failed")
            return real(spec)

        monkeypatch.setattr(harness, "compare", second_raises)
        with pytest.raises(RuntimeError, match="block two failed"):
            run_suite(f)
        out = capsys.readouterr().out
        assert out.startswith("one  N=") and "two" not in out

    def test_shipped_suite_passes(self):
        shipped = Path(__file__).resolve().parent.parent / "suites" \
            / "acceptance.suite"
        assert run_suite(shipped) == 0
