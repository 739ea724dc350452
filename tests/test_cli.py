import json

import pytest

from zrhydro.cli import main


def test_simulate_writes_csv_and_sidecar(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--N", "30", "--t-end", "0.1",
               "--replicas", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "replica,t,u,density"
    assert len(lines) > 1
    meta = json.loads((tmp_path / "sim.csv.json").read_text())
    assert len(meta["replicas"]) == 2
    assert meta["replicas"][0]["events"] > 0


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        main(["simulate", "--N", "30", "--t-end", "0.1", "--seed", "7",
              "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_kernels_write_identical_csv(tmp_path, c_kernel,
                                            monkeypatch):
    from zrhydro import _ckernel
    args = ["simulate", "--N", "30", "--t-end", "0.3", "--replicas", "2",
            "--seed", "5"]
    main(args + ["--out", str(tmp_path / "c.csv")])
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    main(args + ["--out", str(tmp_path / "py.csv")])
    assert ((tmp_path / "c.csv").read_bytes()
            == (tmp_path / "py.csv").read_bytes())
    for name, kernel in (("c.csv.json", "c"), ("py.csv.json", "python")):
        meta = json.loads((tmp_path / name).read_text())
        assert [r["kernel"] for r in meta["replicas"]] == [kernel] * 2


def test_couple_second_class(tmp_path):
    out = tmp_path / "couple.csv"
    rc = main(["couple", "--N", "30", "--t-end", "0.1", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,k_t,left_mass,discrepancy"
    assert len(lines) == 2


def test_couple_labeled(tmp_path):
    out = tmp_path / "couple.csv"
    rc = main(["couple", "--mode", "labeled", "--beta", "1", "--N", "30",
               "--t-end", "0.1", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2


def test_couple_writes_zero_left_mass_as_zero(tmp_path):
    # alpha = 0: nothing converts, so no second-class mass is anywhere
    out = tmp_path / "couple.csv"
    rc = main(["couple", "--alpha", "0", "--N", "30", "--t-end", "0.1",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[1] == "0.1,0,0,"


def test_couple_preset_builds_one_table(tmp_path, monkeypatch):
    from zrhydro import cli
    built = []
    table = cli.ThermoTable

    def spy(*args, **kw):
        built.append(args)
        return table(*args, **kw)

    monkeypatch.setattr(cli, "ThermoTable", spy)
    out = tmp_path / "couple.csv"
    rc = main(["couple", "--preset", "absorbing-critical", "--replicas", "2",
               "--N", "30", "--t-end", "0.01", "--seed", "1",
               "--out", str(out)])
    assert rc == 0 and len(built) == 1
    assert len(out.read_text().splitlines()) == 3


def test_couple_preset_table_covers_the_density(tmp_path):
    # a preset density of 9 needs a table past the default rho = 4
    out = tmp_path / "couple.csv"
    rc = main(["couple", "--preset", "absorbing-critical",
               "--preset-density", "9", "--N", "30", "--t-end", "0.01",
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("mode", ["second-class", "basic", "labeled"])
def test_couple_preset_finishes_despite_exits(tmp_path, mode):
    # the stationary preset fills the window to both edges, so particles
    # leave it within t = 0.1; the default leak cap would raise.  At
    # beta = 1 the preset samples fugacities up to 61, where the linear
    # rate's series grows for 60 terms before it converges
    for beta in ([], ["--beta", "1"]):
        out = tmp_path / "couple.csv"
        rc = main(["couple", "--preset", "absorbing-critical", "--mode",
                   mode, "--N", "30", "--t-end", "0.1", "--seed", "1",
                   "--out", str(out)] + beta)
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2


def test_invariant_json(tmp_path, capsys):
    out = tmp_path / "inv.json"
    rc = main(["invariant", "--p", "1.0", "--alpha", "1", "--beta", "0",
               "--N", "40", "--m-plus", "1.0", "--half-window", "10",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().endswith("}\n")
    doc = json.loads(out.read_text())
    assert doc["residual"] <= 1e-10
    assert doc["m"][0] == pytest.approx(2.0)


def test_pde_solve_and_check(tmp_path, capsys):
    out = tmp_path / "pde.csv"
    rc = main(["pde", "--rho0=-1:0:1", "--du", "0.02", "--T", "0.4",
               "--check", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("t,u,rho")
    doc = json.loads((tmp_path / "pde.csv.check.json").read_text())
    assert doc["passed"] is True
    assert "PASS" in capsys.readouterr().out


def test_oracle_exact(tmp_path):
    out = tmp_path / "exact.csv"
    rc = main(["oracle", "--mode", "exact", "--t", "0.4",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith("t,u,density")


def test_oracle_killprob(tmp_path):
    out = tmp_path / "kp.csv"
    rc = main(["oracle", "--mode", "killprob", "--N", "30",
               "--replicas", "200", "--out", str(out)])
    assert rc == 0
    header, row = out.read_text().splitlines()
    assert header == "start,empirical,se,alpha_tilde_N"
    assert float(row.split(",")[3]) == pytest.approx(2 / 3)


def test_compare_pass_and_outputs(tmp_path):
    base = tmp_path / "cmp"
    rc = main(["compare", "--name", "cli", "--N", "40", "--times", "0.2",
               "--replicas", "3", "--tolerance", "0.5", "--seed", "11",
               "--out", str(base)])
    assert rc == 0
    assert (tmp_path / "cmp.csv").exists()
    doc = json.loads((tmp_path / "cmp.json").read_text())
    assert doc["passed"] is True


def test_suite_subcommand(tmp_path):
    f = tmp_path / "s.suite"
    f.write_text("name = one\nN = 30\ntimes = 0.1\nreplicas = 2\n"
                 "tolerance = 0.5\n")
    rc = main(["suite", str(f), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "one.csv").exists()


def test_unknown_subcommand_errors():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
