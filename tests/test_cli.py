import argparse
import ast
import inspect
import json
import sys
import textwrap

import numpy as np
import pytest

from zrhydro import cli
from zrhydro.cli import main
from zrhydro.engine import LeakageError


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


def test_simulate_plot_skips_without_matplotlib(tmp_path, monkeypatch,
                                               capsys):
    # None in sys.modules makes "import matplotlib" raise ImportError
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    args = ["simulate", "--N", "30", "--t-end", "0.1", "--seed", "3"]
    svg = tmp_path / "plot.svg"
    assert main(args + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "plot.csv"),
                        "--plot", str(svg)]) == 0
    assert capsys.readouterr().err == (
        "matplotlib not installed; skipping plot\n")
    assert not svg.exists()
    assert ((tmp_path / "plot.csv").read_bytes()
            == (tmp_path / "plain.csv").read_bytes())


def test_simulate_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        main(["simulate", "--N", "30", "--t-end", "0.1", "--seed", "7",
              "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_workers_write_the_serial_csv(tmp_path, monkeypatch):
    args = ["simulate", "--N", "30", "--t-end", "0.3", "--replicas", "3",
            "--seed", "5"]
    monkeypatch.setenv("ZRH_THREADS", "1")
    main(args + ["--out", str(tmp_path / "serial.csv")])
    monkeypatch.setenv("ZRH_THREADS", "2")
    main(args + ["--out", str(tmp_path / "pool.csv")])
    assert ((tmp_path / "serial.csv").read_bytes()
            == (tmp_path / "pool.csv").read_bytes())
    metas = []
    for name in ("serial.csv.json", "pool.csv.json"):
        meta = json.loads((tmp_path / name).read_text())["replicas"]
        for r in meta:
            del r["wall_time_s"]
        metas.append(meta)
    assert metas[0] == metas[1]
    assert [r["replica"] for r in metas[0]] == [0, 1, 2]


def test_simulate_threads_write_the_serial_outputs(tmp_path, kernel,
                                                   monkeypatch):
    # on either loop, the thread count changes neither the CSV nor the
    # sidecar, apart from wall times
    args = ["simulate", "--N", "30", "--t-end", "0.3", "--replicas", "4",
            "--seed", "5"]
    outputs = []
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("ZRH_THREADS", threads)
        out = tmp_path / f"threads{threads}.csv"
        main(args + ["--out", str(out)])
        meta = json.loads((tmp_path / f"{out.name}.json").read_text())
        for r in meta["replicas"]:
            del r["wall_time_s"]
        outputs.append((out.read_bytes(), meta))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert [r["kernel"] for r in outputs[0][1]["replicas"]] == [kernel] * 4


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


@pytest.mark.parametrize("args", [
    ["couple", "--mode", "second-class"],
    ["couple", "--mode", "basic"],
    ["couple", "--mode", "labeled"],
    ["couple", "--mode", "basic", "--preset", "absorbing-critical"],
    ["invariant", "--validate", "--p", "1", "--m-plus", "1",
     "--half-window", "20", "--t-end", "0.2"],
])
def test_threads_write_the_serial_bytes(args, tmp_path, monkeypatch):
    # more threads than cores, switching often, share the rate, the
    # profile and the thermodynamic table
    written = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in ("1", "4"):
            monkeypatch.setenv("ZRH_THREADS", threads)
            out = tmp_path / f"threads{threads}.out"
            main(args + ["--N", "30", "--replicas", "6", "--seed", "3",
                         "--out", str(out)]
                 + (["--t-end", "0.1"] if args[0] == "couple" else []))
            written.append(out.read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert written[0] == written[1]


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


def test_pde_check_reads_the_half_line_solution(tmp_path, capsys,
                                                monkeypatch):
    # the right grid, which the CSV holds on u > 0, swapped for reversed
    # Riemann data carried as a jump at its Rankine-Hugoniot speed (1/6
    # for the indicator rate at p = 0.75): the whole-line grid still
    # passes, so only the right grid's check can fail the run
    from zrhydro import cli
    compose = cli.compose_theorem_solution

    def jump(*args, **kw):
        sol = compose(*args, **kw)
        g = sol.right
        g.values = np.array([np.where(g.centers < 0.05 + t / 6, 2.0, 0.0)
                             for t in g.times])
        return sol

    monkeypatch.setattr(cli, "compose_theorem_solution", jump)
    out = tmp_path / "pde.csv"
    rc = main(["pde", "--g", "indicator", "--du", "0.01", "--T", "0.4",
               "--check", "--out", str(out)])
    assert rc == 1
    left, right = capsys.readouterr().out.splitlines()
    assert "PASS" in left and "FAIL" in right
    doc = json.loads((tmp_path / "pde.csv.check.json").read_text())
    assert doc == {"passed": False, "n_inequalities": 162}


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


@pytest.mark.parametrize("mode, error", [
    ("ode", RuntimeError), ("dual", LeakageError)])
def test_oracle_failed_run_writes_no_file(mode, error, tmp_path,
                                          monkeypatch):
    # the ODE's density leaks past a window this narrow; the dual walks
    # leave a window cut to a hundredth of a standard deviation
    from zrhydro import oracle
    monkeypatch.setattr(oracle, "DUAL_WINDOW_SIGMAS", 0.01)
    out = tmp_path / "o.csv"
    with pytest.raises(error, match="leak|exits"):
        main(["oracle", "--mode", mode, "--u-min", "-0.1", "--u-max", "0.1",
              "--replicas", "500", "--out", str(out)])
    assert not out.exists()


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


class _Built(Exception):
    """Raised in place of parsing, with the parser that ``main`` built."""


def subcommand_parsers(monkeypatch) -> dict:
    """{name: parser} of each subcommand of the parser ``main`` builds."""
    def stop(parser, *args, **kw):
        raise _Built(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", stop)
    with pytest.raises(_Built) as built:
        main([])
    top = built.value.args[0]
    return next(a.choices for a in top._actions
                if isinstance(a, argparse._SubParsersAction))


def args_read(fn) -> set:
    """Attributes that ``fn`` reads of its first parameter, with those
    that a ``cli`` helper reads when ``fn`` passes it that parameter
    first, less the ones a keyword argument of the call supplies."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    name = tree.args.args[0].arg
    reads = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == name):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.args and isinstance(node.args[0], ast.Name)
              and node.args[0].id == name
              and inspect.isfunction(getattr(cli, node.func.id, None))):
            reads |= (args_read(getattr(cli, node.func.id))
                      - {kw.arg for kw in node.keywords})
    return reads


def test_args_read_follows_helpers():
    # cmd_pde reads the model flags through _params, which it hands N
    reads = args_read(cli.cmd_pde)
    assert {"asym", "alpha", "beta", "du", "check"} <= reads
    assert "N" not in reads and "N" in args_read(cli.cmd_oracle)


def test_every_flag_is_read_by_its_command(monkeypatch):
    unread = {}
    for name, parser in subcommand_parsers(monkeypatch).items():
        dests = {a.dest for a in parser._actions
                 if not isinstance(a, argparse._HelpAction)}
        left = dests - args_read(parser.get_default("fn"))
        if left:
            unread[name] = left
    assert unread == {}


@pytest.mark.parametrize("args", [
    ["oracle", "--mode", "ode", "--g", "indicator"],
    ["pde", "--T", "0.1", "--N", "5"],
    ["pde", "--T", "0.1", "--seed", "3"],
])
def test_unread_flags_are_usage_errors(args, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_:
        main(args + ["--out", str(out)])
    assert exit_.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {' '.join(args[-2:])}\n")
    assert not out.exists()


def test_unknown_subcommand_errors():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("args", [
    ["oracle", "--mode", "killprob", "--N", "50"],
    ["couple", "--mode", "second-class", "--N", "30"],
    ["simulate", "--N", "30"],
    ["invariant", "--validate"],
    ["compare", "--N", "30"],
])
@pytest.mark.parametrize("count", ["0", "-3", "two"])
def test_no_replicas_is_a_usage_error(args, count, tmp_path, capsys):
    # killprob divided by zero and second-class wrote a header-only CSV
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_:
        main(args + ["--replicas", count, "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: zrh {args[0]}")
    assert "--replicas: must be a positive integer" in err
    assert not out.exists()


def test_one_replica_cannot_validate(tmp_path, capsys):
    # the standard error of one replica was nan, and every site failed
    out = tmp_path / "inv.json"
    rc = main(["invariant", "--p", "1.0", "--N", "40", "--m-plus", "1.0",
               "--half-window", "10", "--validate", "--replicas", "1",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "zrh invariant: error: a standard error needs at least 2 replicas, "
        "got 1\n")
    assert not out.exists()


def test_zero_width_band_is_a_usage_error(tmp_path, capsys):
    # every replica reads g = 0 at x = 2, so se is 0 and the site failed
    # on a band of no width
    out = tmp_path / "inv.json"
    rc = main(["invariant", "--preset", "absorbing-subcritical", "--N", "20",
               "--half-window", "10", "--validate", "--replicas", "4",
               "--t-end", "0.1", "--seed", "4", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "zrh invariant: error: site x = 2: every replica read the same "
        "average of g, so se = 0; use more replicas\n")
    assert not out.exists()


def test_negative_time_is_a_one_line_error(capsys):
    assert main(["compare", "--N", "30", "--times", "0.4", "-0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("zrh compare: error: times") and err.count("\n") == 1
