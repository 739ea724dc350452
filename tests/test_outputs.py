"""Every shipped fixed-seed output, pinned by its sha256.

``outputs_manifest.json`` holds the sha256 of each file written by a fixed
list of small CLI runs, beside each run's exit code (``zrh simulate``,
``compare``, ``pde``, ``invariant``, all four ``oracle`` modes, ``zrh
couple`` in its three modes and with a preset; ``pde`` and the exact
oracle also at beta < 0 and beta > 0), of each file ``zrh suite``
writes for ``suites/acceptance.suite``, and of each demo's stdout.  JSON
sidecars are hashed with their ``wall_time_s`` and ``kernel`` keys
removed, the only fields that move between runs or between the two loops.

The small runs run on the compiled loop and on the Python loop, against
the same digests.  The suite runs on the compiled loop only: the Python
loop is 40-55 times slower there, and the golden files tie the two loops
already.  The demos' digests come from the runs ``test_demos.py`` makes.

A change that moves an output on purpose re-records the manifest and
names each moved file and the reason in CHANGES.md:

    PYTHONPATH=src python3 tests/test_outputs.py --record
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from test_demos import DEMOS, run_demo
from zrhydro.cli import main
from zrhydro.harness import run_suite

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("outputs_manifest.json")
SUITE = ROOT / "suites" / "acceptance.suite"
#: sidecar keys that differ between runs (timings) or loops
VOLATILE = ("wall_time_s", "kernel")
COUPLE = ["couple", "--N", "30", "--t-end", "0.2", "--replicas", "2",
          "--seed", "5"]
PDE = ["pde", "--g", "indicator", "--du", "0.02", "--T", "0.4", "--check"]
ORACLE = ["oracle", "--N", "30", "--replicas", "200", "--seed", "6"]
INVARIANT = ["invariant", "--preset", "absorbing-subcritical", "--N", "20",
             "--half-window", "10", "--validate", "--t-end", "0.1", "--seed",
             "4"]
#: each small run's arguments but ``--out``, by the name of its outputs
RUNS = {
    "simulate": ["simulate", "--N", "30", "--t-end", "0.2", "--replicas",
                 "2", "--seed", "3"],
    "compare": ["compare", "--N", "30", "--times", "0.1", "0.2", "--target",
                "pde", "--replicas", "2", "--seed", "3", "--tolerance", "1"],
    "pde": PDE,
    # the sub- and supercritical regimes: no boundary, then zero influx
    "pde-sub": PDE + ["--beta", "-0.5"],
    "pde-super": PDE + ["--beta", "1"],
    # four replicas leave a zero-width band (exit 2, no file); twenty pin
    # the stationarity JSON
    "invariant": INVARIANT + ["--replicas", "4"],
    "invariant-band": INVARIANT + ["--replicas", "20"],
    # the same flat-right preset at p = 1, the two-level profile
    "invariant-p1": INVARIANT + ["--replicas", "20", "--p", "1"],
    **{f"oracle-{mode}": ORACLE + ["--mode", mode]
       for mode in ("exact", "ode", "dual", "killprob")},
    "oracle-exact-sub": ORACLE + ["--mode", "exact", "--beta", "-0.5"],
    "oracle-exact-super": ORACLE + ["--mode", "exact", "--beta", "1"],
    **{f"couple-{mode}": COUPLE + ["--mode", mode]
       for mode in ("second-class", "basic", "labeled")},
    "couple-preset": COUPLE + ["--preset", "absorbing-critical", "--t-end",
                               "0.1"],
}


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k not in VOLATILE}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def digest(data: bytes, json_file: bool = False) -> str:
    if json_file:
        data = json.dumps(_strip(json.loads(data)), sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _files(out_dir: Path, prefix: str) -> dict:
    return {f"{prefix}/{p.name}": digest(p.read_bytes(), p.suffix == ".json")
            for p in sorted(out_dir.iterdir())}


def cli_digests(tmp: Path) -> dict:
    found = {}
    for name, args in RUNS.items():
        out = tmp / name
        out.mkdir()
        found[f"cli/{name}/exit"] = main(args + ["--out", str(out / name)])
        found.update(_files(out, f"cli/{name}"))
    return found


def suite_digests(tmp: Path) -> dict:
    assert run_suite(SUITE, out_dir=tmp) == 0
    return _files(tmp, "suite")


def demo_digest(demo: Path) -> str:
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    return digest(done.stdout.encode())


def pinned(prefix: str) -> dict:
    doc = json.loads(MANIFEST.read_text())
    return {k: v for k, v in doc.items() if k.startswith(prefix)}


def test_cli_outputs_pinned(kernel, tmp_path):
    assert cli_digests(tmp_path) == pinned("cli/")


def test_suite_outputs_pinned(c_kernel, tmp_path):
    assert suite_digests(tmp_path) == pinned("suite/")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_pinned(demo):
    assert demo_digest(demo) == pinned("demos/").get(f"demos/{demo.name}")


def test_manifest_names_every_demo():
    assert set(pinned("demos/")) == {f"demos/{d.name}" for d in DEMOS}


def _record():
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "cli").mkdir()
        (Path(tmp) / "suite").mkdir()
        doc.update(cli_digests(Path(tmp) / "cli"))
        doc.update(suite_digests(Path(tmp) / "suite"))
    doc.update({f"demos/{d.name}": demo_digest(d) for d in DEMOS})
    MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(doc)} outputs to {MANIFEST.name}")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()
