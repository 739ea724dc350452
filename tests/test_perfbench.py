"""The benchmark's quick mode, so a change to the names it patches or to the
trajectories its digests pin shows up in the test suite."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_quick_mode_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--quick"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "quick: ok" in proc.stdout
