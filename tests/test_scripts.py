"""The scripts under scripts/ run against the current library."""
from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

from almostreg.regularity import MODULUS_KINDS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_moduli_sweep_reference_tolerates_grid_roundoff(capsys):
    # On the 0.02 grid the cloud stores 0.30000000000000004 and the map
    # 0.6000000000000001, so an exact pair lookup missed the reference
    # (0.3, 0.6). The product laws may honestly fail at this step, so the
    # exit code is only required to be a verdict (0 or 1), not a refusal.
    code = _script("moduli_sweep").main(["--step", "0.02", "--ref-x", "0.3"])
    assert code in (0, 1)
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:11]]
    assert rows == list(MODULUS_KINDS)


def test_output_hashes_runs_a_workload_and_its_checks():
    # Every output-preservation claim rests on this script: it must run a
    # workload's cases from this checkout, check each, and print one line
    # per (workload, seed). The moduli checks (routes agree, verdicts) are
    # the only benchmark checks on the criterion scans.
    done = subprocess.run([sys.executable, str(SCRIPTS / "output_hashes.py"), str(ROOT),
                           "--workload", "linear", "--workload", "moduli", "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2, lines
    for line, name in zip(lines, ("linear", "moduli")):
        assert line.startswith(f"{name} seed=1 sha256="), lines
        assert line.endswith(" failed_checks=0"), lines
