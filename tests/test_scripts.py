"""Smoke test: the example scripts run against the package as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from boundarylab.scenario import bundled_scenario_names

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", ["contract_demo.py", "defect_profile.py"])
def test_script_runs(script):
    done = _run(script)
    assert done.returncode == 0, done.stderr


def test_contract_demo_deep_certificate():
    done = _run("contract_demo.py", "--depth", "1024", "--steps", "4096")
    assert done.returncode == 0, done.stderr
    assert "replay: PASS" in done.stdout


def test_run_all_scenarios_writes_every_report(tmp_path):
    done = _run("run_all_scenarios.py", "--out-dir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [f"{name}.report.json" for name in bundled_scenario_names()]
    assert len(written) == 4
