"""Tests of the benchmark itself, at the tiny size so they stay quick.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _main(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_smoke_run_prints_every_end_to_end_metric(capsys, name):
    table, out = _main(capsys, "--workload", name, "--size", "tiny", "--seconds", "0.2")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {m: e["unit"] for m, e in out["metrics"].items()} == spec
    for metric, unit in spec.items():
        assert out["metrics"][metric]["value"] > 0
        assert any(line.split()[:1] == [metric] and f" {unit}" in line for line in table)


def test_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(capsys, monkeypatch, tmp_path, name):
    import boundarylab.words

    monkeypatch.setattr(run, "OUT", tmp_path)
    original = boundarylab.words.reduce_letters
    runs = []
    for _ in range(2):
        table, out = _main(capsys, "--workload", name, "--size", "tiny", "--trace", "1")
        assert out["correct"]
        assert any("tracing overhead" in line for line in table)
        runs.append(out["metrics"])
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {m: e["unit"] for m, e in runs[0].items()} == spec
    counts = [{m: e["value"] for m, e in r.items() if e["unit"] != "s"} for r in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    assert all(e["value"] > 0 for e in runs[0].values() if e["unit"] == "s")
    assert boundarylab.words.reduce_letters is original  # wrappers removed
    assert list(tmp_path.glob(f"trace-{name}-*.tsv.gz"))


def test_tampered_golden_digest_is_a_failed_op(capsys, monkeypatch, tmp_path):
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    entry = golden["tiny"]["coset-scale"]
    entry["0"] = "0" * len(entry["0"])
    tampered = tmp_path / "golden.json"
    tampered.write_text(json.dumps(golden), encoding="utf-8")
    monkeypatch.setattr(run, "GOLDEN", tampered)
    _, out = _main(capsys, "--workload", "coset-scale", "--size", "tiny",
                   "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0.2")
    assert not out["correct"]
    assert 1 <= out["failed"] < out["attempted"]  # only the pool entry with the bad digest


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ball-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
