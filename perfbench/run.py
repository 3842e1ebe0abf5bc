#!/usr/bin/env python3
"""boundarylab benchmark: closed loop, one client, single process and thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload coset-scale --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --write-golden          # refresh golden.json

``--trace 0`` sets up the workload (several times; the median is
``setup_s``), runs ops for ``--seconds`` and prints the end-to-end metrics.
``--trace 1`` sets up the same way, then runs the workload's fixed op
list untraced and again under the span tracer, prints per-layer metrics and
the tracing overhead, and writes the spans under ``perfbench/out/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The library is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

WORKLOAD_NAMES = ("scenario-suite", "coset-scale", "deep-contraction", "ball-sweep")

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYER_TABLE = tuple(
    (name, "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count")
    for name in (
        "cosets.enumerate_calls", "cosets.enumerate_s", "cosets.cosets_built",
        "cosets.infinite_index_raised", "cosets.schreier_s",
        "cosets.rewrite_calls", "cosets.rewrite_letters", "cosets.rewrite_s",
        "words.reduce_calls", "words.letters_reduced", "words.reduce_s",
        "words.ball_calls", "words.ball_words", "words.ball_s",
        "spaces.act_calls", "spaces.act_s",
        "spaces.boundary_act_calls", "spaces.boundary_act_s",
        "spaces.normal_form_calls", "spaces.normal_form_s",
        "spaces.cylinder_after_calls", "spaces.cylinder_after_s",
        "measures.pushforward_calls", "measures.atoms_pushed", "measures.pushforward_s",
        "measures.defect_calls", "measures.defect_s",
        "checks.contract_calls", "checks.contract_s",
        "checks.replay_calls", "checks.replay_s",
        "checks.cert_steps", "checks.cert_inconclusive",
        "checks.minimal_symbolic_s", "checks.sp_extension_s",
        "scenario.run_s", "scenario.replay_certificate_calls",
        "scenario.replay_certificate_s", "scenario.report_bytes",
        "words.self_s", "cosets.self_s", "spaces.self_s",
        "measures.self_s", "checks.self_s", "scenario.self_s",
    )
)

# A function some workload never calls has a time of exactly 0 there, so the
# result line carries every count but only the times no workload leaves at 0;
# the printed table has them all.
ALWAYS_TIMED = (
    "words.reduce_s", "cosets.rewrite_s", "spaces.act_s", "spaces.boundary_act_s",
    "spaces.normal_form_s", "words.self_s", "cosets.self_s", "spaces.self_s",
    "measures.self_s", "checks.self_s",
)
PER_LAYER = tuple((m, u) for m, u in LAYER_TABLE if u != "s" or m in ALWAYS_TIMED)

MAX_REPORTED_FAILURES = 20


class Tally:
    """Attempted and failed ops; the first few failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, wl, i: int) -> float:
        """Run op i, count it, and return its latency in seconds."""
        start = perf_counter()
        try:
            fails = wl.op(i)
        except Exception:  # an op that raises is a failed op; the run goes on
            fails = [f"{wl.name}[{i}]: exception\n{traceback.format_exc()}"]
        elapsed = perf_counter() - start
        self.attempted += 1
        if fails:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print("\n".join(fails), file=sys.stderr)
        return elapsed


def import_library() -> float:
    """Import boundarylab from src/ and return the import time in seconds."""
    if not (SRC / "boundarylab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no boundarylab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = perf_counter()
    import boundarylab  # the package imports every module

    elapsed = perf_counter() - start
    if not Path(boundarylab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"boundarylab imported from {boundarylab.__file__}, not {SRC}")
    return elapsed


def load_golden(size: str, name: str, seed: int):
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[size][name]


def set_up(name: str, seed: int, size: str, tally: Tally):
    """Build the workload from scratch (golden load, inputs, cold ball cache,
    one untimed warm-up op) several times; return it and the set-up times."""
    from boundarylab import words
    from workloads import SIZES, WORKLOADS

    times = []
    for _ in range(SIZES[size]["setup_reps"]):
        words.cached_ball.cache_clear()
        start = perf_counter()
        wl = WORKLOADS[name](size, load_golden(size, name, seed))
        wl.setup(seed)
        tally.run(wl, 0)
        times.append(perf_counter() - start)
    return wl, times


def tail(latencies: list[float]):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, never below the median (so up to 20 samples it is the median)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(name: str, seed: int, seconds: float, size: str, import_s: float) -> dict:
    tally = Tally()
    wl, setup_times = set_up(name, seed, size, tally)
    latencies = []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        latencies.append(tally.run(wl, i))
        i += 1
        if i % wl.round_len == 0 and perf_counter() >= deadline:
            break
    tail_s, tail_q = tail(latencies)
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {name}  seed {seed}  size {size}  timed ops {len(latencies)}  "
          f"attempted {tally.attempted}  failed {tally.failed}")
    for metric, unit in END_TO_END:
        note = ""
        if metric == "op_tail_ms":
            note = f"  (p{tail_q:.1f} of n={len(latencies)})"
        elif metric == "setup_s":
            note = (f"  (import {import_s:.4f} s + median of "
                    f"{len(setup_times)} set-ups {statistics.median(setup_times):.4f} s)")
        print(f"  {metric:<16} {values[metric]:>14.6f} {unit}{note}")
    print(f"  {'failed_op_frac':<16} {tally.failed / tally.attempted:>14.6f} "
          f"({tally.failed}/{tally.attempted})")
    return result(tally, {m: (values[m], u) for m, u in END_TO_END})


def layer_metric(tracer, name: str):
    layer, key = name.split(".", 1)
    if key == "self_s":
        return tracer.layer_self_s()[layer]
    if name == "cosets.infinite_index_raised":
        return tracer.raised["cosets.enumerate:InfiniteIndexError"]
    if key.endswith("_calls"):
        return tracer.calls[f"{layer}.{key[:-len('_calls')]}"]
    if key.endswith("_s"):
        return tracer.inclusive_s[f"{layer}.{key[:-len('_s')]}"]
    return tracer.counts[name]


def traced(name: str, seed: int, size: str) -> dict:
    from spans import Tracer

    tally = Tally()
    wl, _ = set_up(name, seed, size, tally)
    ops = range(wl.trace_ops)
    plain_s = sum(tally.run(wl, i) for i in ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = 0.0
        for i in ops:
            tracer.op = i
            traced_s += tally.run(wl, i)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}-{size}.tsv.gz"
    tracer.write(path)

    values = {metric: layer_metric(tracer, metric) for metric, _ in LAYER_TABLE}
    layers = tracer.layer_self_s()
    print(f"workload {name}  seed {seed}  size {size}  traced ops {len(ops)}  "
          f"attempted {tally.attempted}  failed {tally.failed}")
    print(f"  tracing overhead {100 * (traced_s / plain_s - 1):+.1f}%  "
          f"(ops_per_s untraced {len(ops) / plain_s:.4f}, traced {len(ops) / traced_s:.4f}, "
          f"same {len(ops)} ops)  spans {tracer.span_count()} -> {os.path.relpath(path)}")
    print("  layer self time share: " + ", ".join(
        f"{layer} {100 * t / traced_s:.1f}%" for layer, t in sorted(layers.items(), key=lambda kv: -kv[1])
    ) + f", outside spans {100 * (1 - sum(layers.values()) / traced_s):.1f}%")
    for metric, unit in LAYER_TABLE:
        print(f"  {metric:<36} {values[metric]:>16.6f} {unit}" if unit == "s"
              else f"  {metric:<36} {values[metric]:>16d} {unit}")
    return result(tally, {m: (values[m], u) for m, u in PER_LAYER})


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a fresh process (so peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, entry in one["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    return combined


def write_golden() -> None:
    """Record every output digest of one pass over each pool at the default seed."""
    from workloads import DEFAULT_SEED, SIZES, WORKLOADS

    golden = {}
    for size in SIZES:
        golden[size] = {}
        for name, cls in WORKLOADS.items():
            wl = cls(size, None)
            wl.setup(DEFAULT_SEED)
            for i in range(1 if name == "scenario-suite" else len(wl.pool)):
                fails = wl.op(i)
                if fails:
                    raise RuntimeError("\n".join(fails))
            golden[size][name] = dict(sorted(wl.last_digests.items()))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_golden and args.workload is None:
        ap.error("--workload is required")
    try:
        import_s = import_library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0
    if args.workload == "all":
        out = run_all(args)
    elif args.trace:
        out = traced(args.workload, args.seed, args.size)
    else:
        out = measure(args.workload, args.seed, args.seconds, args.size, import_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
