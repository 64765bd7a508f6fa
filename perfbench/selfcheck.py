"""Steadiness self-check: run each workload repeatedly on the same code.

Run from the repository root::

    python3 perfbench/selfcheck.py --repeats 3 --seed 1
    python3 perfbench/selfcheck.py --workload mc-d9-mb --repeats 10 --vary-seeds

Each repeat is a separate ``run.py`` process, as the benchmark is normally
run.  For every workload the check prints each metric's median and its
spread — the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median — next to
the metric's bound from ``BENCHMARK.json``.  It fails when a run breaks the
result format or reports incorrect outputs, when an end-to-end spread other
than ``setup_s``'s exceeds its bound, and, with one seed for every repeat,
when the exact counters (outcome counters, modelled latencies, session
builds, failed shots) differ between repeats.  ``--vary-seeds`` gives
repeat ``i`` the seed ``seed + i``, as the benchmark's acceptance runs do;
the exact-counter check is then skipped.  ``--trace 1`` checks the traced
runs and prints which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS, load_spec  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    script = os.path.join("perfbench", "run.py")
    options = {"--workload": workload, "--seed": seed, "--seconds": seconds, "--trace": trace}
    command = [sys.executable, script] + [str(x) for pair in options.items() for x in pair]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_result(result: dict, wanted: list[dict]) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("outputs are not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be an int >= 1")
    names = {entry["name"] for entry in wanted}
    if set(result.get("metrics", {})) != names:
        problems.append(f"metrics {sorted(result.get('metrics', {}))} != {sorted(names)}")
    return problems


def spread(values: list[float]) -> tuple[float, float]:
    """Median and inter-quartile distance as a share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return middle, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return middle, (q3 - q1) / abs(middle)


def check_workload(workload: str, args, wanted: list[dict]) -> bool:
    runs = []
    for repeat in range(args.repeats):
        seed = args.seed + repeat if args.vary_seeds else args.seed
        detail, result = run_once(workload, seed, args.seconds, args.trace)
        runs.append((seed, detail, result))
        counts = f"attempted={result['attempted']} failed={result['failed']}"
        print(f"  {workload} seed={seed} {counts} correct={result['correct']}", flush=True)
    ok = True
    for seed, detail, result in runs:
        for problem in check_result(result, wanted):
            print(f"  FAIL seed={seed}: {problem}")
            ok = False
        for note in detail["notes"]:
            print(f"  failed operation (seed={seed}): {note}")
    print(f"  {'metric':28s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for entry in wanted:
        values = [result["metrics"][entry["name"]]["value"] for _seed, _detail, result in runs]
        middle, share = spread(values)
        bound = entry.get("bound")
        verdict = ""
        if bound is not None and share > bound and entry["name"] != "setup_s":
            verdict = "FAIL"
            ok = False
        elif bound is not None and share > bound / 3:
            verdict = "over a third of the bound"
        shown = "" if bound is None else f"{bound:.2f}"
        print(f"  {entry['name']:28s} {middle:14.6g} {share:8.4f} {shown:>6s} {verdict}")
        print(f"  {'':28s} runs: {' '.join(f'{value:.5g}' for value in values)}")
    if not args.vary_seeds:
        exact = {json.dumps(detail["exact"], sort_keys=True) for _seed, detail, _result in runs}
        if len(exact) == 1:
            print(f"  exact counters identical across {len(runs)} repeats")
        else:
            print(f"  FAIL: exact counters differ across repeats of seed {args.seed}")
            ok = False
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--vary-seeds", action="store_true")
    args = parser.parse_args(argv)

    from layers import LAYER_MAP

    ok = sorted(entry["name"] for entry in spec["per_layer"]) == sorted(LAYER_MAP)
    if not ok:
        print("FAIL: layers.LAYER_MAP does not name the per-layer metrics of BENCHMARK.json")
    if args.trace:
        for name, (what, moves) in LAYER_MAP.items():
            print(f"  {name:28s} {what}\n  {'':28s} moves: {moves}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for workload in args.workload or WORKLOADS:
        print(f"{workload}:", flush=True)
        ok = check_workload(workload, args, wanted) and ok
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
