"""Repository benchmark: one command, three workloads, end-to-end and
per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload mc-d9-mb --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` runs the same workload with timing shims around public calls
on every second slice, prints every per-layer metric instead, and writes
the spans to ``.perfbench/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
(``{"detail": ...}``) carries the exact counters, the failed operations and
every metric computed, for ``selfcheck.py`` and for people.

``failed`` counts operations that raised, were not served, or returned a
wrong answer; ``correct`` is false when any operation returned a wrong
answer.  Host times are calibrated against a pinned pure-Python kernel (see
``common.py``).  The program is imported from ``src/`` of the checkout;
nothing is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("mc-d9-mb", "serve-d5-mb", "net-d5-lut")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    from common import RunRecord, factor_lookup
    from layers import span_metrics
    from tracing import Tracer

    record = RunRecord()
    tracer = Tracer() if trace else None
    if name == "mc-d9-mb":
        import mc

        metrics, slices, nontrivial = mc.run(seed, seconds, tracer, record)
    else:
        import serve

        metrics, slices, nontrivial = serve.run(name, seed, seconds, tracer, record)
    if tracer is not None:
        metrics.update(span_metrics(tracer, factor_lookup(slices), nontrivial))
        path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(path, {"workload": name, "seed": seed, "spans": len(tracer.spans)})
    return record, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every process it starts, so that the
        # calibration kernel times the CPU the workload runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    record, metrics = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        from layers import fill_unexercised

        fill_unexercised(args.workload, [entry["name"] for entry in wanted], metrics)
    missing = [entry["name"] for entry in wanted if entry["name"] not in metrics]
    if missing:
        print(f"error: workload did not produce {missing}", file=sys.stderr)
        return 3
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "exact": record.exact,
        "notes": record.notes,
        "all_metrics": metrics,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": record.wrong == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
            for entry in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
