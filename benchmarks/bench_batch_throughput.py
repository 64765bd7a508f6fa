#!/usr/bin/env python3
"""Session reuse and batch decoding throughput (the unified-API hot path).

The Monte-Carlo harness used to rebuild ``MicroBlossomAccelerator`` +
``PrimalModule`` for every decoded syndrome.  With the unified decoder API the
engines are built once per session and ``reset()`` between shots, and
``decode_batch`` can additionally fan the shots out over worker processes.
This benchmark measures all three modes on the same d=9 Monte-Carlo workload
and verifies they produce bit-identical matchings.

Run::

    python benchmarks/bench_batch_throughput.py --distance 9 --samples 40
    python benchmarks/bench_batch_throughput.py --smoke   # CI-sized run
"""

from __future__ import annotations

import argparse
import time

from repro.api import MicroBlossomConfig, DecoderSession, decode_batch, get_decoder
from repro.evaluation import format_rows
from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph


def _sample(graph, samples: int, seed: int):
    return SyndromeSampler(graph, seed=seed).sample_batch(samples)


def run(distance: int, error_rate: float, samples: int, seed: int, workers: int) -> list[dict]:
    graph = surface_code_decoding_graph(distance, circuit_level_noise(error_rate))
    syndromes = _sample(graph, samples, seed)
    config = MicroBlossomConfig(stream=False)
    rows: list[dict] = []

    start = time.perf_counter()
    # reset() after every shot drops the cached engines, so each shot pays
    # for building them.
    per_shot = get_decoder("micro-blossom-batch", graph)
    baseline_weights = []
    for syndrome in syndromes:
        baseline_weights.append(per_shot.decode_detailed(syndrome).weight)
        per_shot.reset()
    baseline_seconds = time.perf_counter() - start
    rows.append(
        {
            "mode": "per-shot construction",
            "seconds": baseline_seconds,
            "shots_per_s": samples / baseline_seconds,
            "speedup": 1.0,
        }
    )

    start = time.perf_counter()
    session = DecoderSession(graph, "micro-blossom-batch", config)
    session_weights = [session.decode_detailed(s).weight for s in syndromes]
    session_seconds = time.perf_counter() - start
    rows.append(
        {
            "mode": "session reuse",
            "seconds": session_seconds,
            "shots_per_s": samples / session_seconds,
            "speedup": baseline_seconds / session_seconds,
        }
    )

    start = time.perf_counter()
    batch = decode_batch(
        graph, "micro-blossom-batch", syndromes, config=config, workers=workers
    )
    batch_seconds = time.perf_counter() - start
    rows.append(
        {
            "mode": f"decode_batch workers={workers}",
            "seconds": batch_seconds,
            "shots_per_s": samples / batch_seconds,
            "speedup": baseline_seconds / batch_seconds,
        }
    )

    assert session_weights == baseline_weights, "session reuse changed the matchings"
    assert batch.weights == baseline_weights, "decode_batch changed the matchings"
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--distance", type=int, default=9)
    parser.add_argument("--error-rate", type=float, default=0.001)
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, fast configuration for CI (d=5, 12 samples, 2 workers)",
    )
    args = parser.parse_args()
    if args.smoke:
        args.distance, args.samples, args.workers = 5, 12, 2

    print(
        f"== batch decoding throughput (d={args.distance}, p={args.error_rate}, "
        f"{args.samples} shots) =="
    )
    rows = run(args.distance, args.error_rate, args.samples, args.seed, args.workers)
    print(format_rows(rows, ["mode", "seconds", "shots_per_s", "speedup"]))
    reuse_speedup = rows[1]["speedup"]
    print(f"\nsession reuse speedup over per-shot construction: {reuse_speedup:.2f}x")
    if reuse_speedup <= 1.0:
        raise SystemExit("expected session reuse to beat per-shot construction")


if __name__ == "__main__":
    main()
