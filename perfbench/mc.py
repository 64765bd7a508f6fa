"""Workload ``mc-d9-mb``: Monte-Carlo decoding with Micro Blossom at d=9.

A d=9 rotated surface code under circuit-level noise at p=0.001, decoded by
``micro-blossom-batch`` (all measurement rounds at once), single process.
The loop is what ``MonteCarloEngine(workers=1)`` does — sample a shard with
:class:`~repro.graphs.SyndromeSampler`, decode every non-trivial shot with
:meth:`~repro.api.DecoderSession.decode_detailed` — but driven by the
benchmark, because the engine aborts the whole run on one decoder
exception; here a shot that raises is counted as a failed operation and the
run goes on.  Every weight is checked against the ``reference`` decoder.

The stream mode (``micro-blossom``, round-wise fusion) is not used: on about
one run in three at this size it returns a matching heavier than the
minimum (for example seed 757038513 shot 1175, defects
``(77, 80, 119, 314, 361)``: weight 106 against 80) or raises
``DualPhaseError`` (seed 1 shot 1144), and a wrong answer fails the whole
run.  The batch mode drives the same ``MicroBlossomAccelerator`` and
``PrimalModule`` and decodes those shots exactly.

``repro.core`` does almost all the work (about 4 ms per non-trivial shot on
the reference host, against under 1 ms for the ``reference`` MWPM decoder),
so this workload is the one a faster dual engine must move.  d=9 is the
largest distance whose runs last seconds in pure Python.
"""

from __future__ import annotations

import time
from collections import Counter, deque

from common import (
    HostClock,
    digest,
    factor_lookup,
    mean,
    median,
    percentile,
    run_sliced,
    tail_mean,
    tracing_overhead,
)
from layers import core_counts

DISTANCE = 9
ERROR_RATE = 0.001
DECODER = "micro-blossom-batch"

#: Shots per ``--seconds``: the shot count is fixed by the seed and the run
#: length, never by host speed, so every count and modelled latency repeats
#: exactly for a seed.  A run measures about ``--seconds`` calibrated
#: seconds at the parent commit's speed.
SHOTS_PER_SECOND = 350

#: Cold starts measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 40

#: Seed of the pinned syndrome every cold start decodes once (independent of
#: ``--seed``, so set-up time does not vary with the workload seed).
WARM_SEED = 0


def _graph():
    from repro.graphs import circuit_level_noise, surface_code_decoding_graph

    return surface_code_decoding_graph(DISTANCE, circuit_level_noise(ERROR_RATE))


def measure_setup(clock: HostClock, warm_shot):
    """Cold starts: graph build, session build and a first decode.

    Returns the median calibrated set-up and graph-build seconds, the median
    raw set-up seconds, and the graph and session of the last cold start,
    which the timed phase goes on using.
    """
    from repro.api import DecoderSession

    setups, builds = [], []
    graph = session = None
    first = len(clock.kernel_seconds)
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        graph = _graph()
        built = time.perf_counter()
        session = DecoderSession(graph, DECODER)
        session.decode_detailed(warm_shot)
        setups.append(time.perf_counter() - started)
        builds.append(built - started)
        clock.kernel()
    factor = clock.phase_factor(first)
    return median(setups) * factor, median(builds) * factor, median(setups), graph, session


def run(seed: int, seconds: int, tracer, record):
    from repro.api import DecoderSession
    from repro.evaluation import (
        DEFAULT_SHARD_SIZE,
        modelled_latency_fn,
        modelled_trivial_latency_seconds,
    )
    from repro.graphs import SyndromeSampler

    clock = HostClock()
    warm = SyndromeSampler(_graph(), seed=WARM_SEED).sample_batch(256)
    warm_shot = next(shot for shot in warm if shot.defects)
    setup_s, build_s, raw_setup_s, graph, session = measure_setup(clock, warm_shot)

    total = max(1, int(seconds * SHOTS_PER_SECOND))
    sampler = SyndromeSampler(graph, seed=seed)
    pending: deque = deque()  # sampled a shard at a time, as the engine does
    shots = []  # (shot, outcome or None)
    decode_times = []  # (start_ns, seconds) of each successful decode
    sample_times = []  # (start_ns, seconds) of each sample_batch call
    failures = []  # (shot index, error)

    def run_slice(deadline_ns: int) -> int:
        done = 0
        while len(shots) < total:
            if not pending:
                take = min(DEFAULT_SHARD_SIZE, total - len(shots))
                started = time.perf_counter_ns()
                pending.extend(sampler.sample_batch(take))
                sample_times.append((started, (time.perf_counter_ns() - started) * 1e-9))
            shot = pending.popleft()
            index = len(shots)
            done += 1
            if not shot.defects:
                shots.append((shot, None))
                continue
            if tracer is not None:
                tracer.set_request(index)
            started = time.perf_counter_ns()
            try:
                outcome = session.decode_detailed(shot)
            except Exception as exc:  # a decoder fault is a failed operation
                failures.append((index, f"{type(exc).__name__}: {exc}"))
                shots.append((shot, None))
                continue
            decode_times.append((started, (time.perf_counter_ns() - started) * 1e-9))
            shots.append((shot, outcome))
            if time.perf_counter_ns() >= deadline_ns:
                break
        return done

    slices = run_sliced(clock, tracer, lambda: len(shots) < total, run_slice)

    # -- correctness, outside the timed region -------------------------
    record.attempted = total
    for index, error in failures:
        record.fail(f"shot {index} {tuple(shots[index][0].defects)}: {error}")
    reference = DecoderSession(graph, "reference")
    for index, (shot, outcome) in enumerate(shots):
        if outcome is None:
            continue
        expected = reference.decode_detailed(shot).weight
        if outcome.weight != expected:
            record.mismatch(f"shot {index}: weight {outcome.weight} != reference {expected}")

    # -- exact counts and modelled latency ------------------------------
    latency_fn = modelled_latency_fn(DECODER, graph)
    trivial = modelled_trivial_latency_seconds(DECODER, graph)
    counters: Counter = Counter()
    modelled = []
    decoded = 0
    for shot, outcome in shots:
        if outcome is not None:
            decoded += 1
            counters.update(outcome.counters)
            modelled.append(latency_fn(outcome))
        elif not shot.defects:
            modelled.append(trivial)
    record.exact = {
        "shots": total,
        "decoded": decoded,
        "failures": [index for index, _error in failures],
        "counters": dict(sorted(counters.items())),
        "modelled_latency": digest([round(value * 1e12) for value in modelled]),
        "modelled_latency_p99_ps": round(percentile(modelled, 99) * 1e12),
    }

    # -- timing ---------------------------------------------------------
    factor = factor_lookup(slices)
    calibrated = sum(piece.seconds for piece in slices)
    latency_ms = [seconds * factor(start) * 1e3 for start, seconds in decode_times]
    sample_s = sum(seconds * factor(start) for start, seconds in sample_times)
    metrics = {
        "setup_s": setup_s,
        "shots_per_s": total / calibrated,
        "requests_per_s": (decoded + len(failures)) / calibrated,
        "latency_p50_ms": median(latency_ms),
        "latency_p90_ms": percentile(latency_ms, 90),
        # Not an end-to-end metric (too unsteady on a shared host); kept for audit.
        "latency_p99_ms": percentile(latency_ms, 99),
        "model_latency_mean_us": mean(modelled) * 1e6,
        "model_latency_tail_us": tail_mean(modelled, 99) * 1e6,
        "host.calib_ms": clock.median_ms(),
        "host.raw_throughput_per_s": total / sum(piece.raw_seconds for piece in slices),
        "host.raw_setup_s": raw_setup_s,
        "graphs.build_s": build_s,
        "graphs.sample_us_per_shot": sample_s / total * 1e6,
        **core_counts(counters, decoded),
    }
    if tracer is not None:
        metrics["trace.overhead_share"] = tracing_overhead(slices)
    # Only non-trivial shots reach the decoder here.
    return metrics, slices, lambda request: request >= 0
