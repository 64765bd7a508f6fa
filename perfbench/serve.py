"""Workloads ``serve-d5-mb`` and ``net-d5-lut``: closed-loop decode traffic.

Both send the same traffic: single-shot requests for three d=5 rotated
surface-code sessions under circuit-level noise at p = 0.001 / 0.002 / 0.005,
mixed 6:3:1, every syndrome sampled by the benchmark from the seed.  The load
is a closed loop with 16 requests outstanding, submitted from one thread: a
QEC controller waits for each correction before it sends the next syndrome.

* ``serve-d5-mb`` — an in-process :class:`~repro.service.DecodeService`
  with the outcome cache on (empty at the start of each run) and
  ``micro-blossom`` sessions.  Small graphs and few defects per decode, so
  per-call overhead weighs more than in ``mc-d9-mb``; it exercises the
  micro-batcher, the session cache and :class:`~repro.lut.OutcomeCache`.
* ``net-d5-lut`` — the same traffic through one
  :class:`~repro.service.net.NetClient` connection to a
  :class:`~repro.service.net.NetServer` with one worker process, running in
  a child process (``netserver.py``).  The decoder is ``lut+union-find``
  with the default service config (outcome cache off): decoding costs tens
  of microseconds, so the wire, front end, slab, worker pipe and
  micro-batcher dominate, and ``repro.core`` is bypassed entirely.
"""

from __future__ import annotations

import json
import os
import queue
import select
import subprocess
import sys
import time
from collections import Counter

from common import (
    HostClock,
    block_percentile,
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

DISTANCE = 5
ERROR_RATES = (0.001, 0.002, 0.005)
MIX = (6, 3, 1)
WINDOW = 16

#: Decoder and requests per ``--seconds`` of each workload.  The request
#: count is fixed by the seed and the run length, never by host speed, so
#: the outcome counters and modelled latencies repeat exactly for a seed.
DECODERS = {"serve-d5-mb": "micro-blossom", "net-d5-lut": "lut+union-find"}
REQUESTS_PER_SECOND = {"serve-d5-mb": 4000, "net-d5-lut": 3000}

#: Requests per block of ``latency_p90_ms``, the median of block p90s
#: (about a second of traffic each).
LATENCY_BLOCK = 3000

#: Cold starts measured per run; ``setup_s`` is their median.
SETUP_REPEATS = {"serve-d5-mb": 40, "net-d5-lut": 6}

#: Outcome-cache budget of ``serve-d5-mb`` — large enough never to evict.
OUTCOME_CACHE_BYTES = 64 << 20

#: Bound on one server start or stop.
SERVER_TIMEOUT_SECONDS = 60.0

HERE = os.path.dirname(os.path.abspath(__file__))


def traffic(seed: int, total: int, decoder: str):
    """The seed's requests and the session-key index of each, plus per-key
    graphs and the host seconds spent building graphs and sampling."""
    import numpy as np

    from repro.graphs import SyndromeSampler
    from repro.service import CodeSpec, DecodeRequest, SessionKey

    codes = [CodeSpec(DISTANCE, "circuit_level", rate) for rate in ERROR_RATES]
    keys = [SessionKey(code, decoder) for code in codes]
    graphs, builds = [], []
    for code in codes:
        started = time.perf_counter()
        graphs.append(code.build_graph())
        builds.append(time.perf_counter() - started)
    weights = np.array(MIX, dtype=float) / sum(MIX)
    choice = np.random.default_rng([seed, 1]).choice(len(keys), size=total, p=weights)
    started = time.perf_counter()
    pools = []
    for index, graph in enumerate(graphs):
        sampler = SyndromeSampler(graph, seed=np.random.SeedSequence([seed, index]))
        pools.append(iter(sampler.sample_batch(int((choice == index).sum()))))
    sample_seconds = time.perf_counter() - started
    kinds = [int(k) for k in choice]
    requests = [DecodeRequest(keys[k], next(pools[k]), request_id=i) for i, k in enumerate(kinds)]
    return codes, keys, graphs, kinds, requests, builds, sample_seconds


class InProcess:
    """``serve-d5-mb`` target: a fresh in-process ``DecodeService``."""

    def __init__(self, keys) -> None:
        from repro.graphs import Syndrome
        from repro.service import DecodeService, ServiceConfig

        self.service = DecodeService(ServiceConfig(outcome_cache_bytes=OUTCOME_CACHE_BYTES))
        self.service.start()
        for key in keys:
            entry = self.service.sessions.acquire(key)
            with entry.lock:
                entry.session.decode_detailed(Syndrome(defects=()))
        self.server_start_s = 0.0

    def submit(self, request):
        # Looked up per call, so tracing shims installed later are seen.
        return self.service.submit(request)

    def close(self) -> None:
        self.service.close(timeout=SERVER_TIMEOUT_SECONDS)


class OverNetwork:
    """``net-d5-lut`` target: a ``NetServer`` child process and one client."""

    def __init__(self, codes, keys) -> None:
        from repro.graphs import Syndrome
        from repro.service import DecodeRequest
        from repro.service.net import NetClient

        specs = json.dumps([code.to_dict() for code in codes])
        command = [sys.executable, os.path.join(HERE, "netserver.py"), specs]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.process.stdout], [], [], SERVER_TIMEOUT_SECONDS)
            line = self.process.stdout.readline() if ready else ""
            if not line.strip().isdigit():
                raise RuntimeError(f"net server did not report a port (got {line!r})")
            self.server_start_s = time.perf_counter() - started
            self.client = NetClient("127.0.0.1", int(line))
        except BaseException:
            self._stop_process()
            raise
        try:
            for key in keys:
                request = DecodeRequest(key, Syndrome(defects=()))
                response = self.client.decode(request, timeout=SERVER_TIMEOUT_SECONDS)
                if not response.ok:
                    raise RuntimeError(f"session build failed: {response.error}")
        except BaseException:
            self.close()
            raise

    def submit(self, request):
        return self.client.submit(request)

    def _stop_process(self) -> None:
        try:
            self.process.stdin.close()
            self.process.wait(SERVER_TIMEOUT_SECONDS)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def close(self) -> None:
        self.client.close()
        self._stop_process()


def cold_start(workload: str, codes, keys):
    if workload == "serve-d5-mb":
        return InProcess(keys)
    return OverNetwork(codes, keys)


def measure_setup(clock: HostClock, workload: str, codes, keys):
    """Median calibrated and raw set-up seconds over cold starts, the
    median server start, and the last target started (kept running)."""
    setups, server_starts = [], []
    target = None
    first = len(clock.kernel_seconds)
    for _ in range(SETUP_REPEATS[workload]):
        if target is not None:
            target.close()
        started = time.perf_counter()
        target = cold_start(workload, codes, keys)
        setups.append(time.perf_counter() - started)
        server_starts.append(target.server_start_s)
        clock.kernel()
    factor = clock.phase_factor(first)
    return median(setups) * factor, median(setups), median(server_starts) * factor, target


class ClosedLoop:
    """Keeps ``WINDOW`` requests outstanding, submitted from one thread.

    A new request goes out only when one completes; between slices the loop
    drains.  Each request's submit time, ``submit`` call time and completion
    time (``perf_counter_ns``, taken in the future's done callback) are kept.
    """

    def __init__(self, target, requests, tracer) -> None:
        self.target = target
        self.requests = requests
        self.tracer = tracer
        total = len(requests)
        self.futures = [None] * total
        self.start_ns = [0] * total
        self.done_ns = [0] * total
        self.submit_ns = [0] * total
        self.cursor = 0
        self._completions: queue.SimpleQueue = queue.SimpleQueue()

    def more(self) -> bool:
        return self.cursor < len(self.requests)

    def _submit(self, index: int) -> None:
        request = self.requests[index]
        if self.tracer is not None:
            self.tracer.set_request(index, request.syndrome)
        started = time.perf_counter_ns()
        future = self.target.submit(request)
        self.submit_ns[index] = time.perf_counter_ns() - started
        self.start_ns[index] = started
        self.futures[index] = future
        completions = self._completions
        future.add_done_callback(lambda _future: completions.put((index, time.perf_counter_ns())))

    def run_slice(self, deadline_ns: int) -> int:
        inflight = done = 0
        while True:
            while inflight < WINDOW and self.more() and time.perf_counter_ns() < deadline_ns:
                self._submit(self.cursor)
                self.cursor += 1
                inflight += 1
            if not inflight:
                return done
            index, finished = self._completions.get(timeout=SERVER_TIMEOUT_SECONDS)
            self.done_ns[index] = finished
            inflight -= 1
            done += 1


def check_responses(record, futures, requests, kinds, sessions) -> list:
    """``(index, key index, response, direct outcome)`` of every request
    served correctly.

    A request that raised, was not served OK, or whose outcome differs from
    a direct decode on ``sessions[key index]`` counts as a failed operation.
    The direct outcome is kept because an outcome-cache hit is served as a
    plain ``DecodeOutcome`` without the stream counters the latency model
    reads, so modelling the served outcome would depend on which requests
    happened to hit the cache.
    """
    expected: dict = {}
    served = []
    for index, future in enumerate(futures):
        try:
            response = future.result(timeout=0)
        except Exception as exc:
            record.fail(f"request {index}: {type(exc).__name__}: {exc}")
            continue
        if not response.ok:
            record.fail(f"request {index}: status {response.status} {response.error}")
            continue
        syndrome, k = requests[index].syndrome, kinds[index]
        memo = (k, syndrome.defects)
        if memo not in expected:
            outcome = sessions[k].decode_detailed(syndrome)
            expected[memo] = outcome, outcome.to_dict()
        direct, wire = expected[memo]
        if response.outcome.to_dict() != wire:
            record.mismatch(f"request {index}: outcome differs from a direct decode")
            continue
        served.append((index, k, response, direct))
    return served


def _request_frames(wire_stats: dict) -> int:
    return sum(wire_stats["batch_histogram"].values())


def run(workload: str, seed: int, seconds: int, tracer, record):
    from repro.api import DecoderSession
    from repro.evaluation import modelled_latency_fn

    decoder = DECODERS[workload]
    total = max(WINDOW, int(seconds * REQUESTS_PER_SECOND[workload]))
    codes, keys, graphs, kinds, requests, builds, sample_seconds = traffic(seed, total, decoder)
    clock = HostClock()
    setup_s, raw_setup_s, server_start_s, target = measure_setup(clock, workload, codes, keys)
    build_factor = clock.phase_factor(0)
    loop = ClosedLoop(target, requests, tracer)
    try:
        wire_before = target.client.wire_stats() if workload == "net-d5-lut" else None
        slices = run_sliced(clock, tracer, loop.more, loop.run_slice)
        wire_after = target.client.wire_stats() if workload == "net-d5-lut" else None
        snapshot = target.service.stats_snapshot() if workload == "serve-d5-mb" else None
    finally:
        target.close()

    # -- correctness, outside the timed region -------------------------
    record.attempted = total
    sessions = [DecoderSession(graph, decoder, key.config) for graph, key in zip(graphs, keys)]
    served = check_responses(record, loop.futures, requests, kinds, sessions)

    # -- exact counts and modelled latency ------------------------------
    model_name = "micro-blossom" if workload == "serve-d5-mb" else "union-find"
    latency_fns = [modelled_latency_fn(model_name, graph) for graph in graphs]
    counters: Counter = Counter()
    modelled = []
    for _index, k, response, direct in served:
        counters.update(response.outcome.counters)
        modelled.append(latency_fns[k](direct))
    record.exact = {
        "requests": total,
        "ok": len(served),
        "counters": dict(sorted(counters.items())),
        "modelled_latency": digest([round(value * 1e12) for value in modelled]),
        "modelled_latency_p99_ps": round(percentile(modelled, 99) * 1e12),
    }
    if snapshot is not None:
        record.exact["session_builds"] = snapshot["sessions"]["misses"]

    # -- timing ---------------------------------------------------------
    factor = factor_lookup(slices)
    scale = [factor(start) for start in loop.start_ns]
    latency_ms = [
        (done - start) * 1e-6 * f for start, done, f in zip(loop.start_ns, loop.done_ns, scale)
    ]
    submit_us = mean(ns * 1e-3 * f for ns, f in zip(loop.submit_ns, scale))
    # Client latency minus the service-reported latency.
    lag_ms = [latency_ms[i] - r.latency_seconds * 1e3 * scale[i] for i, _k, r, _direct in served]
    # Queue delay and execution time of the requests that reached a decoder
    # (an outcome-cache hit never queues).
    decoded = [(i, r) for i, _k, r, _direct in served if not r.cached]
    queue_ms = [r.queue_delay_seconds * 1e3 * scale[i] for i, r in decoded]
    exec_ms = [(r.latency_seconds - r.queue_delay_seconds) * 1e3 * scale[i] for i, r in decoded]
    calibrated = sum(piece.seconds for piece in slices)
    metrics = {
        "setup_s": setup_s,
        "shots_per_s": total / calibrated,
        "requests_per_s": total / calibrated,
        "latency_p50_ms": median(latency_ms),
        "latency_p90_ms": block_percentile(latency_ms, 90, LATENCY_BLOCK),
        # Not an end-to-end metric (too unsteady on a shared host); kept for audit.
        "latency_p99_ms": percentile(latency_ms, 99),
        "model_latency_mean_us": mean(modelled) * 1e6,
        "model_latency_tail_us": tail_mean(modelled, 99) * 1e6,
        "host.calib_ms": clock.median_ms(),
        "host.raw_throughput_per_s": total / sum(piece.raw_seconds for piece in slices),
        "host.raw_setup_s": raw_setup_s,
        "graphs.build_s": median(builds) * build_factor,
        "graphs.sample_us_per_shot": sample_seconds * build_factor / total * 1e6,
        "service.queue_delay_ms_p50": median(queue_ms),
        "service.queue_delay_ms_p99": percentile(queue_ms, 99),
        "service.exec_ms": mean(exec_ms),
        "service.batch_size_mean": mean(r.batch_size for _i, r in decoded),
    }
    if workload == "serve-d5-mb":
        hits = sum(1 for _i, _k, r, _direct in served if r.cached)
        layer = {
            "service.submit_us": submit_us,
            "service.callback_lag_us": median(lag_ms) * 1e3,
            "service.session_builds": snapshot["sessions"]["misses"],
            "lut.outcome_cache_hit_ratio": hits / total,
            "lut.table_hit_ratio": 0.0,
            # Per request: a cached outcome carries the counters of its
            # decode, so these do not depend on which requests hit the cache.
            **core_counts(counters, len(served)),
        }
    else:
        lookups = counters.get("lut_hit", 0) + counters.get("lut_miss", 0)
        frames = _request_frames(wire_after) - _request_frames(wire_before)
        wire_bytes = sum(wire_after[k] - wire_before[k] for k in ("bytes_sent", "bytes_received"))
        layer = {
            # These happen inside the worker process, out of the client's
            # sight; the client-side lag is what net.transport_ms_p50 reports.
            "service.submit_us": 0.0,
            "service.callback_lag_us": 0.0,
            "service.session_builds": 0.0,
            "lut.outcome_cache_hit_ratio": 0.0,  # off in the default config
            "lut.table_hit_ratio": counters.get("lut_hit", 0) / lookups if lookups else 0.0,
            "net.transport_ms_p50": median(lag_ms),
            "net.submit_us": submit_us,
            "net.bytes_per_request": wire_bytes / total,
            "net.requests_per_frame": total / frames if frames else 0.0,
            "net.server_start_s": server_start_s,
        }
    metrics.update(layer)
    if tracer is not None:
        metrics["trace.overhead_share"] = tracing_overhead(slices)
    nontrivial = {i for i, request in enumerate(requests) if request.syndrome.defects}
    return metrics, slices, nontrivial.__contains__
