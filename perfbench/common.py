"""Shared machinery of the benchmark: host-speed calibration, slicing,
statistics and the per-run record every workload fills in.

Host-time calibration
---------------------
The benchmark host slows down in phases, by up to 1.6x, for reasons outside
the program (other tenants share the CPU).  A whole measurement pass can
fall inside one slow phase, so neither minima nor more repeats remove it.
Instead every workload runs in short slices, and between two slices the
benchmark times a fixed, repository-independent pure-Python kernel:
``networkx.max_weight_matching`` on a pinned random graph.  A slice's host
seconds are rescaled by ``CALIBRATION_REFERENCE_SECONDS / kernel``, the
kernel time being the mean of the kernel runs on either side of the slice.
Calibrated times therefore read as "host seconds on a machine where the
kernel takes exactly the reference time"; the raw values are kept as
``host.*`` per-layer metrics for audit.

``run.py`` pins the benchmark, and so every process it starts, to one CPU,
so that the kernel times the CPU the workload runs on.  Without that, the
three processes of ``net-d5-lut`` spread over CPUs the kernel does not
sample, and their run-to-run spread was two to three times larger.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import random
import statistics
import time

#: Kernel time that calibrated seconds are expressed against: about the
#: kernel's time on the 2-core reference host in a fast phase.  Any constant
#: works; it only fixes the unit.
CALIBRATION_REFERENCE_SECONDS = 0.010

#: Pinned calibration graph: ``gnm_random_graph(n, m, seed)`` with integer
#: weights drawn from ``random.Random(seed)``.
CALIBRATION_GRAPH = (48, 150, 20240917)

#: Target host seconds of one workload slice between two kernel runs.
SLICE_SECONDS = 0.1


def _calibration_graph():
    import networkx as nx

    nodes, edges, seed = CALIBRATION_GRAPH
    graph = nx.gnm_random_graph(nodes, edges, seed=seed)
    rng = random.Random(seed)
    for u, v in sorted(graph.edges):
        graph[u][v]["weight"] = rng.randint(1, 1000)
    return graph


class HostClock:
    """Times the calibration kernel and turns its times into factors.

    Usage::

        clock = HostClock()
        clock.mark()  # kernel before the first slice
        ...  # run a slice, time it raw
        calibrated = raw * clock.mark()  # kernel after it -> slice factor
    """

    def __init__(self) -> None:
        import networkx as nx

        self._match = nx.max_weight_matching
        self._graph = _calibration_graph()
        self._expected = self._match(self._graph)
        self.kernel_seconds: list[float] = []
        self._last: float | None = None

    def kernel(self) -> float:
        """Run the kernel once; return its host seconds."""
        started = time.perf_counter()
        matching = self._match(self._graph)
        elapsed = time.perf_counter() - started
        if matching != self._expected:
            raise RuntimeError("calibration kernel returned a different matching")
        self.kernel_seconds.append(elapsed)
        return elapsed

    def mark(self) -> float:
        """Run the kernel and return the factor for the slice just ended.

        The factor uses the mean of this kernel run and the previous mark's,
        so a slice is scaled by the host speed measured on both of its sides.
        The first call (before any slice) returns the factor of its own run.
        """
        current = self.kernel()
        previous = current if self._last is None else self._last
        self._last = current
        return CALIBRATION_REFERENCE_SECONDS / (0.5 * (previous + current))

    def phase_factor(self, first: int) -> float:
        """Factor for a whole phase: the median of kernel runs ``first:``.

        Set-up is timed as cold starts with one kernel run after each.  One
        kernel run is a poor estimate of host speed over the next cold start
        (the kernel's own time jumps between two levels from one run to the
        next), so every cold start of the phase is scaled by the median over
        the phase instead.
        """
        return CALIBRATION_REFERENCE_SECONDS / statistics.median(self.kernel_seconds[first:])

    def median_ms(self) -> float:
        return statistics.median(self.kernel_seconds) * 1e3


class Slice:
    """One workload slice: host interval, calibration factor, ops done."""

    __slots__ = ("start_ns", "end_ns", "factor", "traced", "ops")

    def __init__(self, start_ns: int, end_ns: int, factor: float, traced: bool, ops: int):
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.factor = factor
        self.traced = traced
        self.ops = ops

    @property
    def raw_seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9

    @property
    def seconds(self) -> float:
        return self.raw_seconds * self.factor


def run_sliced(clock: HostClock, tracer, more_work, run_slice) -> list[Slice]:
    """Run a workload in calibrated slices until ``more_work()`` is false.

    ``run_slice(deadline_ns)`` does work until the ``perf_counter_ns``
    deadline (or until the work runs out), leaves nothing in flight, and
    returns the number of operations it completed.  With a tracer, every
    second slice runs with the tracing shims installed, so the traced and
    untraced halves see the same host phases and the difference between
    them is the tracing overhead.

    Between slices, outside the timed region, every live object is frozen
    out of the garbage collector's reach.  The responses and outcomes the
    benchmark keeps for its checks would otherwise make each full
    collection inside a slice scan a heap that grows through the run
    (pauses of 0.2 s were measured); this way a slice pays only for
    collecting what it allocates itself.
    """
    slices: list[Slice] = []
    budget = int(SLICE_SECONDS * 1e9)
    gc.collect()
    gc.freeze()
    clock.mark()
    while more_work():
        traced = tracer is not None and len(slices) % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter_ns()
        ops = run_slice(start + budget)
        end = time.perf_counter_ns()
        if traced:
            tracer.uninstall()
        slices.append(Slice(start, end, clock.mark(), traced, ops))
        gc.freeze()
    return slices


def factor_lookup(slices: list[Slice]):
    """``factor(ns)``: the calibration factor of the slice containing ``ns``."""
    starts = [piece.start_ns for piece in slices]

    def factor(ns: int) -> float:
        return slices[max(0, bisect.bisect_right(starts, ns) - 1)].factor

    return factor


def _seconds_per_op(slices: list[Slice], traced: bool) -> float:
    chosen = [piece for piece in slices if piece.traced == traced]
    ops = sum(piece.ops for piece in chosen)
    return sum(piece.seconds for piece in chosen) / ops if ops else 0.0


def tracing_overhead(slices: list[Slice]) -> float:
    """Calibrated seconds per op of traced slices over untraced ones, minus 1."""
    untraced = _seconds_per_op(slices, False)
    return _seconds_per_op(slices, True) / untraced - 1.0 if untraced else 0.0


def percentile(values, q: float) -> float:
    """Exact nearest-rank percentile (``q`` in 0..100) of raw values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1])


def block_percentile(values, q: float, block: int) -> float:
    """Median over consecutive blocks of ``block`` values of each block's
    ``q``-th percentile.

    Used for client latency tails: one slow host phase of a second or two
    moves the percentile of a whole run, but only the few blocks it falls
    in.  A short last block is folded into the one before it.
    """
    values = list(values)
    starts = list(range(0, max(1, len(values) - block + 1), block))
    bounds = starts[1:] + [len(values)]
    return median(percentile(values[a:b], q) for a, b in zip(starts, bounds))


def tail_mean(values, q: float) -> float:
    """Mean of the ``q``-th percentile value and every value above it.

    Used for modelled latencies: the model maps integer operation counts to
    a few discrete times, so its p99 order statistic reads the same value
    for almost every seed, while the mean of the tail still moves with it.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    tail = ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1 :]
    return float(sum(tail) / len(tail))


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def digest(value) -> str:
    """16-hex digest of a JSON-able value (for exact-counter comparisons)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class RunRecord:
    """What one workload run reports besides its metrics.

    ``exact`` holds the counts that must repeat exactly for a fixed seed
    (``selfcheck.py`` compares them across repeats); ``notes`` describes
    the first failed operations.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Operations that returned a wrong answer (a subset of ``failed``).
        self.wrong = 0
        self.exact: dict = {}
        self.notes: list[str] = []

    def fail(self, note: str) -> None:
        """Count an operation that raised or was not served."""
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def mismatch(self, note: str) -> None:
        """Count an operation whose output differs from the reference."""
        self.wrong += 1
        self.fail(note)
