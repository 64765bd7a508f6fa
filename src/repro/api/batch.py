"""Batch decoding and the worker pool under every parallel evaluation loop.

:func:`decode_batch` drives a whole list of syndromes through a registered
decoder and aggregates the outcomes into a :class:`BatchOutcome` — the
matchings, the summed operation counters, and the per-shot counters consumed
by the latency models.

:class:`WorkerPool` is the one process fan-out of the package: it serves
:func:`decode_batch`, :class:`repro.evaluation.MonteCarloEngine` and
:class:`repro.evaluation.StreamEngine`.  Each process builds its state — a
decoder or a streaming session — once, through the pool initializer, and
then maps contiguous chunks of the input with it, so results come back in
input order and bit-identical to the sequential loop while the construction
cost is paid once per worker instead of once per item.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import MatchingResult, Syndrome
from .config import DecoderConfig
from .outcome import DecodeOutcome, latency_counters
from .registry import resolve_config


@dataclass
class BatchOutcome:
    """Aggregate result of decoding a batch of syndromes."""

    outcomes: list[DecodeOutcome] = field(default_factory=list)
    #: Sum of every outcome's operation counters.
    counters: Counter = field(default_factory=Counter)

    @property
    def num_shots(self) -> int:
        return len(self.outcomes)

    @property
    def results(self) -> list[MatchingResult | None]:
        """Per-shot matchings (``None`` for approximate decoders)."""
        return [outcome.result for outcome in self.outcomes]

    @property
    def weights(self) -> list[int]:
        """Per-shot matching weights."""
        return [outcome.weight for outcome in self.outcomes]

    @property
    def total_defects(self) -> int:
        return sum(outcome.defect_count for outcome in self.outcomes)

    def latency_counters(self) -> list[Counter]:
        """Per-shot counters in the form the latency models consume
        (see :func:`repro.api.outcome.latency_counters`)."""
        return [latency_counters(outcome) for outcome in self.outcomes]

    @classmethod
    def from_outcomes(cls, outcomes: Sequence[DecodeOutcome]) -> "BatchOutcome":
        counters: Counter = Counter()
        for outcome in outcomes:
            counters.update(outcome.counters)
        return cls(outcomes=list(outcomes), counters=counters)


def chunk_evenly(syndromes: Sequence[Syndrome], pieces: int) -> list[list[Syndrome]]:
    """Split into at most ``pieces`` contiguous, near-equal chunks.

    Order-preserving: concatenating the chunks reproduces the input; this is
    how :meth:`WorkerPool.map` splits its input over the processes.

    >>> chunk_evenly([1, 2, 3, 4, 5], 2)
    [[1, 2, 3], [4, 5]]
    >>> chunk_evenly([1, 2], 8)
    [[1], [2]]
    """
    pieces = max(1, min(pieces, len(syndromes)))
    size, remainder = divmod(len(syndromes), pieces)
    chunks: list[list[Syndrome]] = []
    start = 0
    for index in range(pieces):
        stop = start + size + (1 if index < remainder else 0)
        chunks.append(list(syndromes[start:stop]))
        start = stop
    return chunks


#: Per-process function of a pool worker, built once by the pool initializer
#: (or the exception that stopped it from being built).
_WORKER_FN = None


def _worker_init(build: Callable, args: tuple) -> None:
    global _WORKER_FN
    try:
        _WORKER_FN = build(*args)
    except Exception as error:  # re-raised in the parent by every task
        _WORKER_FN = error


def _worker_map(items: Sequence) -> list:
    if isinstance(_WORKER_FN, Exception):
        raise _WORKER_FN
    return [_WORKER_FN(item) for item in items]


class WorkerPool:
    """Order-preserving map over ``workers`` processes with per-process state.

    ``build(*args)`` returns the function applied to every item; each worker
    process calls it once, through the pool initializer, so the arguments
    must be picklable only where the start method is not ``fork``.
    :meth:`map` splits its input into ``workers`` contiguous chunks and
    returns the results in input order.  With ``workers == 1`` the pool runs
    the same code inline and starts no process.  A failed build raises the
    builder's own exception from the constructor at every worker count.

    >>> from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.02))
    >>> shots = [s for s in SyndromeSampler(graph, seed=3).sample_batch(40) if s.defects]
    >>> with decoder_pool(graph, "union-find", None, workers=1) as pool:
    ...     outcomes = pool.map(shots)
    >>> [o.defect_count for o in outcomes] == [s.defect_count for s in shots]
    True
    """

    def __init__(self, workers: int, build: Callable[..., Callable], *args) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        if workers == 1:
            self._fn = build(*args)
            self._executor = None
            return
        self._executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(build, args)
        )
        try:  # surface a failed build now, not at the first non-empty map
            self._executor.submit(_worker_map, ()).result()
        except BaseException:
            self.close()
            raise

    def map(self, items: Sequence) -> list:
        """``[fn(item) for item in items]``, computed by the pool's workers."""
        if self._executor is None:
            return [self._fn(item) for item in items]
        futures = [
            self._executor.submit(_worker_map, chunk)
            for chunk in chunk_evenly(items, self.workers)
            if chunk
        ]
        results: list = []
        for future in futures:
            results.extend(future.result())
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _decode_fn(graph: DecodingGraph, factory, config: DecoderConfig) -> Callable:
    """Pool builder: one decoder per process, reused for every shot it gets."""
    return factory(graph, config).decode_detailed


def decoder_pool(
    graph: DecodingGraph, name: str, config: DecoderConfig | None, workers: int
) -> WorkerPool:
    """A :class:`WorkerPool` that maps syndromes to ``decode_detailed`` outcomes.

    The workers get the resolved registry factory rather than the decoder
    name, so runtime-registered decoders also work where the start method is
    ``spawn``/``forkserver`` (a fresh interpreter only knows the built-ins).
    """
    spec, config = resolve_config(name, config)
    return WorkerPool(workers, _decode_fn, graph, spec.factory, config)


def decode_batch(
    graph: DecodingGraph,
    name: str,
    syndromes: Sequence[Syndrome],
    config: DecoderConfig | None = None,
    workers: int = 1,
) -> BatchOutcome:
    """Decode ``syndromes`` with the registered decoder ``name``.

    ``workers > 1`` fans the batch out over a :class:`WorkerPool`; outcome
    order always matches the input order and equals the sequential result
    exactly.

    >>> from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.01))
    >>> syndromes = SyndromeSampler(graph, seed=2).sample_batch(4)
    >>> batch = decode_batch(graph, "union-find", syndromes)
    >>> batch.num_shots, len(batch.weights)
    (4, 4)
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not syndromes:
        resolve_config(name, config)  # a mismatched config fails even here
        return BatchOutcome()
    with decoder_pool(graph, name, config, min(workers, len(syndromes))) as pool:
        return BatchOutcome.from_outcomes(pool.map(syndromes))
