"""Sharded Monte-Carlo evaluation engine.

The engine turns the paper's statistical evaluation loop — sample a syndrome,
decode it, tally logical errors — into a batched, shardable pipeline:

* **Sharding / seeding contract.**  A run of ``max_shots`` shots with base
  seed ``s`` is split into fixed-size shards; shard ``i`` draws its syndromes
  from a :class:`~repro.graphs.syndrome.SyndromeSampler` seeded with
  ``numpy.random.SeedSequence([s, i])``.  Shard results are merged strictly in
  shard order, so a run is a pure function of
  ``(seed, shard_size, max_shots, target_standard_error)`` — the ``workers``
  count never changes the result, only the wall-clock time.

* **Batch decoding.**  Each wave of shards is sampled vectorized
  (:meth:`~repro.graphs.syndrome.SyndromeSampler.sample_batch`) and its
  non-trivial syndromes are fanned out in contiguous chunks over ``workers``
  processes by the same :class:`repro.api.batch.WorkerPool` as
  :func:`repro.api.decode_batch`, held for the whole run so each worker
  builds its decoder once.  Trivial shots (no defects) are tallied without
  decoding: they are a logical error exactly when the undetected error chain
  flips the observable.

* **Early stopping.**  With a ``target_standard_error``, the engine stops
  dispatching once the merged estimate's binomial standard error reaches the
  target *and* at least one logical error has been observed (otherwise the
  estimate is the degenerate ``0 ± 0``).  The stopping decision is evaluated
  at shard boundaries, in shard order; shards decoded speculatively beyond
  the stopping point are discarded, which is what keeps early-stopped runs
  independent of ``workers``.

* **Latency statistics.**  An optional ``latency_fn`` maps every decoded
  outcome to seconds (see :func:`modelled_latency_fn` for the decoders with
  published timing models); the per-shot values accumulate into a mergeable
  fixed-bin log-spaced :class:`LatencyHistogram`.  Trivial shots never reach
  the decoder, so they contribute no latency samples.

* **Timing models.**  One table maps each decoder name to its published
  timing model; :func:`modelled_latency_fn`,
  :func:`modelled_trivial_latency_seconds`, :func:`stream_latency_fn` and
  :data:`DECODERS_WITH_TIMING_MODELS` are all read from it.

>>> from repro.graphs import circuit_level_noise, surface_code_decoding_graph
>>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.02))
>>> result = MonteCarloEngine(graph, "union-find", shard_size=16).run(40, seed=1)
>>> [(shard.index, shard.shots) for shard in result.shards]
[(0, 16), (1, 16), (2, 8)]
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..api.batch import WorkerPool, decoder_pool
from ..api.config import DecoderConfig
from ..api.outcome import DecodeOutcome, latency_counters
from ..api.registry import resolve_config
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import Syndrome, SyndromeSampler
from ..latency.model import (
    HeliosLatencyModel,
    MicroBlossomLatencyModel,
    ParityBlossomLatencyModel,
)
from ..stream import DEFECTS_DECODED

#: Default number of shots per shard (the granularity of seeding, worker
#: dispatch and early-stopping checks).
DEFAULT_SHARD_SIZE = 256

#: Maps a decoded outcome to its modelled (or measured) latency in seconds.
LatencyFn = Callable[[DecodeOutcome], float]

#: Maps one round's operation counters to modelled seconds of work.
StreamLatencyFn = Callable[[Counter], float]


@dataclass
class LatencyHistogram:
    """Log-spaced latency histogram with fixed bins, mergeable across shards.

    Values are clamped into ``[low, high)``; exact ``count``, ``sum``,
    ``min`` and ``max`` are tracked alongside, so :attr:`mean` is exact while
    :meth:`percentile` is accurate to one bin width (about 16 bins per decade
    with the defaults).
    """

    low: float = 1e-9
    high: float = 1e-2
    num_bins: int = 112
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum_seconds: float = 0.0
    min_seconds: float = math.inf
    max_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.low < self.high:
            raise ValueError("histogram bounds must satisfy 0 < low < high")
        if self.num_bins < 1:
            raise ValueError("histogram needs at least one bin")
        if not self.counts:
            self.counts = [0] * self.num_bins
        elif len(self.counts) != self.num_bins:
            raise ValueError("counts length does not match num_bins")

    def _bin_index(self, seconds: float) -> int:
        if seconds <= self.low:
            return 0
        position = math.log(seconds / self.low) / math.log(self.high / self.low)
        return min(self.num_bins - 1, int(position * self.num_bins))

    def add(self, seconds: float) -> None:
        self.counts[self._bin_index(seconds)] += 1
        self.count += 1
        self.sum_seconds += seconds
        self.min_seconds = min(self.min_seconds, seconds)
        self.max_seconds = max(self.max_seconds, seconds)

    def extend(self, values: Sequence[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "LatencyHistogram") -> None:
        """Accumulate another histogram (must share bounds and bin count)."""
        if (self.low, self.high, self.num_bins) != (
            other.low,
            other.high,
            other.num_bins,
        ):
            raise ValueError("cannot merge histograms with different binning")
        for index, value in enumerate(other.counts):
            self.counts[index] += value
        self.count += other.count
        self.sum_seconds += other.sum_seconds
        self.min_seconds = min(self.min_seconds, other.min_seconds)
        self.max_seconds = max(self.max_seconds, other.max_seconds)

    @property
    def mean(self) -> float:
        return self.sum_seconds / self.count if self.count else 0.0

    def bin_edges(self) -> list[float]:
        """The ``num_bins + 1`` logarithmic bin edges in seconds."""
        ratio = self.high / self.low
        return [
            self.low * ratio ** (index / self.num_bins)
            for index in range(self.num_bins + 1)
        ]

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (``0 <= q <= 100``), in seconds.

        Returns the upper edge of the bin containing the requested rank,
        clamped to the exact observed ``[min, max]`` range.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must lie in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = math.ceil(q / 100.0 * self.count)
        edges = self.bin_edges()
        cumulative = 0
        for index, bin_count in enumerate(self.counts):
            cumulative += bin_count
            if cumulative >= rank:
                return min(max(edges[index + 1], self.min_seconds), self.max_seconds)
        return self.max_seconds


def binomial_standard_error(errors: int, samples: int) -> float:
    """Standard error of a binomial rate estimate (0 for an empty sample)."""
    if samples <= 0:
        return 0.0
    rate = errors / samples
    return math.sqrt(max(rate * (1.0 - rate), 1e-300) / samples)


def rule_of_three_upper_bound(errors: int, samples: int) -> float:
    """One-sided 95% upper bound on a binomial rate.

    With zero observed failures the maximum-likelihood rate and its binomial
    standard error are both the degenerate ``0 ± 0``; the *rule of three*
    gives the exact one-sided 95% bound ``3 / n`` instead.  With failures
    observed, the normal-approximation bound ``rate + 1.645·SE`` is used.
    Reports surface zero-failure points through this bound, and threshold
    fits exclude them (see :mod:`repro.sweeps.fits`).
    """
    if samples <= 0:
        return 1.0
    if errors == 0:
        return min(1.0, 3.0 / samples)
    rate = errors / samples
    return min(1.0, rate + 1.645 * binomial_standard_error(errors, samples))


class RateEstimate:
    """Binomial estimate of ``errors`` logical errors in ``shots`` shots.

    Mixed into every result type that reports a logical error rate.
    """

    @property
    def rate(self) -> float:
        return self.errors / self.shots if self.shots else 0.0

    @property
    def standard_error(self) -> float:
        return binomial_standard_error(self.errors, self.shots)

    @property
    def upper_bound(self) -> float:
        """One-sided 95% upper bound on the rate (rule of three when 0 errors)."""
        return rule_of_three_upper_bound(self.errors, self.shots)

    @property
    def zero_failures(self) -> bool:
        return self.errors == 0


@dataclass(frozen=True)
class ShardResult:
    """Merged statistics of one decoded shard."""

    index: int
    shots: int
    errors: int
    decoded_shots: int
    counters: Counter
    histogram: LatencyHistogram | None = None
    defects: int = 0
    #: Heralded erased edges observed across the shard's shots (0 for
    #: non-erasure noise).
    erased: int = 0


@dataclass
class EngineResult(RateEstimate):
    """Merged outcome of a :class:`MonteCarloEngine` run."""

    shots: int
    errors: int
    shards: list[ShardResult] = field(default_factory=list)
    histogram: LatencyHistogram | None = None
    counters: Counter = field(default_factory=Counter)
    stopped_early: bool = False
    defects: int = 0
    #: Heralded erased edges observed across the run (0 for non-erasure noise).
    erased: int = 0

    def digest(self) -> str:
        """16-hex content hash of every deterministic per-shard statistic.

        Two runs with the same ``(seed, shard_size, max_shots,
        target_standard_error)`` must produce equal digests for *any*
        ``workers`` count — the conformance harness pins this for every
        noise family.  Timing (histograms, wall-clock) never joins the hash;
        operation counters do, because decode work is deterministic.
        """
        from ..api.hashing import content_hash

        return content_hash(
            {
                "shots": self.shots,
                "errors": self.errors,
                "stopped_early": self.stopped_early,
                "shards": [
                    {
                        "index": shard.index,
                        "shots": shard.shots,
                        "errors": shard.errors,
                        "decoded_shots": shard.decoded_shots,
                        "defects": shard.defects,
                        "erased": shard.erased,
                        "counters": {
                            key: shard.counters[key]
                            for key in sorted(shard.counters)
                        },
                    }
                    for shard in self.shards
                ],
            }
        )

    @property
    def decoded_shots(self) -> int:
        return sum(shard.decoded_shots for shard in self.shards)


def _micro_blossom_model(distance: int, graph: DecodingGraph):
    model = MicroBlossomLatencyModel(distance, graph.num_edges)
    return lambda counters, defects: model.latency_seconds(counters)


def _parity_blossom_model(distance: int, graph: DecodingGraph):
    return ParityBlossomLatencyModel().latency_seconds


def _helios_model(distance: int, graph: DecodingGraph):
    model = HeliosLatencyModel()
    return lambda counters, defects: model.latency_seconds(distance, defects)


#: Decoder name -> its published timing model, built for one code distance and
#: graph as a ``(counters, defect count) -> seconds`` function.  The one place
#: that decides which decoder is priced by which model.
_TIMING_MODELS = {
    "micro-blossom": _micro_blossom_model,
    "micro-blossom-batch": _micro_blossom_model,
    "parity-blossom": _parity_blossom_model,
    # The Union-Find decoder is priced by the Helios hardware model.
    "union-find": _helios_model,
}

#: Registry names with a published timing model (the keys of the table above).
DECODERS_WITH_TIMING_MODELS = tuple(_TIMING_MODELS)


def _timing_model(name: str, graph: DecodingGraph) -> Callable[[Counter, int], float]:
    distance = graph.metadata.get("distance")
    if distance is None:
        raise ValueError(
            "graph metadata lacks 'distance'; modelled latency needs the code "
            "distance to pick the accelerator clock"
        )
    if name not in _TIMING_MODELS:
        raise ValueError(f"no latency model is defined for decoder {name!r}")
    return _TIMING_MODELS[name](distance, graph)


def modelled_latency_fn(name: str, graph: DecodingGraph) -> LatencyFn:
    """The published timing model of a registered decoder as a `LatencyFn`.

    Each outcome is priced by its :func:`~repro.api.outcome.latency_counters`
    (post-final-round work for stream-mode Micro Blossom, paper §6).  The
    graph must carry its code ``distance`` in ``metadata`` (every built-in
    code family does).

    >>> DECODERS_WITH_TIMING_MODELS
    ('micro-blossom', 'micro-blossom-batch', 'parity-blossom', 'union-find')
    """
    price = _timing_model(name, graph)
    return lambda outcome: price(latency_counters(outcome), outcome.defect_count)


def modelled_trivial_latency_seconds(name: str, graph: DecodingGraph) -> float:
    """Modelled latency of a shot with no defects (the decoder's floor).

    Trivial shots never reach the decoder, so there is no
    :class:`DecodeOutcome` to feed a :data:`LatencyFn`; this is the constant
    each timing model assigns to an empty workload.  Used by the sweep runner
    so latency statistics cover *every* shot, not just the decoded ones.
    """
    return _timing_model(name, graph)({}, 0)


def stream_latency_fn(name: str, graph: DecodingGraph) -> StreamLatencyFn:
    """Per-round timing model of a registered decoder, as counters → seconds.

    The counter-only signature lets one function price both a single pushed
    round and the post-final-round residue.  Defect-count-driven models
    (Parity Blossom, Helios) read the synthetic
    :data:`repro.stream.DEFECTS_DECODED` counter that the sliding-window
    adapter records on every decode.
    """
    price = _timing_model(name, graph)
    return lambda counters: price(counters, int(counters.get(DEFECTS_DECODED, 0)))


def plan_run(max_shots: int, shard_size: int, seed: int | None) -> tuple[list[int], int]:
    """The shard sizes and the base seed of a run of ``max_shots`` shots.

    ``seed = None`` draws a fresh base seed from OS entropy.  Shared by both
    engines, so a shard means the same shots in each.

    >>> plan_run(600, 256, 7)
    ([256, 256, 88], 7)
    """
    if max_shots <= 0:
        raise ValueError("max_shots must be positive")
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1)[0])
    full, remainder = divmod(max_shots, shard_size)
    return [shard_size] * full + ([remainder] if remainder else []), seed


class MonteCarloEngine:
    """Sharded Monte-Carlo estimator of logical error rate and latency.

    ``decoder`` is normally a registry name so worker processes can rebuild
    it; an already-built decoder instance is also accepted but restricts the
    engine to ``workers=1`` (instances cannot be shipped to a process pool)
    and takes no ``config`` (configure the instance itself).
    """

    def __init__(
        self,
        graph: DecodingGraph,
        decoder: str | object = "micro-blossom",
        config: DecoderConfig | None = None,
        *,
        shard_size: int = DEFAULT_SHARD_SIZE,
        workers: int = 1,
        latency_fn: LatencyFn | None = None,
        trivial_latency_seconds: float | None = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if trivial_latency_seconds is not None and trivial_latency_seconds < 0:
            raise ValueError("trivial_latency_seconds must be non-negative")
        self.graph = graph
        self.shard_size = shard_size
        self.workers = workers
        self.latency_fn = latency_fn
        #: When set (and a ``latency_fn`` is active), shots with no defects
        #: contribute this constant to the histogram — the timing model's
        #: floor — so latency statistics cover every shot (see
        #: :func:`modelled_trivial_latency_seconds`).  ``None`` keeps the
        #: original decoded-shots-only semantics.
        self.trivial_latency_seconds = trivial_latency_seconds
        self.config = config
        if isinstance(decoder, str):
            resolve_config(decoder, config)  # fail fast on bad names/configs
            self.decoder_name: str | None = decoder
            self.decoder_instance = None
        else:
            if config is not None:
                raise TypeError(
                    "config applies to a decoder given by registry name; "
                    "a decoder instance is already configured"
                )
            if workers > 1:
                raise ValueError(
                    "workers > 1 requires the decoder as a registry name so "
                    "the worker processes can rebuild it"
                )
            self.decoder_name = None
            self.decoder_instance = decoder

    # ------------------------------------------------------------------
    # seeding / sharding contract
    # ------------------------------------------------------------------
    @staticmethod
    def shard_seed(seed: int, shard_index: int) -> np.random.SeedSequence:
        """The seed sequence of shard ``shard_index`` of a run seeded ``seed``."""
        return np.random.SeedSequence([int(seed), int(shard_index)])

    def shard_sampler(self, seed: int, shard_index: int) -> SyndromeSampler:
        """The sampler that generates shard ``shard_index`` of a seeded run."""
        return SyndromeSampler(self.graph, seed=self.shard_seed(seed, shard_index))

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def _decoder_pool(self) -> WorkerPool:
        """The decoder(s) of one run, built once and reused for every wave."""
        if self.decoder_instance is not None:
            return WorkerPool(1, lambda: self.decoder_instance.decode_detailed)
        return decoder_pool(self.graph, self.decoder_name, self.config, self.workers)

    def decode_shard(self, syndromes: Sequence[Syndrome]) -> ShardResult:
        """Decode and tally caller-sampled ``syndromes`` as one shard.

        The non-trivial syndromes go through the same worker pool and the
        same per-shard tally as :meth:`run`; use this when the caller
        controls the RNG stream.
        """
        with self._decoder_pool() as pool:
            outcomes = pool.map([s for s in syndromes if s.defects])
        return self._shard_result(0, syndromes, outcomes)

    def _shard_result(
        self,
        index: int,
        syndromes: Sequence[Syndrome],
        outcomes: Sequence[DecodeOutcome],
    ) -> ShardResult:
        graph = self.graph
        errors = 0
        defects = 0
        erased = 0
        counters: Counter = Counter()
        histogram = LatencyHistogram() if self.latency_fn is not None else None
        outcome_iter = iter(outcomes)
        for syndrome in syndromes:
            if syndrome.logical_flip is None:
                raise ValueError("sampled syndrome lacks ground truth")
            defects += syndrome.defect_count
            erased += len(syndrome.erasures)
            if not syndrome.defects:
                if syndrome.logical_flip:
                    errors += 1
                if histogram is not None and self.trivial_latency_seconds is not None:
                    histogram.add(self.trivial_latency_seconds)
                continue
            outcome = next(outcome_iter)
            correction = outcome.correction_edges(graph)
            if graph.crosses_observable(correction) != syndrome.logical_flip:
                errors += 1
            counters.update(outcome.counters)
            if histogram is not None:
                histogram.add(self.latency_fn(outcome))
        return ShardResult(
            index=index,
            shots=len(syndromes),
            errors=errors,
            decoded_shots=len(outcomes),
            counters=counters,
            histogram=histogram,
            defects=defects,
            erased=erased,
        )

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(
        self,
        max_shots: int,
        seed: int | None = 0,
        target_standard_error: float | None = None,
    ) -> EngineResult:
        """Estimate the logical error rate over at most ``max_shots`` shots.

        ``seed = None`` draws a fresh base seed from OS entropy (the run is
        then not reproducible).  ``target_standard_error`` enables early
        stopping as described in the module docstring.
        """
        plan, seed = plan_run(max_shots, self.shard_size, seed)
        if target_standard_error is not None and target_standard_error <= 0:
            raise ValueError("target_standard_error must be positive")
        result = EngineResult(shots=0, errors=0)
        if self.latency_fn is not None:
            result.histogram = LatencyHistogram()
        with self._decoder_pool() as pool:
            for start in range(0, len(plan), self.workers):
                wave = [
                    self.shard_sampler(seed, index).sample_batch(plan[index])
                    for index in range(start, min(start + self.workers, len(plan)))
                ]
                decoded = iter(pool.map([s for shard in wave for s in shard if s.defects]))
                for index, syndromes in enumerate(wave, start):
                    outcomes = [next(decoded) for s in syndromes if s.defects]
                    shard = self._shard_result(index, syndromes, outcomes)
                    result.shards.append(shard)
                    result.shots += shard.shots
                    result.errors += shard.errors
                    result.defects += shard.defects
                    result.erased += shard.erased
                    result.counters.update(shard.counters)
                    if result.histogram is not None:
                        result.histogram.merge(shard.histogram)
                    if (
                        target_standard_error is not None
                        and result.errors > 0
                        and result.standard_error <= target_standard_error
                    ):
                        # Speculatively decoded shards beyond this one are
                        # discarded so the outcome is identical for any
                        # ``workers`` count.
                        result.stopped_early = True
                        return result
        return result
