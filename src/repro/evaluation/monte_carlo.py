"""Monte-Carlo estimation of logical error rates."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..api.config import DecoderConfig
from ..api.protocol import Decoder
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import SyndromeSampler
from .engine import DEFAULT_SHARD_SIZE, MonteCarloEngine, RateEstimate


@dataclass(frozen=True)
class LogicalErrorRateResult(RateEstimate):
    """Estimate of a decoder's logical error rate.

    ``upper_bound`` bounds zero-failure estimates (``0 ± 0``) at
    ``3 / samples`` by the rule of three, so reports and threshold fits never
    mistake "no errors observed" for "no errors possible".
    """

    samples: int
    errors: int

    @property
    def shots(self) -> int:
        return self.samples


def estimate_logical_error_rate(
    graph: DecodingGraph,
    decoder: Decoder | str,
    num_samples: int,
    seed: int | None = None,
    sampler: SyndromeSampler | None = None,
    config: DecoderConfig | None = None,
    workers: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    target_standard_error: float | None = None,
) -> LogicalErrorRateResult:
    """Monte-Carlo logical error rate of a decoder on a decoding graph.

    ``decoder`` is either an object satisfying the
    :class:`repro.api.Decoder` protocol or a registry name (resolved through
    the registry with ``config``).  The estimate runs on the sharded
    :class:`~repro.evaluation.engine.MonteCarloEngine`: shots are sampled
    vectorized in seed-stable shards of ``shard_size`` and decoded over
    ``workers`` processes (which requires ``decoder`` as a registry name);
    the result is identical for every ``workers`` count.  A
    ``target_standard_error`` stops the run early once the estimate is tight
    enough, in which case the returned ``samples`` is the number of shots
    actually consumed.

    Passing an explicit ``sampler`` bypasses the sharded seeding contract and
    decodes ``num_samples`` shots drawn sequentially from that sampler (still
    fanned over ``workers`` processes); use it when the caller controls the
    RNG stream.  Early stopping requires engine-managed sampling, so
    ``target_standard_error`` cannot be combined with ``sampler``.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    if sampler is not None and target_standard_error is not None:
        raise ValueError(
            "target_standard_error requires engine-managed sampling and "
            "cannot be combined with an explicit sampler"
        )
    engine = MonteCarloEngine(
        graph, decoder, config=config, shard_size=shard_size, workers=workers
    )
    if sampler is not None:
        shard = engine.decode_shard(sampler.sample_batch(num_samples))
        return LogicalErrorRateResult(samples=shard.shots, errors=shard.errors)
    result = engine.run(
        num_samples, seed=seed, target_standard_error=target_standard_error
    )
    return LogicalErrorRateResult(samples=result.shots, errors=result.errors)


def expected_defect_count(graph: DecodingGraph) -> float:
    """Expected number of defects per syndrome under the graph's error model.

    Each real vertex becomes a defect when an odd number of its incident edges
    flip; with independent flips the probability is
    ``(1 - prod(1 - 2 p_e)) / 2``.
    """
    total = 0.0
    for vertex in range(graph.num_vertices):
        if graph.is_virtual(vertex):
            continue
        product = 1.0
        for edge_index, _neighbor in graph.neighbors(vertex):
            product *= 1.0 - 2.0 * graph.edges[edge_index].probability
        total += (1.0 - product) / 2.0
    return total


def expected_error_count(graph: DecodingGraph) -> float:
    """Expected number of flipped edges per syndrome."""
    return sum(edge.probability for edge in graph.edges)


def wilson_interval(
    errors: int, samples: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score interval for a binomial logical error rate estimate.

    >>> low, high = wilson_interval(5, 100)
    >>> round(low, 4), round(high, 4)
    (0.0215, 0.1118)
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    p_hat = errors / samples
    denominator = 1.0 + z * z / samples
    centre = (p_hat + z * z / (2 * samples)) / denominator
    margin = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / samples + z * z / (4 * samples * samples))
        / denominator
    )
    return max(0.0, centre - margin), min(1.0, centre + margin)
