"""Seed-stable synthetic request traces for service load evaluation.

A :class:`TraceSpec` describes a service workload declaratively: a mix of
*scenarios* (code distance, noise family, physical error rate, decoder —
weighted), how many requests to issue, and the arrival process — **open
loop** (requests arrive on a schedule, optionally Poisson at ``rate_rps``,
regardless of completions — models independent outside users) or **closed
loop** (``clients`` concurrent callers, each issuing its next request only
after the previous one completes — models a fixed worker fleet).

Trace expansion is *seed-stable* in the same sense as sweep expansion
(:mod:`repro.sweeps.spec`): request ``i``'s scenario assignment, syndrome and
(open-loop) arrival offset are a pure function of ``(seed, scenarios,
requests, arrival process)``, derived through
:func:`repro.api.hashing.stable_seed` — never of wall-clock time, worker
count, or completion order.  Replaying a trace therefore decodes identical
syndromes in an identical submission order on every machine, which is what
makes service benchmarks comparable across commits
(``BENCH_service.json``) and lets tests pin worker-count independence.

Beyond the well-behaved mixes, the spec describes **hostile traffic
families** (see :func:`hostile_trace`) through the same machinery:

* *flash crowds* — ``burst_size``/``burst_gap_seconds`` make open-loop
  arrivals land in synchronized bursts instead of a smooth schedule;
* *heavy tails* — ``interarrival="pareto"`` draws Pareto (infinite-variance)
  inter-arrival gaps at the same mean rate, so load arrives in clumps;
* *session-key skew* — :func:`zipf_scenarios` expands one scenario into many
  distinct session keys under a Zipf popularity law, sized to defeat the
  service's session LRU;
* *slow consumers* — ``slow_streams``/``stream_push_gap_seconds`` add
  long-lived streaming connections that push rounds with think time between
  them, occupying the shared scheduler while single-shot traffic competes.

All four stay bit-identical under replay: burst shapes are arithmetic,
Pareto gaps and stream shots come from ``stable_seed``-derived RNG streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..api.hashing import content_hash, stable_seed
from ..api.wireform import WireForm
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import SyndromeSampler
from .faults import FaultPlan, poisoned_syndrome
from .request import CodeSpec, DecodeRequest, SessionKey

#: Supported arrival processes.
ARRIVAL_PROCESSES = ("open", "closed")

#: Supported open-loop inter-arrival distributions (with ``rate_rps`` set).
INTERARRIVALS = ("exponential", "pareto")

#: The hostile traffic families :func:`hostile_trace` can build.
HOSTILE_FAMILIES = ("flash-crowd", "pareto", "zipf", "slow-consumer")


@dataclass(frozen=True)
class Scenario(WireForm):
    """One weighted cell of a trace's workload mix.

    >>> Scenario(distance=3, physical_error_rate=0.02).session_key().decoder
    'micro-blossom'
    """

    distance: int
    noise: str = "circuit_level"
    physical_error_rate: float = 0.001
    decoder: str = "micro-blossom"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("scenario weight must be positive")

    def code(self) -> CodeSpec:
        return CodeSpec(
            distance=self.distance,
            noise=self.noise,
            physical_error_rate=self.physical_error_rate,
        )

    def session_key(self) -> SessionKey:
        """The service session key every request of this scenario targets."""
        return SessionKey(self.code(), self.decoder)


@dataclass(frozen=True)
class TraceSpec(WireForm):
    """Declarative description of one synthetic service workload.

    ``rate_rps=None`` in an open-loop trace means *back-to-back* submission
    (arrival offsets all zero — the service is driven as fast as the client
    can submit, the throughput-measurement mode); a finite rate draws
    exponential (Poisson-process) inter-arrival gaps from the trace seed.

    >>> spec = TraceSpec("t", (Scenario(3, physical_error_rate=0.02),), requests=4)
    >>> len(spec.trace_hash())
    16
    >>> spec2 = TraceSpec.from_dict(spec.to_dict())
    >>> spec2 == spec
    True
    """

    name: str
    scenarios: tuple[Scenario, ...]
    requests: int
    seed: int = 0
    arrival: str = "open"
    rate_rps: float | None = None
    clients: int = 4
    think_seconds: float = 0.0
    #: Open-loop inter-arrival law when ``rate_rps`` is set: "exponential"
    #: (Poisson process, the default) or "pareto" (heavy-tailed clumps at
    #: the same mean rate; tail index ``pareto_alpha``).
    interarrival: str = "exponential"
    pareto_alpha: float = 1.5
    #: Flash-crowd shape: when set, open-loop arrivals land in synchronized
    #: bursts of ``burst_size`` requests, ``burst_gap_seconds`` apart
    #: (takes precedence over ``rate_rps``).
    burst_size: int | None = None
    burst_gap_seconds: float = 0.0
    #: Slow-consumer streams replayed alongside the single-shot traffic:
    #: each pushes its rounds with ``stream_push_gap_seconds`` of think time
    #: between consecutive rounds, holding its connection open.
    slow_streams: int = 0
    stream_push_gap_seconds: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "scenarios",
            tuple(
                s if isinstance(s, Scenario) else Scenario.from_dict(s)
                for s in self.scenarios
            ),
        )
        if not self.name:
            raise ValueError("trace needs a non-empty name")
        if not self.scenarios:
            raise ValueError("trace needs at least one scenario")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(f"arrival must be one of {ARRIVAL_PROCESSES}, got {self.arrival!r}")
        if self.rate_rps is not None and self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive (or None for back-to-back)")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.think_seconds < 0:
            raise ValueError("think_seconds must be non-negative")
        if self.interarrival not in INTERARRIVALS:
            raise ValueError(
                f"interarrival must be one of {INTERARRIVALS}, got {self.interarrival!r}"
            )
        if self.pareto_alpha <= 1.0:
            raise ValueError("pareto_alpha must be > 1 (finite mean gap)")
        if self.burst_size is not None and self.burst_size < 1:
            raise ValueError("burst_size must be >= 1 (or None)")
        if self.burst_gap_seconds < 0:
            raise ValueError("burst_gap_seconds must be non-negative")
        if self.slow_streams < 0:
            raise ValueError("slow_streams must be >= 0")
        if self.stream_push_gap_seconds < 0:
            raise ValueError("stream_push_gap_seconds must be non-negative")

    def trace_hash(self) -> str:
        """16-hex-digit content hash of the workload-determining fields.

        Excludes the display ``name`` (renaming a trace keeps its identity),
        mirroring :meth:`repro.sweeps.SweepSpec.spec_hash`.  Hostile-family
        fields enter the payload only at non-default values, so every
        pre-existing trace keeps its pinned hash.
        """
        payload = {
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
            "requests": self.requests,
            "seed": self.seed,
            "arrival": self.arrival,
            "rate_rps": self.rate_rps,
            "clients": self.clients,
            "think_seconds": self.think_seconds,
        }
        if self.interarrival != "exponential":
            payload["interarrival"] = self.interarrival
            payload["pareto_alpha"] = self.pareto_alpha
        if self.burst_size is not None:
            payload["burst_size"] = self.burst_size
            payload["burst_gap_seconds"] = self.burst_gap_seconds
        if self.slow_streams:
            payload["slow_streams"] = self.slow_streams
            payload["stream_push_gap_seconds"] = self.stream_push_gap_seconds
        return content_hash(payload)


@dataclass(frozen=True)
class TracedRequest:
    """One expanded trace entry: the request plus its scheduled arrival."""

    index: int
    scenario_index: int
    request: DecodeRequest
    #: Scheduled submission offset from the start of the replay (seconds);
    #: 0.0 for back-to-back and closed-loop traces.
    arrival_offset_seconds: float
    #: True when a fault plan replaced the syndrome with a malformed one —
    #: the service must answer STATUS_ERROR without disturbing its batch.
    poisoned: bool = False


@dataclass(frozen=True)
class TracedStream:
    """One expanded slow-consumer stream: its session plus the round pushes."""

    index: int
    scenario_index: int
    #: Per-measurement-round defect tuples, the ``push_round`` schedule.
    rounds: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Trace:
    """A fully-expanded trace: requests in submission order, plus the graphs.

    ``graphs[i]`` is the decoding graph of ``spec.scenarios[i]`` — shared by
    the ground-truth check and the direct-decode identity verifier so they
    never rebuild per request.  ``streams`` holds the expanded slow-consumer
    streams (empty unless ``spec.slow_streams`` is set).
    """

    spec: TraceSpec
    requests: tuple[TracedRequest, ...]
    graphs: tuple[DecodingGraph, ...]
    streams: tuple[TracedStream, ...] = ()


def _arrival_offsets(spec: TraceSpec) -> np.ndarray:
    """The deterministic submission schedule of an expanded trace."""
    if spec.arrival != "open":
        return np.zeros(spec.requests)
    if spec.burst_size is not None:
        # Flash crowd: whole bursts arrive at one instant, gaps between them.
        bursts = np.arange(spec.requests) // spec.burst_size
        return bursts * spec.burst_gap_seconds
    if spec.rate_rps is None:
        return np.zeros(spec.requests)
    arrival_rng = np.random.default_rng(stable_seed(spec.seed, "arrivals"))
    if spec.interarrival == "pareto":
        # numpy's pareto(a) is Lomax with mean 1/(a-1); rescale so the mean
        # gap matches 1/rate_rps — same offered load, heavy-tailed clumps.
        gaps = arrival_rng.pareto(spec.pareto_alpha, size=spec.requests)
        gaps *= (spec.pareto_alpha - 1.0) / spec.rate_rps
    else:
        gaps = arrival_rng.exponential(1.0 / spec.rate_rps, size=spec.requests)
    return np.cumsum(gaps)


def generate_trace(spec: TraceSpec, fault_plan: FaultPlan | None = None) -> Trace:
    """Expand a :class:`TraceSpec` into its deterministic request sequence.

    Scenario assignment uses a dedicated RNG stream seeded
    ``stable_seed(seed, "mix")``; scenario ``i``'s syndromes come from a
    :class:`~repro.graphs.syndrome.SyndromeSampler` seeded
    ``stable_seed(seed, f"scenario={i}")`` and are drawn in request order —
    so the trace is bit-identical across machines and replays.

    With a ``fault_plan``, requests it selects (``plan.poisons(index)``) have
    their syndrome replaced by a malformed one *after* the healthy draw, so
    every non-poisoned request carries exactly the syndrome it would carry in
    a fault-free replay — which is what lets the hostile smoke compare
    healthy-request digests across plans and worker counts.

    >>> trace = generate_trace(
    ...     TraceSpec("t", (Scenario(3, physical_error_rate=0.02),), requests=3)
    ... )
    >>> [tr.request.request_id for tr in trace.requests]
    [0, 1, 2]
    """
    mix_rng = np.random.default_rng(stable_seed(spec.seed, "mix"))
    weights = np.array([s.weight for s in spec.scenarios], dtype=float)
    weights /= weights.sum()
    scenario_indices = mix_rng.choice(len(spec.scenarios), size=spec.requests, p=weights)
    offsets = _arrival_offsets(spec)
    graphs = tuple(scenario.code().build_graph() for scenario in spec.scenarios)
    keys = tuple(scenario.session_key() for scenario in spec.scenarios)
    samplers = [
        SyndromeSampler(graph, seed=stable_seed(spec.seed, f"scenario={i}"))
        for i, graph in enumerate(graphs)
    ]
    requests = []
    for index, scenario_index in enumerate(scenario_indices):
        scenario_index = int(scenario_index)
        syndrome = samplers[scenario_index].sample()
        poisoned = fault_plan is not None and fault_plan.poisons(index)
        if poisoned:
            syndrome = poisoned_syndrome(len(graphs[scenario_index].vertices), index)
        requests.append(
            TracedRequest(
                index=index,
                scenario_index=scenario_index,
                request=DecodeRequest(
                    session=keys[scenario_index],
                    syndrome=syndrome,
                    request_id=index,
                ),
                arrival_offset_seconds=float(offsets[index]),
                poisoned=poisoned,
            )
        )
    streams = []
    for stream_index in range(spec.slow_streams):
        scenario_index = stream_index % len(spec.scenarios)
        sampler = SyndromeSampler(
            graphs[scenario_index],
            seed=stable_seed(spec.seed, f"stream={stream_index}"),
        )
        _, rounds = sampler.sample_rounds()
        streams.append(
            TracedStream(
                index=stream_index,
                scenario_index=scenario_index,
                rounds=tuple(tuple(r) for r in rounds),
            )
        )
    return Trace(spec=spec, requests=tuple(requests), graphs=graphs, streams=tuple(streams))


def make_trace(
    name: str,
    distances: Sequence[int],
    physical_error_rates: Sequence[float],
    decoders: Sequence[str],
    requests: int,
    *,
    noise_models: Sequence[str] = ("circuit_level",),
    **kwargs,
) -> TraceSpec:
    """Convenience constructor: the cross product of the axes as scenarios.

    >>> spec = make_trace("grid", [3, 5], [0.02], ["union-find"], requests=8)
    >>> len(spec.scenarios)
    2
    """
    scenarios = tuple(
        Scenario(
            distance=distance,
            noise=noise,
            physical_error_rate=rate,
            decoder=decoder,
        )
        for distance in distances
        for noise in noise_models
        for rate in physical_error_rates
        for decoder in decoders
    )
    return TraceSpec(name=name, scenarios=scenarios, requests=requests, **kwargs)


def zipf_scenarios(
    base: Scenario,
    sessions: int,
    *,
    exponent: float = 1.1,
    rate_step: float = 0.002,
) -> tuple[Scenario, ...]:
    """Expand one scenario into ``sessions`` distinct session keys, Zipf-weighted.

    Key ``k`` differs from the base by a small physical-error-rate offset
    (``base.physical_error_rate + k * rate_step``) — a distinct
    :class:`~repro.service.request.CodeSpec`, hence a distinct decoding graph
    and session — and carries weight ``(k + 1) ** -exponent``.  A handful of
    keys dominate while a long tail of rare keys churns the session LRU:
    sized above ``max_sessions``, this is the workload that defeats it.

    >>> keys = {s.session_key().key() for s in zipf_scenarios(Scenario(3), 6)}
    >>> len(keys)
    6
    """
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    scenarios = []
    for rank in range(sessions):
        rate = base.physical_error_rate + rank * rate_step
        if not 0.0 < rate < 1.0:
            raise ValueError(
                f"rank {rank} pushes physical_error_rate to {rate}; "
                "lower rate_step or sessions"
            )
        scenarios.append(
            Scenario(
                distance=base.distance,
                noise=base.noise,
                physical_error_rate=rate,
                decoder=base.decoder,
                weight=(rank + 1) ** -exponent,
            )
        )
    return tuple(scenarios)


def hostile_trace(
    family: str,
    *,
    requests: int = 64,
    seed: int = 2027,
    distance: int = 3,
    physical_error_rate: float = 0.02,
    decoder: str = "union-find",
    sessions: int = 12,
    rate_rps: float = 2000.0,
) -> TraceSpec:
    """Build one of the :data:`HOSTILE_FAMILIES` as a :class:`TraceSpec`.

    The four families stress what well-behaved traces never touch: the
    admission queue under synchronized bursts (``flash-crowd``), the batcher
    under clumped heavy-tailed arrivals (``pareto``), the session LRU under
    Zipf key skew (``zipf``), and the shared scheduler under slow-consumer
    streams (``slow-consumer``).

    >>> hostile_trace("zipf", requests=8).scenarios[0].weight
    1.0
    """
    base = Scenario(
        distance=distance,
        physical_error_rate=physical_error_rate,
        decoder=decoder,
    )
    name = f"hostile-{family}"
    if family == "flash-crowd":
        return TraceSpec(
            name,
            (base,),
            requests=requests,
            seed=seed,
            burst_size=max(1, requests // 4),
            burst_gap_seconds=0.005,
        )
    if family == "pareto":
        return TraceSpec(
            name,
            (base,),
            requests=requests,
            seed=seed,
            rate_rps=rate_rps,
            interarrival="pareto",
            pareto_alpha=1.5,
        )
    if family == "zipf":
        return TraceSpec(
            name,
            zipf_scenarios(base, sessions),
            requests=requests,
            seed=seed,
        )
    if family == "slow-consumer":
        return TraceSpec(
            name,
            (base,),
            requests=requests,
            seed=seed,
            slow_streams=2,
            stream_push_gap_seconds=0.001,
        )
    raise ValueError(f"family must be one of {HOSTILE_FAMILIES}, got {family!r}")


#: Pinned trace of the CI ``perf-trajectory`` job (``repro serve-bench
#: --smoke``): a mixed-distance, mixed-decoder open-loop burst, small enough
#: for a pull-request gate, varied enough that micro-batching, session
#: caching and the mixed-scenario dispatch path all exercise.  Seeded like
#: :data:`repro.sweeps.SMOKE_SPEC` so the two CI artifacts stay in step.
SMOKE_TRACE = TraceSpec(
    name="ci-smoke",
    scenarios=(
        Scenario(distance=3, physical_error_rate=0.02, decoder="micro-blossom"),
        Scenario(distance=5, physical_error_rate=0.02, decoder="micro-blossom"),
        Scenario(distance=3, physical_error_rate=0.03, decoder="union-find"),
        Scenario(distance=5, physical_error_rate=0.03, decoder="union-find"),
    ),
    requests=96,
    seed=2026,
    arrival="open",
    rate_rps=None,
)


#: Pinned noise-family mix: every non-i.i.d. noise family the sampler
#: supports (correlated bursts, heralded erasures, time-varying p) plus a
#: phenomenological control, replayed through the full service path so the
#: wire protocol, session cache and outcome cache all see erasure-carrying
#: and burst-correlated syndromes.  ``tests/conformance`` pins its
#: ``trace_hash`` and replays it for worker-count-independent digests.
NOISE_FAMILY_SMOKE_TRACE = TraceSpec(
    name="noise-family-smoke",
    scenarios=(
        Scenario(distance=3, noise="correlated_burst", physical_error_rate=0.01,
                 decoder="micro-blossom"),
        Scenario(distance=3, noise="erasure", physical_error_rate=0.01,
                 decoder="union-find"),
        Scenario(distance=3, noise="time_varying", physical_error_rate=0.02,
                 decoder="micro-blossom"),
        Scenario(distance=3, noise="phenomenological", physical_error_rate=0.02,
                 decoder="union-find"),
    ),
    requests=48,
    seed=2028,
    arrival="open",
    rate_rps=None,
)


#: Pinned hostile mix of ``repro serve-bench --hostile-smoke``: one small
#: trace per family, replayed under :data:`repro.service.faults.HOSTILE_SMOKE_PLAN`.
#: Everything — arrivals, syndromes, poison selection — is seed-stable, so
#: the healthy-request digests the CI gate compares are machine-independent.
HOSTILE_SMOKE_TRACES: tuple[tuple[str, TraceSpec], ...] = tuple(
    (family, hostile_trace(family, requests=48, seed=2027))
    for family in HOSTILE_FAMILIES
)
