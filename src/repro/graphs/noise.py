"""Noise models used to construct decoding graphs.

Three i.i.d. families match the artifact of the paper (§A.6):

* **code capacity** — only data-qubit errors, perfect measurements, a single
  measurement round (2D decoding graph).
* **phenomenological** — data-qubit errors plus independent measurement errors,
  ``rounds`` measurement rounds (3D decoding graph with vertical edges).
* **circuit level** — like phenomenological plus space-time correlated ("hook")
  error mechanisms represented by diagonal edges between consecutive rounds
  (Figure 1c of the paper).

Three further families model hardware noise beyond i.i.d. edge flips:

* **correlated burst** — a two-state Markov chain over measurement rounds:
  each shot starts quiet, enters a burst round with probability
  ``burst_entry``, leaves it with probability ``burst_exit``, and every edge
  whose round is bursting flips with its probability scaled by
  ``burst_multiplier``.  Flips stay independent *given* the chain, so the
  decoding graph (and hence the weights) is unchanged — only the sampler
  reads the chain fields.
* **erasure** — every edge is additionally *erased* (heralded, located
  error) with probability ``erasure``; an erased edge flips with
  probability 1/2 and its index is carried on ``Syndrome.erasures``, which
  erasure-aware decoders honor as a zero-weight edge.
* **time varying** — a per-round multiplier ``schedule`` scales every edge
  probability by ``schedule[round % len(schedule)]``; the scaling is static
  per layer, so it is applied to the decoding graph at build time and the
  sampler needs no special handling.

The noise model fixes the probability of every edge *kind*; the code-family
builders then create edges with these probabilities.  The new fields all
default to "off" and are serialized by :meth:`NoiseModel.to_dict` only at
non-default values, so hashes and wire payloads of the original three
families are byte-identical to earlier releases.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.wireform import WireForm, omitted_at_default


class NoiseModelError(ValueError):
    """Raised when a noise model is configured inconsistently."""


@dataclass(frozen=True)
class NoiseModel(WireForm):
    """Per-edge-kind error probabilities of a decoding graph.

    Attributes:
        name: one of :data:`NOISE_FAMILY_NAMES`.
        spatial: probability of a data-qubit error (spatial edge).
        temporal: probability of a measurement error (time-like edge); zero for
            code-capacity noise.
        diagonal: probability of a hook/space-time error (diagonal edge); zero
            unless the model is circuit level.
        boundary: probability of a data-qubit error on a boundary edge.
        burst_multiplier: factor applied to every edge probability while the
            burst chain is in its burst state (1.0 = bursts change nothing).
        burst_entry: per-round probability of entering the burst state
            (0.0 disables the chain entirely).
        burst_exit: per-round probability of leaving the burst state.
        erasure: per-edge probability of a heralded erasure (0.0 = no
            erasures).
        schedule: per-round probability multipliers, cycled over rounds;
            empty = constant-in-time noise.
    """

    name: str
    spatial: float
    temporal: float
    diagonal: float
    boundary: float
    burst_multiplier: float = omitted_at_default(1.0)
    burst_entry: float = omitted_at_default(0.0)
    burst_exit: float = omitted_at_default(0.5)
    erasure: float = omitted_at_default(0.0)
    schedule: tuple[float, ...] = omitted_at_default(())

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule", tuple(float(s) for s in self.schedule))
        for field_name in ("spatial", "temporal", "diagonal", "boundary"):
            value = getattr(self, field_name)
            if value < 0.0 or value >= 0.5:
                raise NoiseModelError(
                    f"{field_name} probability must lie in [0, 0.5), got {value}"
                )
        if self.spatial <= 0.0:
            raise NoiseModelError("spatial probability must be positive")
        if self.burst_multiplier < 1.0:
            raise NoiseModelError(
                f"burst_multiplier must be >= 1, got {self.burst_multiplier}"
            )
        if not 0.0 <= self.burst_entry < 1.0:
            raise NoiseModelError(
                f"burst_entry must lie in [0, 1), got {self.burst_entry}"
            )
        if not 0.0 < self.burst_exit <= 1.0:
            raise NoiseModelError(
                f"burst_exit must lie in (0, 1], got {self.burst_exit}"
            )
        if not 0.0 <= self.erasure < 0.5:
            raise NoiseModelError(
                f"erasure probability must lie in [0, 0.5), got {self.erasure}"
            )
        for multiplier in self.schedule:
            if multiplier <= 0.0:
                raise NoiseModelError(
                    f"schedule multipliers must be positive, got {multiplier}"
                )
        # The largest probability the sampler can ever apply to an edge must
        # stay a probability below 1/2 (weights are log-likelihood ratios).
        peak = max(self.spatial, self.temporal, self.diagonal, self.boundary)
        if self.schedule:
            peak *= max(self.schedule)
        if self.burst_entry > 0.0:
            peak *= self.burst_multiplier
        if peak >= 0.5:
            raise NoiseModelError(
                "boosted edge probability must stay below 0.5 "
                f"(peak multiplier yields {peak})"
            )

    @property
    def is_three_dimensional(self) -> bool:
        return self.temporal > 0.0

    @property
    def is_dynamic(self) -> bool:
        """True when sampling needs per-shot randomness beyond edge flips.

        Burst chains and erasure draws consume extra RNG words per shot;
        time-varying schedules do *not* (they rescale the graph statically).
        """
        return self.burst_entry > 0.0 or self.erasure > 0.0

    @property
    def minimum_probability(self) -> float:
        """Smallest nonzero edge probability (used as the weight reference)."""
        candidates = [
            p
            for p in (self.spatial, self.temporal, self.diagonal, self.boundary)
            if p > 0.0
        ]
        smallest = min(candidates)
        if self.schedule:
            smallest *= min(self.schedule)
        return smallest

    def round_multiplier(self, layer: int) -> float:
        """The schedule's probability multiplier for measurement round ``layer``.

        >>> time_varying_noise(0.01, schedule=(1.0, 2.0)).round_multiplier(3)
        2.0
        >>> phenomenological_noise(0.01).round_multiplier(7)
        1.0
        """
        if not self.schedule:
            return 1.0
        return self.schedule[layer % len(self.schedule)]

    def probability_for_kind(self, kind: str) -> float:
        mapping = {
            "spatial": self.spatial,
            "temporal": self.temporal,
            "diagonal": self.diagonal,
            "boundary": self.boundary,
        }
        try:
            return mapping[kind]
        except KeyError as exc:  # pragma: no cover - defensive
            raise NoiseModelError(f"unknown edge kind {kind!r}") from exc

    def model_hash(self) -> str:
        """16-hex content hash of the serialized model (its ``to_dict``).

        >>> code_capacity_noise(0.01).to_dict()
        {'name': 'code_capacity', 'spatial': 0.01, 'temporal': 0.0, 'diagonal': 0.0, 'boundary': 0.01}
        """
        from ..api.hashing import content_hash

        return content_hash(self.to_dict())


def code_capacity_noise(p: float) -> NoiseModel:
    """Data-qubit errors only; measurements are perfect."""
    return NoiseModel(
        name="code_capacity", spatial=p, temporal=0.0, diagonal=0.0, boundary=p
    )


def phenomenological_noise(p: float) -> NoiseModel:
    """Data-qubit errors plus measurement errors of the same probability."""
    return NoiseModel(
        name="phenomenological", spatial=p, temporal=p, diagonal=0.0, boundary=p
    )


def circuit_level_noise(p: float, hook_fraction: float = 0.5) -> NoiseModel:
    """Circuit-level noise: adds diagonal (hook) error mechanisms.

    ``hook_fraction`` scales the diagonal edge probability relative to ``p``;
    the exact value only shifts weights slightly and does not change the shape
    of any evaluation result.
    """
    if not 0.0 < hook_fraction <= 1.0:
        raise NoiseModelError("hook_fraction must lie in (0, 1]")
    return NoiseModel(
        name="circuit_level",
        spatial=p,
        temporal=p,
        diagonal=p * hook_fraction,
        boundary=p,
    )


def correlated_burst_noise(
    p: float,
    burst_multiplier: float = 4.0,
    burst_entry: float = 0.1,
    burst_exit: float = 0.4,
) -> NoiseModel:
    """Phenomenological noise modulated by a two-state Markov burst chain.

    Each shot carries a hidden chain over measurement rounds (started in the
    quiet state): a quiet round bursts with probability ``burst_entry``, a
    bursting round recovers with probability ``burst_exit``, and every edge
    in a bursting round flips with ``burst_multiplier`` times its quiet
    probability.  Edge flips remain independent given the chain, so decoding
    graphs and weights are those of the quiet rates.
    """
    return NoiseModel(
        name="correlated_burst",
        spatial=p,
        temporal=p,
        diagonal=0.0,
        boundary=p,
        burst_multiplier=burst_multiplier,
        burst_entry=burst_entry,
        burst_exit=burst_exit,
    )


def erasure_noise(p: float, erasure: float | None = None) -> NoiseModel:
    """Phenomenological noise plus heralded erasures.

    Every edge is independently erased with probability ``erasure``
    (defaulting to ``2 * p``, the superconducting-hardware regime where
    erasure conversion dominates Pauli noise); an erased edge flips with
    probability 1/2 and is reported on :attr:`repro.graphs.Syndrome.erasures`
    for decoders to treat as a zero-weight edge.
    """
    if erasure is None:
        erasure = min(2.0 * p, 0.25)
    return NoiseModel(
        name="erasure",
        spatial=p,
        temporal=p,
        diagonal=0.0,
        boundary=p,
        erasure=erasure,
    )


def time_varying_noise(
    p: float, schedule: tuple[float, ...] = (1.0, 1.5, 0.5)
) -> NoiseModel:
    """Phenomenological noise whose strength varies over measurement rounds.

    ``schedule`` is cycled over rounds: round ``r`` scales every edge
    probability by ``schedule[r % len(schedule)]``.  The scaling is static
    per layer and is baked into the decoding graph (probabilities *and*
    weights), so samplers and decoders need no special handling.
    """
    if not schedule:
        raise NoiseModelError("time-varying noise needs a non-empty schedule")
    return NoiseModel(
        name="time_varying",
        spatial=p,
        temporal=p,
        diagonal=0.0,
        boundary=p,
        schedule=tuple(schedule),
    )


#: Every noise family :func:`noise_model_by_name` accepts, sorted (pinned by
#: ``tests/test_noise.py``).
NOISE_FAMILY_NAMES = (
    "circuit_level",
    "code_capacity",
    "correlated_burst",
    "erasure",
    "phenomenological",
    "time_varying",
)


def noise_model_by_name(name: str, p: float) -> NoiseModel:
    """Factory used by command-line style entry points and the test matrix.

    >>> noise_model_by_name("erasure", 0.01).erasure
    0.02
    >>> noise_model_by_name("bogus", 0.01)
    Traceback (most recent call last):
        ...
    repro.graphs.noise.NoiseModelError: unknown noise model 'bogus'; expected one of ['circuit_level', 'code_capacity', 'correlated_burst', 'erasure', 'phenomenological', 'time_varying']
    """
    factories = {
        "code_capacity": code_capacity_noise,
        "phenomenological": phenomenological_noise,
        "circuit_level": circuit_level_noise,
        "correlated_burst": correlated_burst_noise,
        "erasure": erasure_noise,
        "time_varying": time_varying_noise,
    }
    try:
        factory = factories[name]
    except KeyError:
        raise NoiseModelError(
            f"unknown noise model {name!r}; expected one of {sorted(factories)}"
        ) from None
    return factory(p)
