"""Declarative sweep specifications.

A :class:`SweepSpec` names the axes of the paper's evaluation grid — code
distance, noise family, physical error rate, decoder — plus the statistical
budget (shots, optional target standard error) and expands into an ordered
list of :class:`SweepPoint`\\ s.  Expansion is *seed-stable*: every point
derives its Monte-Carlo seed from the spec's base seed and the point's
parameter key through SHA-256, so

* the same spec always expands to the same points with the same seeds,
* reordering or extending an axis never changes the seed of an existing
  point (points are keyed by their parameters, not their position), and
* two points of one sweep never share an RNG stream.

The spec's :meth:`~SweepSpec.spec_hash` covers exactly the fields that
determine results (axes, shots, seed, shard size, early-stopping target,
latency collection) — *not* the display ``name`` — so renaming a sweep does
not invalidate its cached results in a :class:`~repro.sweeps.store.ResultStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..api.hashing import content_hash, stable_seed
from ..api.wireform import WireForm

#: Fields of :class:`SweepSpec` that determine Monte-Carlo results and hence
#: participate in :meth:`SweepSpec.spec_hash`.  The ``streaming`` axis joins
#: the hash payload only when it departs from the batch-only default, so
#: stores written before the axis existed keep their cache hits.
_HASHED_FIELDS = (
    "distances",
    "noise_models",
    "physical_error_rates",
    "decoders",
    "shots",
    "seed",
    "shard_size",
    "target_standard_error",
    "collect_latency",
)


def derive_point_seed(base_seed: int, key: str) -> int:
    """Seed of the point with parameter ``key`` in a sweep seeded ``base_seed``.

    A 63-bit integer derived via SHA-256
    (:func:`repro.api.hashing.stable_seed` — the same primitive the decode
    service's trace generator uses), stable across processes and Python
    versions (unlike the builtin ``hash``).

    >>> derive_point_seed(0, "d=3/decoder=union-find") < 2**63
    True
    >>> derive_point_seed(0, "a") != derive_point_seed(1, "a")
    True
    """
    return stable_seed(base_seed, key)


@dataclass(frozen=True)
class SweepPoint(WireForm):
    """One fully-specified cell of a sweep grid.

    Carries everything the runner needs to reproduce the point bit-for-bit:
    graph parameters, decoder name, statistical budget and the derived seed.
    """

    distance: int
    noise: str
    physical_error_rate: float
    decoder: str
    shots: int
    seed: int
    shard_size: int
    target_standard_error: float | None = None
    collect_latency: bool = False
    #: Decode this point on the continuous-stream engine (reaction latency)
    #: instead of the batch Monte-Carlo engine.
    streaming: bool = False

    @property
    def key(self) -> str:
        """Canonical parameter key (also the cache key inside a store).

        Streaming points carry a ``/stream=1`` suffix; batch points keep the
        pre-axis key so existing stores stay addressable.
        """
        target = (
            repr(float(self.target_standard_error))
            if self.target_standard_error is not None
            else "none"
        )
        return (
            f"d={self.distance}"
            f"/noise={self.noise}"
            f"/p={float(self.physical_error_rate)!r}"
            f"/decoder={self.decoder}"
            f"/shots={self.shots}"
            f"/seed={self.seed}"
            f"/shard={self.shard_size}"
            f"/target_se={target}"
            f"/latency={int(self.collect_latency)}"
            + ("/stream=1" if self.streaming else "")
        )


@dataclass(frozen=True)
class SweepSpec(WireForm):
    """Declarative grid of (distance × noise × p × decoder × streaming) points."""

    name: str
    distances: tuple[int, ...]
    physical_error_rates: tuple[float, ...]
    decoders: tuple[str, ...]
    shots: int
    noise_models: tuple[str, ...] = ("circuit_level",)
    seed: int = 0
    shard_size: int = 256
    target_standard_error: float | None = None
    collect_latency: bool = field(default=False)
    #: Decode-mode axis: ``False`` runs a point on the batch Monte-Carlo
    #: engine, ``True`` on the continuous-stream engine (reaction-latency
    #: percentiles).  ``(False, True)`` evaluates every cell both ways on the
    #: same seeds, a bare bool is accepted as a one-value axis.
    streaming: tuple[bool, ...] = (False,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "distances", tuple(int(d) for d in self.distances))
        object.__setattr__(
            self,
            "physical_error_rates",
            tuple(float(p) for p in self.physical_error_rates),
        )
        object.__setattr__(self, "decoders", tuple(str(d) for d in self.decoders))
        object.__setattr__(
            self, "noise_models", tuple(str(n) for n in self.noise_models)
        )
        streaming = self.streaming
        if isinstance(streaming, bool):
            streaming = (streaming,)
        object.__setattr__(self, "streaming", tuple(bool(s) for s in streaming))
        if not self.name:
            raise ValueError("sweep needs a non-empty name")
        for axis in (
            "distances",
            "physical_error_rates",
            "decoders",
            "noise_models",
            "streaming",
        ):
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis!r} must be non-empty")
        if len(set(self.streaming)) != len(self.streaming):
            raise ValueError("streaming axis must not repeat a mode")
        if any(d < 3 or d % 2 == 0 for d in self.distances):
            raise ValueError("distances must be odd and >= 3")
        if any(not 0.0 < p < 1.0 for p in self.physical_error_rates):
            raise ValueError("physical error rates must lie in (0, 1)")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.target_standard_error is not None and self.target_standard_error <= 0:
            raise ValueError("target_standard_error must be positive")

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def expand(self) -> list[SweepPoint]:
        """All points of the grid, in deterministic axis order.

        Order: distance (outer) → noise model → physical error rate →
        decoder → streaming mode (inner); each point's seed is derived from
        its parameters, never from its position.  The seed deliberately does
        *not* cover the streaming mode: the batch and stream points of one
        cell decode the same shard-seeded syndromes, so their error counts
        are directly comparable (streamed decoding is exactness-preserving).
        """
        points: list[SweepPoint] = []
        for distance in self.distances:
            for noise in self.noise_models:
                for physical in self.physical_error_rates:
                    for decoder in self.decoders:
                        partial_key = (
                            f"d={distance}/noise={noise}"
                            f"/p={float(physical)!r}/decoder={decoder}"
                        )
                        for streaming in self.streaming:
                            points.append(
                                SweepPoint(
                                    distance=distance,
                                    noise=noise,
                                    physical_error_rate=physical,
                                    decoder=decoder,
                                    shots=self.shots,
                                    seed=derive_point_seed(self.seed, partial_key),
                                    shard_size=self.shard_size,
                                    target_standard_error=self.target_standard_error,
                                    collect_latency=self.collect_latency,
                                    streaming=streaming,
                                )
                            )
        return points

    # ------------------------------------------------------------------
    # hashing / serialization
    # ------------------------------------------------------------------
    def spec_hash(self) -> str:
        """16-hex-digit content hash of the result-determining fields.

        Built on :func:`repro.api.hashing.content_hash`, the canonical
        hashing primitive shared with the decode service's session keys and
        trace fingerprints.

        >>> spec = SweepSpec("a", (3,), (0.01,), ("union-find",), shots=10)
        >>> spec.spec_hash() == spec.spec_hash()
        True
        >>> len(spec.spec_hash())
        16
        """
        payload = {name: getattr(self, name) for name in _HASHED_FIELDS}
        if self.streaming != (False,):
            # Batch-only specs hash exactly as before the axis existed, so
            # pre-axis stores keep serving cache hits.
            payload["streaming"] = self.streaming
        return content_hash(payload)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Inverse of ``to_dict``; ``streaming`` may also be a bare bool."""
        # The one way the file form is looser than the fields: a bare bool
        # is accepted as a one-value streaming axis, as the constructor is.
        if isinstance(data, dict) and isinstance(data.get("streaming"), bool):
            data = {**data, "streaming": [data["streaming"]]}
        return super().from_dict(data)


def make_spec(
    name: str,
    distances: Sequence[int],
    physical_error_rates: Sequence[float],
    decoders: Sequence[str],
    shots: int,
    **kwargs,
) -> SweepSpec:
    """Convenience constructor accepting any sequences for the axes."""
    return SweepSpec(
        name=name,
        distances=tuple(distances),
        physical_error_rates=tuple(physical_error_rates),
        decoders=tuple(decoders),
        shots=shots,
        **kwargs,
    )


#: Pinned spec of the CI ``perf-trajectory`` job (``repro sweep run --smoke``).
#: Small enough for a pull-request gate, large enough that every decoder sees
#: logical errors at these above-threshold error rates, with latency
#: histograms enabled so `BENCH_sweep.json` carries timing trajectories.  The
#: ``streaming`` axis runs every cell both batch and streamed, so the
#: trajectory also records stream reaction-latency percentiles per commit.
SMOKE_SPEC = SweepSpec(
    name="ci-smoke",
    distances=(3, 5),
    physical_error_rates=(0.02, 0.03),
    decoders=("micro-blossom", "union-find"),
    shots=128,
    noise_models=("circuit_level",),
    seed=2026,
    shard_size=64,
    collect_latency=True,
    streaming=(False, True),
)
