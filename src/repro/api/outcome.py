"""Shared decode-outcome base class for every decoder backend.

Every backend of this package — Micro Blossom, Parity Blossom, Union-Find and
the reference MWPM decoder — reports the result of one decoded syndrome as a
subclass of :class:`DecodeOutcome`.  The base carries the fields common to all
of them:

* ``result`` — the defect-level :class:`~repro.graphs.syndrome.MatchingResult`
  (``None`` for approximate decoders that produce a correction directly);
* ``correction`` — the correction edge set (``None`` for matching decoders,
  which derive it lazily from ``result`` via :meth:`correction_edges`);
* ``defect_count`` — number of defects in the decoded syndrome;
* ``counters`` — operation counts consumed by the latency models;
* ``scale_retries`` — internal dual-scale doublings needed (MWPM backends).

This module deliberately depends only on :mod:`repro.graphs` so that the
decoder packages can import it without circular imports.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import MatchingResult, correction_edges


def counter_delta(before: Counter, *sources) -> Counter:
    """Per-shot counter delta: the sum of ``sources`` minus ``before``.

    Zero entries are dropped so the delta of a reused engine is identical to
    the counters of a freshly-built one.

    >>> counter_delta(Counter(a=1), Counter(a=3, b=2))
    Counter({'a': 2, 'b': 2})
    >>> counter_delta(Counter(a=1), Counter(a=1))
    Counter()
    """
    if len(sources) == 1:
        after = sources[0]
    else:
        after = dict(sources[0])
        for source in sources[1:]:
            for key, value in source.items():
                after[key] = after.get(key, 0) + value
    get = before.get
    return Counter(
        {key: difference for key, value in after.items() if (difference := value - get(key, 0))}
    )


def latency_counters(outcome: "DecodeOutcome") -> Counter:
    """The counters a timing model prices for one decoded shot.

    Stream-mode Micro Blossom outcomes contribute their post-final-round
    counters (the work that determines decoding latency, paper §6); every
    other outcome contributes its full counters.

    >>> latency_counters(DecodeOutcome(counters=Counter(a=2)))
    Counter({'a': 2})
    """
    if getattr(outcome, "stream", False):
        return outcome.post_final_round_counters
    return outcome.counters


@dataclass
class DecodeOutcome:
    """Common record of one decoding run, shared by all backends."""

    result: MatchingResult | None = None
    correction: set[int] | None = None
    defect_count: int = 0
    counters: Counter = field(default_factory=Counter)
    scale_retries: int = 0

    @property
    def weight(self) -> int:
        """Matching weight in decoding-graph units (0 without a matching)."""
        return self.result.weight if self.result is not None else 0

    @property
    def is_exact(self) -> bool:
        """True when the backend produced a minimum-weight perfect matching."""
        return self.result is not None

    def correction_edges(self, graph: DecodingGraph) -> set[int]:
        """The correction edge set, derived from the matching if needed."""
        if self.correction is not None:
            return set(self.correction)
        if self.result is None:
            raise ValueError("outcome carries neither a matching nor a correction")
        return correction_edges(graph, self.result)

    def to_dict(self) -> dict:
        """JSON-shaped wire form of the outcome.

        The deserialised object is always a plain :class:`DecodeOutcome` —
        backend-specific subclasses flatten to the shared fields, which carry
        everything the digest/identity contracts compare (``correction_edges``
        via the matching or the explicit correction set, ``weight``,
        ``is_exact``, ``counters``).

        >>> DecodeOutcome(correction={3, 1}).to_dict()["correction"]
        [1, 3]
        """
        return {
            "result": None if self.result is None else self.result.to_dict(),
            "correction": (
                None if self.correction is None else sorted(int(e) for e in self.correction)
            ),
            "defect_count": int(self.defect_count),
            "counters": {key: int(value) for key, value in sorted(self.counters.items())},
            "scale_retries": int(self.scale_retries),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecodeOutcome":
        """Inverse of :meth:`to_dict`.

        >>> DecodeOutcome.from_dict(DecodeOutcome(correction={2}).to_dict()).correction
        {2}
        """
        result = data.get("result")
        correction = data.get("correction")
        return cls(
            result=None if result is None else MatchingResult.from_dict(result),
            correction=None if correction is None else {int(e) for e in correction},
            defect_count=int(data.get("defect_count", 0)),
            counters=Counter(
                {str(key): int(value) for key, value in data.get("counters", {}).items()}
            ),
            scale_retries=int(data.get("scale_retries", 0)),
        )
