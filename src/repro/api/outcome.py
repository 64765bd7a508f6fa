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
from .wireform import WireForm, dump_fields


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
class DecodeOutcome(WireForm):
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
        """
        # The wire form differs from a subclass's fields: it writes the base
        # fields only, so every backend's outcome has the one wire form.
        return dump_fields(self, DecodeOutcome)
