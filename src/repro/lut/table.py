"""Exact lookup tables over small defect sets (the LUT pre-decoder core).

The table maps a *packed defect bitmask* — ``sum(1 << v for v in defects)``
over real (non-virtual) decoding-graph vertices — onto the complete decode
result the wrapped fallback backend produces for that defect set: its
defect-level matching, its detailed outcome (correction, counters, scale
retries) and nothing else.  Because every entry is obtained by running the
fallback itself at construction time, a lookup hit reproduces the fallback's
answer *bit for bit*; the table is a memoisation layer, never an approximation
(the exactness argument in ``docs/lut.md``).

Table scope follows the pLUTo regime argument (PAPERS.md): at low physical
error rates almost every shot carries zero, one or two defects, so the table
precomputes

* the **zero-defect entry** — always present, the dedicated fast path;
* every **single-defect** syndrome;
* every **two-defect cluster**: pairs at most ``cluster_radius`` decoding-graph
  hops apart (distant pairs are rare and fall through to the fallback).

Construction is deterministic (candidates enumerated in sorted order) and
stops at ``memory_budget_bytes``: the resident-byte estimate of the next
entry would exceed the budget ⇒ the table keeps the deterministic prefix and
records ``truncated=True``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..api.outcome import DecodeOutcome
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import MatchingResult, Syndrome, matching_from_correction


def pack_defects(defects: Iterable[int]) -> int:
    """Packed bitmask key of a defect set.

    >>> pack_defects(())
    0
    >>> pack_defects((0, 3))
    9
    """
    mask = 0
    for vertex in defects:
        mask |= 1 << vertex
    return mask


def clone_matching(result: MatchingResult) -> MatchingResult:
    """A fresh, independently-mutable copy of a matching result."""
    return MatchingResult(
        pairs=list(result.pairs),
        boundary_vertices=dict(result.boundary_vertices),
        weight=result.weight,
    )


def clone_outcome(outcome: DecodeOutcome) -> DecodeOutcome:
    """A defensive copy of an outcome's decode-determining fields.

    Outcomes are mutable, so both the lookup table and the service outcome
    cache hand out clones: a caller mutating its response can never corrupt
    the stored template.  The clone is a base :class:`DecodeOutcome` carrying
    everything the decode contracts compare — matching (weight, pairing),
    correction, defect count, counters, scale retries.
    """
    result, correction = outcome.result, outcome.correction
    # Every table and outcome-cache hit pays for this copy.  Skipping the
    # pure-Python ``Counter.__init__``/``update`` (a Counter holds no state
    # beyond its dict) and passing the fields positionally cuts it from ≈1 µs
    # to ≈0.35 µs — below union-find's ≈0.7 µs decode of an empty syndrome.
    counters = Counter.__new__(Counter)
    dict.update(counters, outcome.counters)
    return DecodeOutcome(
        None if result is None else clone_matching(result),
        None if correction is None else set(correction),
        outcome.defect_count,
        counters,
        outcome.scale_retries,
    )


def outcome_cost_bytes(outcome: DecodeOutcome) -> int:
    """Deterministic resident-size estimate of one stored outcome (bytes).

    An accounting model, not a measurement: stable across Python builds so
    budget-bounded construction is reproducible everywhere.
    """
    cost = 96
    if outcome.result is not None:
        cost += 48 * len(outcome.result.pairs)
        cost += 48 * len(outcome.result.boundary_vertices)
    if outcome.correction is not None:
        cost += 16 * len(outcome.correction)
    cost += 64 * len(outcome.counters)
    return cost


@dataclass(frozen=True)
class LUTEntry:
    """One precomputed decode: the fallback's answers for one defect set."""

    matching: MatchingResult
    outcome: DecodeOutcome
    cost_bytes: int


class LookupTable:
    """Budget-bounded exact decode table built by running the fallback.

    >>> from repro.api import get_decoder
    >>> from repro.graphs import code_capacity_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, code_capacity_noise(0.05))
    >>> table = LookupTable(graph, get_decoder("union-find", graph))
    >>> table.lookup(()) is not None          # zero-defect fast path
    True
    >>> table.entries >= 1 + graph.num_real_vertices
    True
    """

    def __init__(
        self,
        graph: DecodingGraph,
        fallback,
        *,
        max_defects: int = 2,
        cluster_radius: int = 2,
        memory_budget_bytes: int = 8 << 20,
    ) -> None:
        if max_defects < 0:
            raise ValueError("max_defects must be >= 0")
        if cluster_radius < 1:
            raise ValueError("cluster_radius must be >= 1")
        if memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be >= 1")
        self.graph = graph
        self.max_defects = max_defects
        self.cluster_radius = cluster_radius
        self.memory_budget_bytes = memory_budget_bytes
        self.bytes_resident = 0
        self.truncated = False
        self.candidates = 0
        self._entries: dict[int, LUTEntry] = {}
        self._build(fallback)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _real_vertices(self) -> list[int]:
        graph = self.graph
        return [v for v in range(graph.num_vertices) if not graph.is_virtual(v)]

    def _within_radius(self, start: int) -> list[int]:
        """Real vertices within ``cluster_radius`` hops of ``start`` (BFS)."""
        graph = self.graph
        seen = {start: 0}
        queue = deque([start])
        reachable: list[int] = []
        while queue:
            vertex = queue.popleft()
            hops = seen[vertex]
            if hops >= self.cluster_radius:
                continue
            for _edge, neighbor in graph.adjacency[vertex]:
                if neighbor in seen:
                    continue
                seen[neighbor] = hops + 1
                queue.append(neighbor)
                if not graph.is_virtual(neighbor):
                    reachable.append(neighbor)
        return sorted(reachable)

    def _candidate_defect_sets(self) -> list[tuple[int, ...]]:
        candidates: list[tuple[int, ...]] = [()]
        if self.max_defects < 1:
            return candidates
        real = self._real_vertices()
        candidates.extend((v,) for v in real)
        if self.max_defects < 2:
            return candidates
        for u in real:
            candidates.extend((u, v) for v in self._within_radius(u) if v > u)
        return candidates

    def _build(self, fallback) -> None:
        for defects in self._candidate_defect_sets():
            self.candidates += 1
            syndrome = Syndrome(defects=defects)
            # One fallback decode per candidate answers both protocol
            # surfaces: ``decode`` is the outcome's matching, or the pairing
            # derived from its correction for correction-only backends.  Hits
            # replay these answers verbatim (cloned).
            outcome = fallback.decode_detailed(syndrome)
            matching = outcome.result
            if matching is None:
                matching = matching_from_correction(self.graph, defects, outcome.correction)
            cost = 48 + 48 * len(defects) + outcome_cost_bytes(outcome)
            cost += 48 * len(matching.pairs) + 48 * len(matching.boundary_vertices)
            if defects and self.bytes_resident + cost > self.memory_budget_bytes:
                # Deterministic truncation: the table is always the same
                # prefix of the sorted candidate enumeration.  The () entry
                # is exempt — the zero-defect fast path always exists.
                self.truncated = True
                break
            self._entries[pack_defects(defects)] = LUTEntry(
                matching=matching, outcome=outcome, cost_bytes=cost
            )
            self.bytes_resident += cost

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    @property
    def entries(self) -> int:
        """Number of precomputed defect sets resident in the table."""
        return len(self._entries)

    def lookup(self, defects: Sequence[int]) -> LUTEntry | None:
        """The entry for ``defects``, or ``None`` (⇒ fall back) when absent."""
        if len(defects) > self.max_defects:
            return None
        return self._entries.get(pack_defects(defects))

    def stats(self) -> dict:
        """Plain-dict construction statistics (for benches and snapshots)."""
        return {
            "entries": self.entries,
            "bytes_resident": self.bytes_resident,
            "memory_budget_bytes": self.memory_budget_bytes,
            "truncated": self.truncated,
            "candidates": self.candidates,
        }
