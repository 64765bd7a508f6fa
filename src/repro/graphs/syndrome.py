"""Error sampling, syndromes, and logical-error evaluation.

A *syndrome* is the set of defect vertices (stabilizers whose measurement
outcome flipped).  We sample syndromes by flipping every decoding-graph edge
independently with its error probability and taking the parity of flipped
edges incident to each real vertex; virtual vertices absorb chains without
producing defects (paper §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..api.wireform import WireForm, omitted_at_default
from .decoding_graph import DecodingGraph

#: Sentinel used in matchings to denote "matched to the boundary".
BOUNDARY = -1


def _uint32_threshold(probability: float) -> np.uint32:
    """Fixed-point comparison threshold of a probability in [0, 1].

    A 32-bit lane fires when it is below ``round(p * 2**32)``; probabilities
    within ``2**-33`` of 1 clip to ``2**32 - 1`` (a miss chance of ``2**-32``
    per draw — immaterial, and it keeps the threshold in uint32 range).
    """
    return np.uint32(min(int(round(probability * float(1 << 32))), (1 << 32) - 1))


def _lanes_by_shot(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(shot, lane)`` index pairs of the set entries of a 2-D lane mask.

    ``flatnonzero`` scans row-major, so the pairs come out grouped by shot
    and sorted by lane within each shot.
    """
    flat = np.flatnonzero(np.ravel(mask))
    shot = flat // mask.shape[1]
    return shot, flat - shot * mask.shape[1]


@dataclass(frozen=True)
class Syndrome(WireForm):
    """A sampled decoding instance.

    Attributes:
        defects: sorted tuple of defect vertex indices (all non-virtual).
        error_edges: edges that actually flipped (ground truth; empty when the
            syndrome was supplied externally).
        logical_flip: whether the ground-truth error flips the logical
            observable (None when unknown).
        erasures: sorted tuple of *heralded* erased edge indices (empty for
            non-erasure noise).  Erasure-aware decoders treat these edges as
            zero-weight; an erased edge flipped with probability 1/2 and
            appears in ``error_edges`` only when it actually did.  The wire
            form carries ``erasures`` only when non-empty, so erasure-free
            syndromes keep the wire form (and content hashes) they had
            before the field existed.
    """

    defects: tuple[int, ...]
    error_edges: tuple[int, ...] = ()
    logical_flip: bool | None = None
    erasures: tuple[int, ...] = omitted_at_default(())

    @property
    def defect_count(self) -> int:
        return len(self.defects)

    def defects_by_layer(self, graph: DecodingGraph) -> tuple[tuple[int, ...], ...]:
        """The defects split per measurement round, in arrival order.

        Returns one (possibly empty) tuple per graph layer; concatenating
        them restores ``defects`` exactly.  This is the push schedule of the
        streaming decoders: round ``r``'s entry is what
        :meth:`repro.api.StreamingDecoder.push_round` receives.
        """
        rounds: list[list[int]] = [[] for _ in range(graph.num_layers)]
        for defect in self.defects:
            rounds[graph.vertices[defect].layer].append(defect)
        return tuple(tuple(layer) for layer in rounds)


@dataclass
class MatchingResult(WireForm):
    """Output of a decoder: a pairing of every defect vertex.

    ``pairs`` contains tuples ``(u, v)`` of defect vertices matched to each
    other and ``(u, BOUNDARY)`` for defects matched to the boundary (with the
    concrete virtual vertex recorded in ``boundary_vertices`` when known).
    ``weight`` is the total matching weight in decoding-graph units.
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)
    boundary_vertices: dict[int, int] = field(default_factory=dict)
    weight: int = 0

    def matched_vertices(self) -> list[int]:
        vertices: list[int] = []
        for u, v in self.pairs:
            vertices.append(u)
            if v != BOUNDARY:
                vertices.append(v)
        return vertices

    def validate_perfect(self, defects: Sequence[int]) -> None:
        """Raise ``ValueError`` unless every defect is matched exactly once."""
        matched = self.matched_vertices()
        if len(matched) != len(set(matched)):
            raise ValueError("a defect vertex is matched more than once")
        if set(matched) != set(defects):
            missing = set(defects) - set(matched)
            extra = set(matched) - set(defects)
            raise ValueError(
                f"matching is not perfect (missing={sorted(missing)}, extra={sorted(extra)})"
            )


class SyndromeSampler:
    """Samples decoding instances from a decoding graph's error model.

    Edge flips are decided stim-style, in fixed point: the generator produces
    raw 64-bit words, each word is split into two 32-bit lanes, and lane ``i``
    flips edge ``i`` when it is below the edge's threshold
    ``round(p_e * 2**32)``.  The realised flip probability is therefore
    ``round(p_e * 2**32) / 2**32`` — within ``2**-33`` absolutely of ``p_e``,
    i.e. exact for every physically meaningful error rate — while consuming
    half the random words of a float64 draw, which is the hot path of
    Monte-Carlo evaluation.  The bit generator is
    :class:`numpy.random.SFC64`, the fastest one numpy ships.

    ``seed`` accepts an int, a :class:`numpy.random.SeedSequence` (so sharded
    evaluation engines can hand each sampler its own spawn-keyed sequence), an
    existing :class:`numpy.random.Generator`, or ``None`` for OS entropy.

    Every shot is read from the word stream in one fixed layout: first the
    burst-chain words (one 32-bit lane per measurement round), then the
    erasure words (one lane per edge), then the flip words.  The first two
    groups are empty unless the graph's noise model has bursts or erasures
    (:attr:`repro.graphs.NoiseModel.is_dynamic`), so static models read flip
    words only.  :meth:`sample` and :meth:`sample_batch` both draw through
    one method, so a batch is bit-identical per shot to the same number of
    :meth:`sample` calls and the two can be mixed freely on one sampler.
    They differ only in how defects follow from the flipped edges:
    :meth:`sample` takes their parity edge by edge in
    :meth:`syndrome_from_errors`, :meth:`sample_batch` through the
    incidence matrix in array operations.
    """

    #: Cap on raw 64-bit words drawn per internal chunk of
    #: :meth:`sample_batch` (bounds peak memory and keeps the flip buffers
    #: cache-sized; chunking does not change the RNG stream).
    _CHUNK_WORDS = 1 << 20

    def __init__(
        self,
        graph: DecodingGraph,
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
    ) -> None:
        self.graph = graph
        if isinstance(seed, np.random.Generator):
            self.rng = seed
        else:
            self.rng = np.random.Generator(np.random.SFC64(seed))
        self._probabilities = np.array(
            [edge.probability for edge in graph.edges], dtype=float
        )
        #: One 64-bit word feeds two 32-bit comparison lanes; the surplus lane
        #: of an odd edge count is padded with a never-flipping zero threshold.
        self._words_per_shot = (graph.num_edges + 1) // 2
        self._thresholds = np.zeros(2 * self._words_per_shot, dtype=np.uint32)
        self._thresholds[: graph.num_edges] = np.round(
            self._probabilities * float(1 << 32)
        ).astype(np.uint32)
        # Per-shot word layout: [chain words][erasure words][flip words].
        # The first two groups exist only for models with bursts or
        # erasures, so static models read one flip group per shot.
        model = graph.noise_model
        self._chain_words = 0
        self._erasure_words = 0
        if model is not None and model.burst_entry > 0.0:
            self._chain_words = (graph.num_layers + 1) // 2
            self._entry_threshold = _uint32_threshold(model.burst_entry)
            self._exit_threshold = _uint32_threshold(model.burst_exit)
            boosted = self._probabilities * model.burst_multiplier
            self._burst_thresholds = np.zeros(
                2 * self._words_per_shot, dtype=np.uint32
            )
            self._burst_thresholds[: graph.num_edges] = np.round(
                boosted * float(1 << 32)
            ).astype(np.uint32)
            # An edge "belongs" to the round of its later endpoint — the
            # round whose measurement realises the error.  Padding lanes get
            # layer 0; their thresholds are 0 either way.
            layers = np.zeros(2 * self._words_per_shot, dtype=np.int64)
            layers[: graph.num_edges] = [
                max(graph.vertices[e.u].layer, graph.vertices[e.v].layer)
                for e in graph.edges
            ]
            self._edge_lane_layers = layers
        if model is not None and model.erasure > 0.0:
            self._erasure_words = self._words_per_shot
            self._erasure_thresholds = np.zeros(
                2 * self._words_per_shot, dtype=np.uint32
            )
            self._erasure_thresholds[: graph.num_edges] = _uint32_threshold(
                model.erasure
            )
        self._shot_words = (
            self._chain_words + self._erasure_words + self._words_per_shot
        )
        self._chunk_shots = max(1, self._CHUNK_WORDS // max(1, self._shot_words))
        self._incidence: tuple[np.ndarray, ...] | None = None

    def _burst_rounds(self, chain_lanes: np.ndarray) -> np.ndarray:
        """Advance the burst Markov chain over the rounds of each shot.

        ``chain_lanes`` is ``(shots, num_layers)`` uint32; the result is the
        ``(shots, num_layers)`` boolean burst state per round.  Each shot's
        chain starts quiet; a quiet round bursts when its lane falls below
        the entry threshold, a bursting round recovers when its lane falls
        below the exit threshold.
        """
        shots, layers = chain_lanes.shape
        burst = np.empty((shots, layers), dtype=bool)
        state = np.zeros(shots, dtype=bool)
        for r in range(layers):
            lane = chain_lanes[:, r]
            state = np.where(state, lane >= self._exit_threshold, lane < self._entry_threshold)
            burst[:, r] = state
        return burst

    def _draw(self, count: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Draw ``count`` whole shots from the word stream.

        Returns ``(flips, erased)``: the ``(count, 2 * words_per_shot)``
        boolean flip lanes, and the erased lanes of the same shape (None
        for models without erasures).  Bursting rounds use the boosted
        thresholds; erased lanes flip with probability 1/2 regardless of
        bursts.  Padding lanes have zero thresholds, so they never flip and
        are never erased.
        """
        words = (
            self.rng.bit_generator.random_raw(count * self._shot_words)
            .view(np.uint32)
            .reshape(count, 2 * self._shot_words)
        )
        thresholds = self._thresholds
        col = 0
        if self._chain_words:
            burst = self._burst_rounds(words[:, : self.graph.num_layers])
            thresholds = np.where(
                burst[:, self._edge_lane_layers], self._burst_thresholds, thresholds
            )
            col = 2 * self._chain_words
        erased = None
        if self._erasure_words:
            stop = col + 2 * self._erasure_words
            erased = words[:, col:stop] < self._erasure_thresholds
            thresholds = np.where(erased, np.uint32(1 << 31), thresholds)
            col = stop
        return words[:, col:] < thresholds, erased

    def sample(self) -> Syndrome:
        """Sample one syndrome by flipping each edge independently."""
        flips, erased = self._draw(1)
        erasures = () if erased is None else np.flatnonzero(erased[0]).tolist()
        return self.syndrome_from_errors(np.flatnonzero(flips[0]).tolist(), erasures)

    def sample_rounds(self) -> tuple[Syndrome, tuple[tuple[int, ...], ...]]:
        """Sample one syndrome and emit its defects round by round.

        Returns ``(syndrome, rounds)`` where ``rounds[r]`` holds the defects
        produced by measurement round ``r`` — the push schedule for a
        :class:`repro.api.StreamingDecoder`.  The underlying draw is one
        ordinary :meth:`sample` call, so a round-streamed shot is
        bit-identical to (and freely interleavable with) batch sampling.
        """
        syndrome = self.sample()
        return syndrome, syndrome.defects_by_layer(self.graph)

    def _incidence_arrays(self) -> tuple[np.ndarray, ...]:
        """Sparse incidence matrix of the graph, restricted to real vertices.

        Returns ``(real_vertices, u_rows, v_rows, observable)`` where
        ``real_vertices`` maps parity-matrix rows back to vertex indices,
        ``u_rows[e]`` / ``v_rows[e]`` are the parity-matrix rows of edge
        ``e``'s endpoints (-1 for virtual endpoints, which absorb chains
        without producing defects), and ``observable`` flags the edges of the
        logical observable.
        """
        if self._incidence is None:
            graph = self.graph
            real_vertices = np.array(
                [v.index for v in graph.vertices if not v.is_virtual],
                dtype=np.int64,
            )
            row_of = np.full(graph.num_vertices, -1, dtype=np.int64)
            row_of[real_vertices] = np.arange(len(real_vertices))
            u_rows = np.array([row_of[e.u] for e in graph.edges], dtype=np.int64)
            v_rows = np.array([row_of[e.v] for e in graph.edges], dtype=np.int64)
            observable = np.array(
                [e.index in graph.observable_edges for e in graph.edges], dtype=bool
            )
            self._incidence = (real_vertices, u_rows, v_rows, observable)
        return self._incidence

    def sample_batch(self, count: int) -> list[Syndrome]:
        """Sample ``count`` syndromes with one vectorized draw per chunk.

        The ``(count, num_edges)`` error matrix is drawn in a single RNG call
        (chunked only to bound memory), and defects / logical flips are derived
        through the incidence matrix with array operations instead of per-shot
        Python loops.  The result is bit-identical per shot to ``count``
        sequential :meth:`sample` calls from the same RNG state, and leaves the
        sampler in the same RNG state afterwards.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        syndromes: list[Syndrome] = []
        remaining = count
        while remaining > 0:
            take = min(self._chunk_shots, remaining)
            self._sample_chunk(take, syndromes)
            remaining -= take
        return syndromes

    def _sample_chunk(self, count: int, out: list[Syndrome]) -> None:
        real_vertices, u_rows, v_rows, observable = self._incidence_arrays()
        num_real = len(real_vertices)
        flips, erased = self._draw(count)
        shot_index, edge_index = _lanes_by_shot(flips)

        # Defect parity through the incidence matrix: each flipped edge
        # toggles its real endpoints, and a vertex is a defect when it is
        # toggled an odd number of times.
        endpoint_u = u_rows[edge_index]
        endpoint_v = v_rows[edge_index]
        base = shot_index * num_real
        toggles = np.concatenate(
            [(base + endpoint_u)[endpoint_u >= 0], (base + endpoint_v)[endpoint_v >= 0]]
        )
        keys, multiplicity = np.unique(toggles, return_counts=True)
        odd = keys[(multiplicity & 1).astype(bool)]
        defect_shot = odd // num_real
        defect_vertices = tuple(real_vertices[odd - defect_shot * num_real].tolist())
        defect_offsets = np.bincount(defect_shot, minlength=count).cumsum().tolist()

        error_edges = tuple(edge_index.tolist())
        edge_offsets = np.bincount(shot_index, minlength=count).cumsum().tolist()

        logical_flips = (
            np.bincount(shot_index[observable[edge_index]], minlength=count) & 1
        ).astype(bool).tolist()

        if erased is None:
            erased_edges: tuple[int, ...] = ()
            erasure_offsets = [0] * count
        else:
            erased_shot, erased_lane = _lanes_by_shot(erased)
            erased_edges = tuple(erased_lane.tolist())
            erasure_offsets = np.bincount(erased_shot, minlength=count).cumsum().tolist()

        # Hot path: ``Syndrome`` instances are assembled via ``__new__`` plus a
        # direct ``__dict__`` assignment, skipping the frozen-dataclass
        # ``__init__`` (which routes every field through
        # ``object.__setattr__``).  The instances are indistinguishable from
        # normally-constructed ones.
        make = object.__new__
        cls = Syndrome
        defect_start = 0
        edge_start = 0
        erasure_start = 0
        for defect_stop, edge_stop, erasure_stop, flip in zip(
            defect_offsets, edge_offsets, erasure_offsets, logical_flips
        ):
            syndrome = make(cls)
            syndrome.__dict__["defects"] = defect_vertices[defect_start:defect_stop]
            syndrome.__dict__["error_edges"] = error_edges[edge_start:edge_stop]
            syndrome.__dict__["logical_flip"] = flip
            syndrome.__dict__["erasures"] = erased_edges[erasure_start:erasure_stop]
            out.append(syndrome)
            defect_start = defect_stop
            edge_start = edge_stop
            erasure_start = erasure_stop

    def syndrome_from_errors(
        self, error_edges: Iterable[int], erasures: Iterable[int] = ()
    ) -> Syndrome:
        """Derive the syndrome produced by a known set of flipped edges."""
        error_edges = tuple(sorted(set(error_edges)))
        parity = [0] * self.graph.num_vertices
        for edge_index in error_edges:
            edge = self.graph.edges[edge_index]
            parity[edge.u] ^= 1
            parity[edge.v] ^= 1
        defects = tuple(
            index
            for index, flipped in enumerate(parity)
            if flipped and not self.graph.is_virtual(index)
        )
        logical_flip = self.graph.crosses_observable(error_edges)
        return Syndrome(
            defects=defects,
            error_edges=error_edges,
            logical_flip=logical_flip,
            erasures=tuple(sorted(set(int(e) for e in erasures))),
        )


def matching_weight(graph: DecodingGraph, result: MatchingResult) -> int:
    """Total decoding-graph weight realised by a matching.

    Defect pairs contribute their shortest-path distance; boundary matches
    contribute the distance to the specific virtual vertex they were matched
    to (or to the nearest one when unspecified).  Exact decoders must realise
    the same total weight as the reference MWPM decoder.
    """
    total = 0
    for u, v in result.pairs:
        if v == BOUNDARY:
            target = result.boundary_vertices.get(u)
            if target is None:
                distance, _ = graph.nearest_virtual(u)
            else:
                distance = graph.distance(u, target)
            total += distance
        else:
            total += graph.distance(u, v)
    return total


def matching_from_correction(
    graph: DecodingGraph, defects: Sequence[int], correction: Iterable[int]
) -> MatchingResult:
    """Derive a defect pairing from a correction edge set.

    The endpoints of the correction paths are exactly the vertices of odd
    degree in the correction subgraph: the defects, plus the boundary
    vertices absorbing unpaired parity.  Defects in the same connected
    component are paired with each other; a leftover defect is matched to a
    boundary vertex of its component.  The weight is the total weight of the
    correction edges (not a shortest-path matching weight — used by decoders
    that are approximate by design, and by streaming adapters that only hold
    a correction for part of the instance).
    """
    defect_set = set(defects)
    adjacency: dict[int, list[int]] = {}
    degree: dict[int, int] = {}
    weight = 0
    for edge_index in correction:
        edge = graph.edges[edge_index]
        weight += edge.weight
        adjacency.setdefault(edge.u, []).append(edge.v)
        adjacency.setdefault(edge.v, []).append(edge.u)
        degree[edge.u] = degree.get(edge.u, 0) + 1
        degree[edge.v] = degree.get(edge.v, 0) + 1

    result = MatchingResult(weight=weight)
    seen: set[int] = set()
    for start in sorted(adjacency):
        if start in seen:
            continue
        component: set[int] = set()
        queue = [start]
        seen.add(start)
        while queue:
            vertex = queue.pop()
            component.add(vertex)
            for neighbor in adjacency.get(vertex, []):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        odd = [v for v in sorted(component) if degree.get(v, 0) % 2 == 1]
        odd_defects = [v for v in odd if v in defect_set]
        odd_boundary = [v for v in odd if v not in defect_set]
        for first, second in zip(odd_defects[0::2], odd_defects[1::2]):
            result.pairs.append((first, second))
        if len(odd_defects) % 2 == 1:
            leftover = odd_defects[-1]
            result.pairs.append((leftover, BOUNDARY))
            if odd_boundary:
                result.boundary_vertices[leftover] = odd_boundary[0]
    matched = set(result.matched_vertices())
    if matched != defect_set:
        # Degenerate corrections (e.g. a defect whose paths cancelled out)
        # leave defects without correction edges; they must still appear
        # in the matching, matched to the nearest boundary for weight 0+.
        for defect in sorted(defect_set - matched):
            result.pairs.append((defect, BOUNDARY))
    result.validate_perfect(list(defects))
    return result


def correction_edges(graph: DecodingGraph, result: MatchingResult) -> set[int]:
    """Expand a matching into a correction (set of decoding-graph edges)."""
    correction: set[int] = set()
    for u, v in result.pairs:
        if v == BOUNDARY:
            target = result.boundary_vertices.get(u)
            if target is None:
                _, target = graph.nearest_virtual(u)
            if target < 0:
                raise ValueError(f"defect {u} cannot reach any boundary vertex")
        else:
            target = v
        for edge_index in graph.shortest_path_edges(u, target):
            if edge_index in correction:
                correction.discard(edge_index)
            else:
                correction.add(edge_index)
    return correction


def is_logical_error(
    graph: DecodingGraph, syndrome: Syndrome, result: MatchingResult
) -> bool:
    """Compare the decoder's correction with the ground-truth error.

    A logical error occurs when the parity of observable crossings of the
    correction differs from that of the actual error chain.
    """
    if syndrome.logical_flip is None:
        raise ValueError("syndrome does not carry ground-truth information")
    correction = correction_edges(graph, result)
    predicted_flip = graph.crosses_observable(correction)
    return predicted_flip != syndrome.logical_flip


def residual_defects(
    graph: DecodingGraph, syndrome: Syndrome, correction: Iterable[int]
) -> tuple[int, ...]:
    """Defects that remain after applying ``correction`` on top of the error.

    A valid correction must annihilate every defect; this is used by tests as
    a structural invariant for every decoder.
    """
    parity = [0] * graph.num_vertices
    for edge_index in list(syndrome.error_edges) + list(correction):
        edge = graph.edges[edge_index]
        parity[edge.u] ^= 1
        parity[edge.v] ^= 1
    return tuple(
        index
        for index, flipped in enumerate(parity)
        if flipped and not graph.is_virtual(index)
    )
