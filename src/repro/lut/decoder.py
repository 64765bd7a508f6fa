"""The ``lut+<fallback>`` pre-decoder: exact table hits, transparent misses.

:class:`LUTDecoder` wraps any registered backend behind the same
:class:`~repro.api.protocol.Decoder` surface.  Each decode first consults the
precomputed :class:`~repro.lut.table.LookupTable`; a hit replays the
fallback's own stored answer (cloned — results are mutable), a miss hands the
syndrome to the wrapped backend unchanged.  Either way the caller observes
exactly what the fallback would have produced, which is what
``tests/conformance/`` pins across every backend × noise family.

Outcome counters carry ``lut_hit`` / ``lut_miss`` / ``lut_zero_defect_hit``
markers so the Monte-Carlo engine's per-shard counter aggregation surfaces
hit rates without any extra plumbing (see :mod:`repro.sweeps.runner`).

The streaming protocol (``begin`` / ``push_round`` / ``finalize``) delegates
straight to the fallback: rounds arrive incrementally, so there is no packed
defect set to look up until the instance is already decoded.  Streamed shots
therefore never touch the table — and never diverge from the fallback.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ..api.config import DEFAULT_LUT_BUDGET_BYTES, DecoderConfig
from ..api.outcome import DecodeOutcome
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import MatchingResult, Syndrome
from .table import LookupTable, clone_matching, clone_outcome


class LUTDecoder:
    """Table-lookup pre-decoder over a wrapped fallback backend.

    >>> from repro.graphs import code_capacity_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, code_capacity_noise(0.05))
    >>> decoder = LUTDecoder(graph, "union-find")
    >>> decoder.name
    'lut+union-find'
    >>> outcome = decoder.decode_detailed(Syndrome(defects=()))
    >>> (decoder.zero_defect_hits, outcome.counters["lut_zero_defect_hit"])
    (1, 1)
    """

    def __init__(
        self,
        graph: DecodingGraph,
        fallback: str = "micro-blossom",
        *,
        max_defects: int = 2,
        cluster_radius: int = 2,
        memory_budget_bytes: int = DEFAULT_LUT_BUDGET_BYTES,
        fallback_config: DecoderConfig | None = None,
    ) -> None:
        # Late import: repro.api.registry builds LUTDecoder through a lazy
        # factory, so importing the registry at module scope here would be
        # circular during ``import repro.api``.
        from ..api.registry import decoder_spec

        spec = decoder_spec(fallback)
        if fallback_config is None:
            fallback_config = spec.make_config()
        self.graph = graph
        self.name = f"lut+{fallback}"
        self.fallback_name = fallback
        self.fallback_config = fallback_config
        self.fallback = spec.factory(graph, fallback_config)
        self.table = LookupTable(
            graph,
            self.fallback,
            max_defects=max_defects,
            cluster_radius=cluster_radius,
            memory_budget_bytes=memory_budget_bytes,
        )
        self.hits = 0
        self.misses = 0
        self.zero_defect_hits = 0

    # ------------------------------------------------------------------
    # batch decode protocol
    # ------------------------------------------------------------------
    def decode(self, syndrome: Syndrome) -> MatchingResult:
        # Heralded erasures reweight the graph per shot; the table stores
        # base-graph answers, so erased syndromes always take the fallback
        # (which is erasure-aware — it was built through the registry's
        # wrapped factory).
        entry = None if syndrome.erasures else self.table.lookup(syndrome.defects)
        if entry is None:
            self.misses += 1
            return self.fallback.decode(syndrome)
        self._count_hit(syndrome)
        return clone_matching(entry.matching)

    def decode_detailed(self, syndrome: Syndrome) -> DecodeOutcome:
        entry = None if syndrome.erasures else self.table.lookup(syndrome.defects)
        if entry is None:
            self.misses += 1
            outcome = self.fallback.decode_detailed(syndrome)
            outcome.counters["lut_miss"] += 1
            return outcome
        self._count_hit(syndrome)
        outcome = clone_outcome(entry.outcome)
        # ``dict.get`` rather than ``+= 1``: a missing Counter key goes
        # through the pure-Python ``Counter.__missing__`` on every hit.
        counters = outcome.counters
        counters["lut_hit"] = counters.get("lut_hit", 0) + 1
        if not syndrome.defects:
            counters["lut_zero_defect_hit"] = counters.get("lut_zero_defect_hit", 0) + 1
        return outcome

    def decode_to_correction(self, syndrome: Syndrome) -> set[int]:
        return self.decode_detailed(syndrome).correction_edges(self.graph)

    def _count_hit(self, syndrome: Syndrome) -> None:
        self.hits += 1
        if not syndrome.defects:
            self.zero_defect_hits += 1

    # ------------------------------------------------------------------
    # streaming protocol (pure delegation — see module docstring)
    # ------------------------------------------------------------------
    def begin(
        self,
        graph: DecodingGraph | None = None,
        rounds_hint: int | None = None,
        erasures: Iterable[int] = (),
    ) -> None:
        self.fallback.begin(graph, rounds_hint, erasures=erasures)

    def push_round(self, defects: Iterable[int]) -> Counter:
        return self.fallback.push_round(defects)

    def finalize(self) -> DecodeOutcome:
        return self.fallback.finalize()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear hit/miss statistics and reset the wrapped backend."""
        self.hits = 0
        self.misses = 0
        self.zero_defect_hits = 0
        fallback_reset = getattr(self.fallback, "reset", None)
        if callable(fallback_reset):
            fallback_reset()

    @property
    def hit_rate(self) -> float:
        """Fraction of (batch) decodes resolved by the table."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Plain-dict lookup statistics plus the table's construction stats."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "zero_defect_hits": self.zero_defect_hits,
            "hit_rate": self.hit_rate,
            "table": self.table.stats(),
        }
