"""Parity Blossom: the software MWPM baseline used throughout the evaluation.

Parity Blossom (Wu & Zhong, cited as [42]) implements the same primal/dual
decomposition as Micro Blossom but runs both phases sequentially on a CPU.
The paper uses it as the baseline in every latency experiment (§8.1) and
states that Micro Blossom is logically equivalent to it.

Accordingly, this class reuses the exact same primal module and the same
cover-based dual engine, but:

* the syndrome is read eagerly by the CPU (one read per defect, the O(p|V|)
  term of the paper's analysis);
* pre-matching and round-wise fusion are not available;
* the recorded counters are interpreted by a *CPU* cost model (work per dual
  growth unit and per primal operation) instead of an accelerator clock model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api.outcome import DecodeOutcome
from ..core.decoder import BlossomDriver, _snapshot
from ..core.dual import DualGraphState
from ..core.primal import PrimalModule
from ..graphs.syndrome import Syndrome, matching_weight


class SerialDualPhase(DualGraphState):
    """The dual phase executed sequentially in software.

    Identical algorithmic behaviour to the accelerator, but every obstacle
    query walks the active covers on the CPU; the recorded ``dual work`` is
    proportional to the grown cover area, which is what dominates Parity
    Blossom's run time (paper Figure 2).
    """

    def find_obstacle(self):
        before = self.counters.get("cover_cells_updated", 0) + self.counters.get(
            "edges_scanned", 0
        )
        obstacle = super().find_obstacle()
        after = self.counters.get("cover_cells_updated", 0) + self.counters.get(
            "edges_scanned", 0
        )
        self.counters["serial_dual_work"] += max(1, after - before)
        return obstacle


@dataclass
class ParityDecodeOutcome(DecodeOutcome):
    """Matching plus the operation counts consumed by the CPU latency model."""

    dual_work: int = 0
    primal_work: int = 0


class ParityBlossomDecoder(BlossomDriver):
    """Software (CPU-only) exact MWPM decoder on the decoding graph."""

    name = "parity-blossom"

    def _build_engines(self, scale: int) -> tuple[SerialDualPhase, PrimalModule]:
        dual = SerialDualPhase(self.graph, scale=scale)
        return dual, PrimalModule(self.graph, dual)

    def _decode_once(self, syndrome: Syndrome, scale: int) -> ParityDecodeOutcome:
        dual, primal = self._acquire(scale)
        dual.load(syndrome.defects)
        for defect in syndrome.defects:
            primal.register_defect(defect)
        primal.run()
        result = primal.collect_matching()
        result.weight = matching_weight(self.graph, result)
        result.validate_perfect(syndrome.defects)
        counters = _snapshot(dual, primal)
        dual_work = int(counters.get("serial_dual_work", 0))
        primal_work = int(
            counters.get("conflicts_resolved", 0)
            + counters.get("direction_updates", 0)
            + counters.get("defect_reads", 0)
            + counters.get("blossoms_formed", 0)
            + counters.get("blossoms_expanded", 0)
        )
        return ParityDecodeOutcome(
            result=result,
            defect_count=syndrome.defect_count,
            counters=counters,
            dual_work=dual_work,
            primal_work=primal_work,
        )
