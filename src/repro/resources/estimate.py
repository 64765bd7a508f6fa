"""FPGA resource model of the Micro Blossom accelerator (Table 4, §8.4).

The accelerator instantiates one vertex PU per decoding-graph vertex and one
edge PU per edge; the paper reports per-PU memory, total FPGA memory and LUT
usage, and the maximum clock frequency achieved on a Xilinx VMK180 for code
distances 3 through 15.  This module provides:

* the paper's published Table 4 values (used as ground truth in benchmarks),
* an analytical model that derives the same quantities from the compact PU
  state of Table 2 and an O(d³ polylog d) LUT scaling law fitted to the
  published points, so that arbitrary distances (e.g. the d = 31 projection on
  a VP1902 discussed in §8.4) can be estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..latency.model import accelerator_clock_frequency_hz

#: Published Table 4, keyed by code distance.
PAPER_TABLE_4: dict[int, dict[str, float]] = {
    3: {"V": 24, "E": 39, "cpu_mem_bytes": 1_400, "vpu_bits": 19, "epu_bits": 4,
        "fpga_mem_kbits": 0.6, "luts": 4_000, "freq_mhz": 170},
    5: {"V": 90, "E": 245, "cpu_mem_bytes": 5_400, "vpu_bits": 24, "epu_bits": 4,
        "fpga_mem_kbits": 3.1, "luts": 21_000, "freq_mhz": 141},
    7: {"V": 224, "E": 763, "cpu_mem_bytes": 13_000, "vpu_bits": 27, "epu_bits": 4,
        "fpga_mem_kbits": 9.1, "luts": 66_000, "freq_mhz": 107},
    9: {"V": 450, "E": 1_737, "cpu_mem_bytes": 27_000, "vpu_bits": 29, "epu_bits": 4,
        "fpga_mem_kbits": 20, "luts": 156_000, "freq_mhz": 93},
    11: {"V": 792, "E": 3_311, "cpu_mem_bytes": 48_000, "vpu_bits": 32, "epu_bits": 4,
         "fpga_mem_kbits": 39, "luts": 314_000, "freq_mhz": 77},
    13: {"V": 1_274, "E": 5_629, "cpu_mem_bytes": 76_000, "vpu_bits": 34, "epu_bits": 4,
         "fpga_mem_kbits": 66, "luts": 553_000, "freq_mhz": 62},
    15: {"V": 1_920, "E": 8_835, "cpu_mem_bytes": 115_000, "vpu_bits": 34, "epu_bits": 4,
         "fpga_mem_kbits": 101, "luts": 867_000, "freq_mhz": 43},
}

#: LUT capacity of the boards discussed in §8.4.
VMK180_LUTS = 900_000
VP1902_LUTS = 8_500_000

#: Quantised weight width used by the prototype (§8.1): 4-bit edge weights.
EPU_WEIGHT_BITS = 4


def paper_vertex_count(distance: int) -> int:
    """|V| of the paper's circuit-level decoding graph: d (d+1)² / 2."""
    if distance < 3 or distance % 2 == 0:
        raise ValueError("code distance must be an odd integer >= 3")
    return distance * (distance + 1) ** 2 // 2


def paper_edge_count(distance: int) -> int:
    """|E| of the paper's circuit-level decoding graph.

    Table 4 lists the exact values for d = 3..15; other distances use a cubic
    fit (the decoding graph has bounded degree, so |E| = Θ(d³)).
    """
    if distance in PAPER_TABLE_4:
        return int(PAPER_TABLE_4[distance]["E"])
    # Least-squares cubic through the published points (computed once).
    distances = sorted(PAPER_TABLE_4)
    ys = [PAPER_TABLE_4[d]["E"] for d in distances]
    # Solve for a*d^3 + b*d^2 + c*d + e with a tiny normal-equation solve.
    import numpy as np

    matrix = np.vander(np.array(distances, dtype=float), 4)
    coefficients, *_ = np.linalg.lstsq(matrix, np.array(ys, dtype=float), rcond=None)
    value = float(np.polyval(coefficients, distance))
    return max(1, int(round(value)))


@dataclass(frozen=True)
class ResourceEstimate:
    """Resource usage of the accelerator for one code distance."""

    distance: int
    num_vertices: int
    num_edges: int
    vpu_state_bits: int
    epu_state_bits: int
    cpu_memory_bytes: int
    fpga_memory_bits: int
    luts: int
    clock_frequency_mhz: float

    @property
    def fpga_memory_kbits(self) -> float:
        return self.fpga_memory_bits / 1000.0

    def fits_on(self, available_luts: int) -> bool:
        return self.luts <= available_luts


def vpu_state_bits(num_vertices: int, distance: int | None = None) -> int:
    """Bits of the compact per-vertex state (Table 2, §4.3).

    The unique-Touch needs ``ceil(log2 |V|)`` bits, the unique-Node one more
    (blossom indices double the id space), the Residue enough bits for the
    largest cover radius (bounded by the graph diameter times the maximum
    4-bit weight), and the direction / is-defect / is-boundary flags 2 + 1 + 1
    bits.
    """
    index_bits = max(1, math.ceil(math.log2(max(num_vertices, 2))))
    node_bits = index_bits + 1
    if distance is None:
        distance = max(3, round((2 * num_vertices) ** (1.0 / 3.0)))
    max_radius = max(2, 3 * distance * (2 ** EPU_WEIGHT_BITS - 1))
    residue_bits = max(4, math.ceil(math.log2(max_radius)))
    direction_bits = 2
    flag_bits = 2
    return index_bits + node_bits + residue_bits + direction_bits + flag_bits


def _lut_scaling_coefficient() -> float:
    """Fit LUTs = c * |V| * log2(|V|) to the published Table 4 points."""
    numerator = 0.0
    denominator = 0.0
    for distance, row in PAPER_TABLE_4.items():
        x = row["V"] * math.log2(row["V"])
        numerator += x * row["luts"]
        denominator += x * x
    return numerator / denominator


_LUT_COEFFICIENT = _lut_scaling_coefficient()


def estimate_resources(
    distance: int,
    num_vertices: int | None = None,
    num_edges: int | None = None,
) -> ResourceEstimate:
    """Estimate Table 4 quantities for a code distance.

    By default the paper's decoding-graph sizes are used; passing explicit
    ``num_vertices`` / ``num_edges`` estimates resources for a custom graph
    (e.g. the graphs produced by :mod:`repro.graphs`).
    """
    vertices = paper_vertex_count(distance) if num_vertices is None else num_vertices
    edges = paper_edge_count(distance) if num_edges is None else num_edges
    vpu_bits = vpu_state_bits(vertices, distance)
    epu_bits = EPU_WEIGHT_BITS
    fpga_memory_bits = vertices * vpu_bits + edges * epu_bits
    luts = int(round(_LUT_COEFFICIENT * vertices * math.log2(max(vertices, 2))))
    cpu_memory_bytes = int(round(60 * vertices))
    frequency = accelerator_clock_frequency_hz(distance) / 1e6
    return ResourceEstimate(
        distance=distance,
        num_vertices=vertices,
        num_edges=edges,
        vpu_state_bits=vpu_bits,
        epu_state_bits=epu_bits,
        cpu_memory_bytes=cpu_memory_bytes,
        fpga_memory_bits=fpga_memory_bits,
        luts=luts,
        clock_frequency_mhz=frequency,
    )


def maximum_distance_for_luts(available_luts: int) -> int:
    """Largest odd code distance whose accelerator fits in ``available_luts``.

    Reproduces the §8.4 discussion: the VMK180 (900 k LUTs) supports up to
    d = 15 and the VP1902 (8.5 M LUTs) supports roughly d = 31.
    """
    distance = 3
    best = 0
    while distance <= 99:
        if estimate_resources(distance).luts <= available_luts:
            best = distance
        else:
            break
        distance += 2
    return best


def resource_table(distances: list[int] | None = None) -> list[ResourceEstimate]:
    """Regenerate Table 4 (optionally for a custom list of distances)."""
    if distances is None:
        distances = sorted(PAPER_TABLE_4)
    return [estimate_resources(d) for d in distances]


def paper_row(distance: int) -> dict[str, float] | None:
    """Published Table 4 row for comparison, if available."""
    return PAPER_TABLE_4.get(distance)


def minimum_frequency_for_sub_microsecond(distance: int) -> float:
    """Clock frequency (MHz) needed for sub-µs latency at a given distance.

    The paper states 68 MHz is required at d = 15 to keep up with the
    O(p²d² + 1) decoding time scaling (§8.4); the model scales that anchor
    with d² relative to d = 15.
    """
    anchor_distance = 15
    anchor_mhz = 68.0
    return anchor_mhz * (distance / anchor_distance) ** 2
