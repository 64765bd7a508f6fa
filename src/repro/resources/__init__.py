"""FPGA resource model (Table 4, §8.4)."""

from .estimate import (
    EPU_WEIGHT_BITS,
    PAPER_TABLE_4,
    VMK180_LUTS,
    VP1902_LUTS,
    ResourceEstimate,
    estimate_resources,
    maximum_distance_for_luts,
    minimum_frequency_for_sub_microsecond,
    paper_edge_count,
    paper_row,
    paper_vertex_count,
    resource_table,
    vpu_state_bits,
)

__all__ = [
    "EPU_WEIGHT_BITS",
    "PAPER_TABLE_4",
    "VMK180_LUTS",
    "VP1902_LUTS",
    "ResourceEstimate",
    "estimate_resources",
    "maximum_distance_for_luts",
    "minimum_frequency_for_sub_microsecond",
    "paper_edge_count",
    "paper_row",
    "paper_vertex_count",
    "resource_table",
    "vpu_state_bits",
]
