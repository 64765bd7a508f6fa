"""Exact lookup-table contents, pinned entry by entry.

A ``lut+X`` hit replays the answer ``X`` produced at table construction, so
the table's contents are the decode contract of every hit: a change to how
the table is built must keep each entry's packed key, matching, outcome and
accounted size — and therefore the budget truncation point and
``bytes_resident`` — byte-stable.  The literals below hash all of them plus
``stats()``.
"""

from __future__ import annotations

import pytest

from repro.api import get_decoder
from repro.api.hashing import content_hash
from repro.graphs import circuit_level_noise, surface_code_decoding_graph
from repro.lut import LookupTable, LUTDecoder

#: case -> (fallback, memory budget or None for the default, pinned digest).
_CASES = {
    "lut+union-find": ("union-find", None, "ab92c7624e5b5aa8"),
    "lut+micro-blossom": ("micro-blossom", None, "d2fbb2ab0b0fec74"),
    "lut+union-find-truncated": ("union-find", 120_000, "191a2f85e85478cb"),
}


@pytest.fixture(scope="module")
def graph():
    return surface_code_decoding_graph(5, circuit_level_noise(0.001))


def _table(graph, fallback: str, budget: int | None) -> LookupTable:
    if budget is None:
        return LUTDecoder(graph, fallback).table
    return LookupTable(graph, get_decoder(fallback, graph), memory_budget_bytes=budget)


def _table_digest(table: LookupTable) -> str:
    entries = [
        {
            "key": key,
            "matching": entry.matching.to_dict(),
            "outcome": entry.outcome.to_dict(),
            "cost_bytes": entry.cost_bytes,
        }
        for key, entry in sorted(table._entries.items())
    ]
    return content_hash({"entries": entries, "stats": table.stats()})


@pytest.mark.parametrize("case", sorted(_CASES))
def test_lookup_table_contents_are_pinned(graph, case):
    fallback, budget, pinned = _CASES[case]
    table = _table(graph, fallback, budget)
    if budget is not None:
        assert table.truncated and table.entries > 1, case
    assert _table_digest(table) == pinned, case
