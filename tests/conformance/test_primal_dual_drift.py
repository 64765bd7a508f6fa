"""Primal/dual drift: the primal module's view of every node stays the dual's.

After every Conflict the primal module resolves, each outer node it tracks
must grow, hold or shrink in the accelerator exactly as the primal module
believes (see :func:`harness.primal_dual_drift`).  Round-wise fusion at d=9,
p=0.003 frees and re-grows nodes often enough that a desync shows up within
a few hundred shots; such a desync decodes too heavy or raises later.
"""

from __future__ import annotations

from repro.core import MicroBlossomDecoder, PrimalModule
from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph

from .harness import primal_dual_drift

SHOTS = 1500


def test_no_drift_after_any_resolve_in_stream_mode(monkeypatch):
    graph = surface_code_decoding_graph(9, circuit_level_noise(0.003))
    resolve = PrimalModule._resolve
    drifts: list[str] = []
    resolves = {"count": 0}

    def checked_resolve(primal, conflict):
        resolve(primal, conflict)
        resolves["count"] += 1
        drifts.extend(primal_dual_drift(primal))

    monkeypatch.setattr(PrimalModule, "_resolve", checked_resolve)
    decoder = MicroBlossomDecoder(graph, stream=True)
    shots = [s for s in SyndromeSampler(graph, seed=2026).sample_batch(2 * SHOTS) if s.defects]
    for syndrome in shots[:SHOTS]:
        decoder.decode_detailed(syndrome)
        assert not drifts, f"defects {syndrome.defects}: {drifts}"
    assert resolves["count"] > SHOTS
