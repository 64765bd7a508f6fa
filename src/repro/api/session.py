"""Reusable decoding sessions.

A :class:`DecoderSession` binds a decoding graph to one registered decoder and
keeps the expensive per-graph state — the accelerator model, the primal
module, the dual engine — alive across shots.  The Monte-Carlo harness used to
rebuild ``MicroBlossomAccelerator`` + ``PrimalModule`` for every single
syndrome; a session builds them once and ``reset()``s them between shots,
which is where the hot-path win of the unified API comes from (see
``benchmarks/bench_batch_throughput.py``).
"""

from __future__ import annotations

from typing import Sequence

from ..graphs.decoding_graph import DecodingGraph
from ..graphs.syndrome import MatchingResult, Syndrome
from .batch import BatchOutcome, decode_batch
from .config import DecoderConfig
from .outcome import DecodeOutcome
from .registry import resolve_config


class DecoderSession:
    """One decoder bound to one graph, reused shot after shot.

    The session exposes the full :class:`~repro.api.protocol.Decoder` surface
    (``decode`` / ``decode_to_correction`` / ``decode_detailed``) plus batch
    decoding, and counts the shots it decoded.  Each outcome carries its own
    shot's counters.  ``reset()`` returns the session to its freshly-built
    state; decoding after a reset yields matchings identical to a brand-new
    decoder.

    >>> from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph
    >>> graph = surface_code_decoding_graph(3, circuit_level_noise(0.01))
    >>> session = DecoderSession(graph, "micro-blossom")
    >>> outcome = session.decode_detailed(SyndromeSampler(graph, seed=1).sample())
    >>> outcome.is_exact, session.shots
    (True, 1)
    >>> session.reset()
    >>> session.shots
    0
    """

    def __init__(
        self,
        graph: DecodingGraph,
        name: str = "micro-blossom",
        config: DecoderConfig | None = None,
    ) -> None:
        spec, self.config = resolve_config(name, config)
        self.graph = graph
        self.name = name
        self.decoder = spec.factory(graph, self.config)
        self.shots = 0

    # ------------------------------------------------------------------
    # Decoder protocol
    # ------------------------------------------------------------------
    def decode(self, syndrome: Syndrome) -> MatchingResult:
        # Delegate to the backend: correction-only decoders (Union-Find)
        # derive their matching in ``decode`` itself, not in
        # ``decode_detailed``, so taking ``decode_detailed().result`` here
        # would return None for them.
        result = self.decoder.decode(syndrome)
        self.shots += 1
        return result

    def decode_to_correction(self, syndrome: Syndrome) -> set[int]:
        outcome = self.decode_detailed(syndrome)
        return outcome.correction_edges(self.graph)

    def decode_detailed(self, syndrome: Syndrome) -> DecodeOutcome:
        outcome = self.decoder.decode_detailed(syndrome)
        self.shots += 1
        return outcome

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard all cached per-shot state and the shot count."""
        reset = getattr(self.decoder, "reset", None)
        if callable(reset):
            reset()
        self.shots = 0

    def decode_batch(
        self, syndromes: Sequence[Syndrome], workers: int = 1
    ) -> BatchOutcome:
        """Decode a batch of syndromes (see :func:`repro.api.batch.decode_batch`).

        With ``workers == 1`` the session's own decoder is reused; with more
        workers the batch goes through :func:`~repro.api.batch.decode_batch`,
        whose worker processes rebuild the decoder from this session's
        ``(name, config)``.
        """
        if workers == 1:
            outcomes = [self.decode_detailed(syndrome) for syndrome in syndromes]
            return BatchOutcome.from_outcomes(outcomes)
        batch = decode_batch(
            self.graph, self.name, syndromes, config=self.config, workers=workers
        )
        self.shots += batch.num_shots
        return batch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecoderSession(name={self.name!r}, shots={self.shots}, "
            f"graph={self.graph!r})"
        )
