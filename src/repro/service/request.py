"""Request/response dataclasses of the decode service.

A service request names *what* to decode (a syndrome) and *with what* (a
:class:`SessionKey`: code parameters, decoder name, decoder configuration).
The key is everything the service needs to build — or fetch from its LRU —
the reusable :class:`repro.api.DecoderSession` that serves the request, and
its canonical string form doubles as the micro-batcher's coalescing key:
requests with equal keys are decodable by one session and therefore
batchable together.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from ..api.config import DecoderConfig
from ..api.hashing import canonical_json, content_hash
from ..api.outcome import DecodeOutcome
from ..api.registry import resolve_config
from ..api.wireform import WireForm
from ..graphs.decoding_graph import DecodingGraph
from ..graphs.noise import noise_model_by_name
from ..graphs.surface_code import surface_code_decoding_graph
from ..graphs.syndrome import Syndrome

#: Response status: the request was decoded.
STATUS_OK = "ok"
#: Response status: the request was load-shed (bounded queue full under the
#: ``"shed"`` overload policy) and never reached a decoder.
STATUS_SHED = "shed"
#: Response status: the request failed inside the service — its decode
#: raised (e.g. a poisoned/malformed syndrome) or its session build kept
#: crashing past the retry budget.  The failure is isolated: every other
#: request in the same micro-batch completes normally.
STATUS_ERROR = "error"

#: Bound on the sessions :func:`intern_session` keeps per process.  A
#: deployment serves a handful of sessions; the bound only caps what a
#: client cycling through distinct session blobs can pin in memory.
INTERNED_SESSIONS = 128


@dataclass(frozen=True)
class CodeSpec(WireForm):
    """The code-and-noise half of a session key.

    Identifies one decoding graph: a rotated surface-code memory experiment
    of odd ``distance``, under the named noise family at one physical error
    rate, with an optional explicit number of measurement ``rounds``
    (defaults to the code distance for 3D noise models).

    >>> code = CodeSpec(distance=3, noise="circuit_level", physical_error_rate=0.02)
    >>> code.key()
    'd=3/noise=circuit_level/p=0.02/rounds=default'
    >>> code.build_graph().metadata["distance"]
    3
    """

    distance: int
    noise: str = "circuit_level"
    physical_error_rate: float = 0.001
    rounds: int | None = None

    def __post_init__(self) -> None:
        if self.distance < 3 or self.distance % 2 == 0:
            raise ValueError("distance must be odd and >= 3")
        if not 0.0 < self.physical_error_rate < 1.0:
            raise ValueError("physical_error_rate must lie in (0, 1)")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1 (or None for the default)")

    def key(self) -> str:
        """Canonical parameter string (stable across processes)."""
        rounds = "default" if self.rounds is None else str(self.rounds)
        return (
            f"d={self.distance}/noise={self.noise}"
            f"/p={float(self.physical_error_rate)!r}/rounds={rounds}"
        )

    def build_graph(self) -> DecodingGraph:
        """Construct the decoding graph this spec describes."""
        model = noise_model_by_name(self.noise, self.physical_error_rate)
        return surface_code_decoding_graph(self.distance, model, rounds=self.rounds)


@dataclass(frozen=True)
class SessionKey(WireForm):
    """What the service's session LRU is keyed by.

    ``(code, decoder, config)`` fully determines a
    :class:`repro.api.DecoderSession`; two requests with equal keys can share
    one cached session (and hence one micro-batch).  A ``config`` of ``None``
    is normalised to the decoder's registry default at construction, so
    explicit-default and omitted configs produce the *same* key.

    >>> key = SessionKey(CodeSpec(3, physical_error_rate=0.02), "union-find")
    >>> key == SessionKey(CodeSpec(3, physical_error_rate=0.02), "union-find")
    True
    >>> key.key().startswith("d=3/noise=circuit_level")
    True

    The canonical string (:meth:`key`), the wire blob (:meth:`wire_blob`)
    and the routing hash (:meth:`key_hash`) are each computed on first use
    and kept on the instance, outside the dataclass fields, so equality,
    hashing, :meth:`to_dict` and pickles are unchanged: a shared key costs
    one config hash and one JSON encode, however many requests carry it.
    :func:`intern_session` hands out one shared key per session blob, so
    the network tier pays that once per session in each process.
    """

    code: CodeSpec
    decoder: str = "micro-blossom"
    config: DecoderConfig | None = None

    def __post_init__(self) -> None:
        _spec, config = resolve_config(self.decoder, self.config)
        object.__setattr__(self, "config", config)

    @property
    def config_hash(self) -> str:
        """Stable content hash of the (normalised) decoder configuration."""
        return self.config.config_hash()

    def _remember(self, name: str, value):
        object.__setattr__(self, name, value)
        return value

    def key(self) -> str:
        """Canonical ``(code, noise, decoder, config-hash)`` string."""
        try:
            return self.__dict__["_key"]
        except KeyError:
            return self._remember(
                "_key", f"{self.code.key()}/decoder={self.decoder}/config={self.config_hash}"
            )

    def wire_blob(self) -> str:
        """Canonical JSON of :meth:`to_dict`: the session as the binary
        codec carries it.

        >>> SessionKey(CodeSpec(3), "union-find").wire_blob()[:25]
        '{"code":{"distance":3,"no'
        """
        try:
            return self.__dict__["_blob"]
        except KeyError:
            return self._remember("_blob", canonical_json(self.to_dict()))

    def __hash__(self) -> int:
        # The hash of the frozen fields, as the dataclass would compute it,
        # but kept: the generated one re-hashes the nested code and config
        # on every dict lookup of a key.
        try:
            return self.__dict__["_hash_value"]
        except KeyError:
            return self._remember("_hash_value", hash((self.code, self.decoder, self.config)))

    def __getstate__(self) -> dict:
        # Pickle the fields only: memoised values are recomputed on demand.
        return {name: self.__dict__[name] for name in ("code", "decoder", "config")}

    def key_hash(self) -> str:
        """16-hex-digit content hash of :meth:`key` (fits in filenames/logs)."""
        try:
            return self.__dict__["_hash"]
        except KeyError:
            return self._remember("_hash", content_hash({"session": self.key()}))


def _parse_session(blob: str) -> SessionKey:
    try:
        data = json.loads(blob)
    except RecursionError:
        raise ValueError("session blob nests too deeply") from None
    if not isinstance(data, dict):
        raise TypeError(f"session must be an object, got {type(data).__name__}")
    return SessionKey.from_dict(data)


_interned = functools.lru_cache(maxsize=INTERNED_SESSIONS)(_parse_session)

#: Longest blob :func:`intern_session` keeps; a canonical blob is a few
#: hundred characters, and a padded one must not pin megabytes.
_MAX_INTERNED_BLOB = 4096


def intern_session(blob: str) -> SessionKey:
    """The checked :class:`SessionKey` a session's JSON text describes,
    parsed once per process.

    The first call with a given ``blob`` parses and validates it; later
    calls return the *same* key object, whose key string, wire blob and
    routing hash are memoised on it.  This is the network tier's one
    interning point: the front end routes through it, and the worker
    decodes through it, so each process parses, checks and hashes a session
    once instead of once per request.  At most :data:`INTERNED_SESSIONS`
    blobs are kept (least recently used first out).  A blob that does not
    parse into a valid key raises on every call: failures are never kept.

    >>> key = SessionKey(CodeSpec(3), "union-find")
    >>> intern_session(key.wire_blob()) == key
    True
    >>> intern_session(key.wire_blob()) is intern_session(key.wire_blob())
    True
    >>> intern_session('{"code": {"distance": 5.7}, "decoder": "union-find"}')
    Traceback (most recent call last):
    ...
    TypeError: CodeSpec.distance must be an integer, got float
    """
    if len(blob) > _MAX_INTERNED_BLOB:
        return _parse_session(blob)
    return _interned(blob)


@dataclass(frozen=True)
class DecodeRequest(WireForm):
    """One single-shot decode request submitted to the service.

    ``request_id`` is a client-chosen correlator echoed back on the response;
    the service never interprets it.
    """

    session: SessionKey
    syndrome: Syndrome
    request_id: int = 0


@dataclass
class DecodeResponse(WireForm):
    """The service's answer to one :class:`DecodeRequest`.

    ``outcome`` is bit-identical to calling ``decode_detailed`` on a decoder
    built directly from the request's session key — batching and session
    reuse never change results (pinned by ``tests/test_service.py``).  The
    timing fields use the service clock: ``queue_delay_seconds`` is the time
    from submission until the request's micro-batch started decoding,
    ``latency_seconds`` the full submission-to-completion time, and
    ``batch_size`` how many requests shared the coalesced batch.

    ``cached`` marks a response resolved by the service's content-addressed
    :class:`repro.lut.OutcomeCache` — the outcome is a stored (and cloned)
    earlier decode of the same session key and defect set, which is exact
    because decoding is deterministic.  Cached responses never occupy a
    micro-batch slot, so their ``batch_size`` is 0.  A hit's outcome is a
    plain :class:`~repro.api.DecodeOutcome`, not the backend's subclass a
    fresh decode returns (e.g. ``UnionFindOutcome``), so ``cached.outcome
    == fresh.outcome`` can be ``False`` for one syndrome: compare outcomes
    with ``to_dict()`` or by correction.  (Over the network every outcome
    arrives as a plain ``DecodeOutcome``.)

    ``error`` carries the failure summary of a :data:`STATUS_ERROR`
    response (``"<ExceptionType>: <message>"``); ``None`` otherwise.  A
    request that failed inside a micro-batch still reports that batch's
    ``batch_size``; shed requests never reach one and report 0.
    """

    request: DecodeRequest
    status: str = STATUS_OK
    outcome: DecodeOutcome | None = None
    queue_delay_seconds: float = 0.0
    latency_seconds: float = 0.0
    batch_size: int = 0
    cached: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the request was decoded (not shed or failed)."""
        return self.status == STATUS_OK
