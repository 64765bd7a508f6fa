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

from dataclasses import dataclass

from ..api.config import DecoderConfig
from ..api.hashing import content_hash
from ..api.outcome import DecodeOutcome
from ..api.registry import resolve_config
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


@dataclass(frozen=True)
class CodeSpec:
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

    def to_dict(self) -> dict:
        """JSON-shaped wire form (the network service's session codec).

        >>> CodeSpec(3).to_dict()["distance"]
        3
        """
        return {
            "distance": self.distance,
            "noise": self.noise,
            "physical_error_rate": self.physical_error_rate,
            "rounds": self.rounds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CodeSpec":
        """Inverse of :meth:`to_dict`.

        >>> CodeSpec.from_dict(CodeSpec(5, rounds=2).to_dict())
        CodeSpec(distance=5, noise='circuit_level', physical_error_rate=0.001, rounds=2)
        """
        rounds = data.get("rounds")
        return cls(
            distance=int(data["distance"]),
            noise=str(data.get("noise", "circuit_level")),
            physical_error_rate=float(data.get("physical_error_rate", 0.001)),
            rounds=None if rounds is None else int(rounds),
        )


@dataclass(frozen=True)
class SessionKey:
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

    The canonical string is computed on the first :meth:`key` call and kept
    on the instance (outside the dataclass fields, so equality, hashing,
    :meth:`to_dict` and pickles are unchanged): a shared key costs one
    config hash, however many requests probe the outcome cache with it.  It
    is deliberately lazy — the network worker builds a key per request and
    never asks for the string while the outcome cache is off.
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

    def key(self) -> str:
        """Canonical ``(code, noise, decoder, config-hash)`` string."""
        try:
            return self.__dict__["_key"]
        except KeyError:
            key = f"{self.code.key()}/decoder={self.decoder}/config={self.config_hash}"
            object.__setattr__(self, "_key", key)
            return key

    def __getstate__(self) -> dict:
        # Pickle the fields only: the memoised string is recomputed on demand.
        state = dict(self.__dict__)
        state.pop("_key", None)
        return state

    def key_hash(self) -> str:
        """16-hex-digit content hash of :meth:`key` (fits in filenames/logs)."""
        return content_hash({"session": self.key()})

    def to_dict(self) -> dict:
        """JSON-shaped wire form.  ``config`` is always the normalised
        (non-``None``) configuration, so the wire form round-trips to an
        *equal* key even when the sender omitted the config.

        >>> key = SessionKey(CodeSpec(3), "union-find")
        >>> SessionKey.from_dict(key.to_dict()) == key
        True
        """
        return {
            "code": self.code.to_dict(),
            "decoder": self.decoder,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionKey":
        """Inverse of :meth:`to_dict` (``config: null`` means registry default)."""
        config = data.get("config")
        return cls(
            code=CodeSpec.from_dict(data["code"]),
            decoder=str(data.get("decoder", "micro-blossom")),
            config=None if config is None else DecoderConfig.from_dict(config),
        )


@dataclass(frozen=True)
class DecodeRequest:
    """One single-shot decode request submitted to the service.

    ``request_id`` is a client-chosen correlator echoed back on the response;
    the service never interprets it.
    """

    session: SessionKey
    syndrome: Syndrome
    request_id: int = 0

    def to_dict(self) -> dict:
        """JSON-shaped wire form — exactly what one ``request`` TCP frame
        carries (see :mod:`repro.service.net.protocol`).

        >>> request = DecodeRequest(SessionKey(CodeSpec(3), "union-find"), Syndrome((1,)))
        >>> DecodeRequest.from_dict(request.to_dict()) == request
        True
        """
        return {
            "session": self.session.to_dict(),
            "syndrome": self.syndrome.to_dict(),
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecodeRequest":
        """Inverse of :meth:`to_dict`."""
        return cls(
            session=SessionKey.from_dict(data["session"]),
            syndrome=Syndrome.from_dict(data["syndrome"]),
            request_id=int(data.get("request_id", 0)),
        )


@dataclass
class DecodeResponse:
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
    micro-batch slot, so their ``batch_size`` is 0.

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

    def to_dict(self) -> dict:
        """JSON-shaped wire form — the payload of one ``response`` TCP frame.

        The outcome flattens to a plain :class:`~repro.api.DecodeOutcome`
        (see :meth:`repro.api.DecodeOutcome.to_dict`), which preserves every
        field the digest/identity contracts compare.

        >>> request = DecodeRequest(SessionKey(CodeSpec(3), "union-find"), Syndrome(()))
        >>> response = DecodeResponse(request, status=STATUS_SHED)
        >>> DecodeResponse.from_dict(response.to_dict()) == response
        True
        """
        return {
            "request": self.request.to_dict(),
            "status": self.status,
            "outcome": None if self.outcome is None else self.outcome.to_dict(),
            "queue_delay_seconds": self.queue_delay_seconds,
            "latency_seconds": self.latency_seconds,
            "batch_size": self.batch_size,
            "cached": self.cached,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecodeResponse":
        """Inverse of :meth:`to_dict`."""
        outcome = data.get("outcome")
        return cls(
            request=DecodeRequest.from_dict(data["request"]),
            status=str(data.get("status", STATUS_OK)),
            outcome=None if outcome is None else DecodeOutcome.from_dict(outcome),
            queue_delay_seconds=float(data.get("queue_delay_seconds", 0.0)),
            latency_seconds=float(data.get("latency_seconds", 0.0)),
            batch_size=int(data.get("batch_size", 0)),
            cached=bool(data.get("cached", False)),
            error=data.get("error"),
        )
