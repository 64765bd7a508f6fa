"""The length-prefixed wire protocol of the network service (codecs v1/v2).

One frame = a 4-byte big-endian payload length followed by the payload.  Two
payload codecs share that framing:

* **Codec 1 (JSON)** — canonical JSON (:func:`repro.api.hashing.canonical_json`:
  sorted keys, no whitespace), the same canonical form the content hashes
  use, so a frame's bytes are a pure function of its logical content.  Every
  frame kind can ride this codec; control frames (handshake, errors, drain,
  streams) always do.
* **Codec 2 (binary)** — a struct-packed little-endian format for the four
  hot kinds only (``request``/``response`` and their batch forms).  The
  first payload byte is the magic ``0xB2`` — an impossible first byte of a
  JSON object (``{`` = ``0x7B``) — so the receiver sniffs the codec per
  frame and one read path serves both.  Defect/edge indices travel as packed
  ``uint32`` arrays instead of JSON int lists, batch frames deduplicate the
  per-request session dict into a shared session table, and binary
  ``response`` frames omit the request echo (the client holds the request).

The codec is negotiated at the handshake: the client's ``hello`` carries the
codec list it speaks (``"codecs": [2, 1]``; absent means a v1-only client),
the server answers with the chosen ``"codec"`` in its ``welcome``.  Either
side may still *send* codec-1 frames afterwards — a frame a binary encoder
cannot represent (huge integers, exotic payloads) silently falls back to
canonical JSON, which the sniffing receiver handles identically.
:data:`PROTOCOL_VERSION` stays 1: codec 2 is a negotiated capability, not an
incompatible envelope change.

Frame kinds (* = binary-capable; ← = server to client):

* ``hello`` ``{version, client, codecs}`` (no ``codecs`` = JSON-only peer);
  ← ``welcome`` ``{version, workers, config_hash, codec, coalesce}``: the
  server's :class:`repro.service.ServiceConfig` hash, the negotiated codec
  and the suggested client-side coalescing knobs.
* ``request`` * ``{id, request}`` (:meth:`repro.service.DecodeRequest.to_dict`);
  ← ``response`` * ``{id, response}`` (codec-1 responses embed the request
  echo, binary ones never do).  ``request-batch`` * ``{requests: [{id,
  request}, ...]}``; ← ``response-batch`` * ``{responses: [{id, response},
  ...]}``.
* ``stream-open`` ``{id, stream, session, window, commit_depth}`` and
  ``stream-op`` ``{id, stream, op, payload}`` (``op`` ∈ begin/push/finalize);
  ← ``stream-reply`` ``{id, result}``.
* ← ``error`` ``{id, error}`` (``id`` null for connection-level errors);
  ← ``drain`` (admitted work is still answered, new work is not); ``bye``.

Binary layouts (all little-endian; ``blob`` = u32 length + UTF-8 bytes,
``u32[]`` = u32 count + packed u32 values):

* ``request``: ``0xB2 0x01`` · i64 frame id · session blob (canonical JSON)
  · syndrome · i64 request_id.
* ``syndrome``: u8 tag (bits 0-1: flip 0 = null, 1 = false, 2 = true; bit
  2: has erasures) · u32[] defects · u32[] error_edges · [u32[] erasures].
* ``response``: ``0xB2 0x02`` · i64 frame id · body.
* body: status blob · u8 flags (1 cached, 2 has-outcome, 4 has-error) ·
  f64 queue_delay · f64 latency · u32 batch_size · [error blob] ·
  [outcome].
* ``outcome``: u8 flags (1 has-result, 2 has-correction) · u32 defect_count
  · u32 scale_retries · [u32 n_pairs · n×(i32, i32) · u32 n_boundary ·
  n×(i32, i32) · i64 weight] · [u32[] correction] · u32 n_counters ·
  n×(key blob · i64 value).
* ``request-batch``: ``0xB2 0x03`` · u16 n_sessions · n×session blob ·
  u32 n_members · n×(i64 frame id · u16 session index · i64 request_id ·
  syndrome).
* ``response-batch``: ``0xB2 0x04`` · u32 n_members · n×(i64 frame id ·
  body).

Each layout has one field-level writer and one reader, and the decode path
uses them without a dict in between.  A request member is the tuple
``(frame id, session blob, request id, syndrome bytes)``:
:func:`request_member` builds it from a
:class:`~repro.service.DecodeRequest`, :func:`encode_requests` frames
members, and :func:`scan_requests` checks a binary request frame and hands
its members back with each syndrome as its raw byte span, which the front
end forwards to a worker unparsed.  The worker writes each answer's body
once (:func:`response_body`); the front end splices ``(frame id, body)``
pairs into frames (:func:`encode_responses`), and the client reads them
straight into :class:`~repro.service.DecodeResponse` fields
(:func:`read_responses`).  The logical-dict forms of
:func:`encode_frame`/:func:`decode_payload` are thin adapters over the same
writers and readers.

The module offers both blocking-socket helpers (the synchronous client) and
``asyncio`` stream helpers (the server) over the identical byte format.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from collections import Counter

from ...api.hashing import canonical_json
from ...api.outcome import DecodeOutcome
from ...api.wireform import load_fields
from ...graphs.syndrome import MatchingResult, Syndrome
from ..request import STATUS_ERROR

#: Version tag of this wire protocol; bumped on any incompatible change.
#: The binary codec is *not* a version bump — it is negotiated per
#: connection and falls back to codec 1 frame by frame.
PROTOCOL_VERSION = 1

#: The base canonical-JSON payload codec every peer speaks.
CODEC_JSON = 1

#: The struct-packed binary payload codec (hot frame kinds only).
CODEC_BINARY = 2

#: Codecs this implementation can decode, best first.
SUPPORTED_CODECS = (CODEC_BINARY, CODEC_JSON)

#: Upper bound on one frame's payload (guards against hostile/corrupt length
#: prefixes allocating unbounded buffers; generous for any real batch).
MAX_FRAME_BYTES = 16 << 20

_LENGTH = struct.Struct(">I")

#: First payload byte of every binary frame.  ``0xB2`` can never open a
#: canonical-JSON payload (objects start with ``{``), so the receiver can
#: sniff the codec without negotiation state.
_MAGIC = 0xB2

_KIND_REQUEST = 0x01
_KIND_RESPONSE = 0x02
_KIND_REQUEST_BATCH = 0x03
_KIND_RESPONSE_BATCH = 0x04
_BINARY_KINDS = {
    _KIND_REQUEST: "request",
    _KIND_RESPONSE: "response",
    _KIND_REQUEST_BATCH: "request-batch",
    _KIND_RESPONSE_BATCH: "response-batch",
}

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_SINGLE_HEAD = struct.Struct("<BBq")  # magic, kind tag, frame id
_BATCH_HEAD = struct.Struct("<BBI")  # magic, kind tag, member count
_MEMBER_HEAD = struct.Struct("<qHq")  # frame id, session index, request id
_TAG_COUNT = struct.Struct("<BI")  # syndrome tag, defect count
_BODY_HEAD = struct.Struct("<BddI")  # flags, queue delay, latency, batch size
_OUTCOME_HEAD = struct.Struct("<BII")  # flags, defect count, scale retries
_FLIPS = (None, False, True)

#: :class:`~repro.service.DecodeResponse` fields after ``request``, in the
#: order :func:`read_responses` yields them.
_RESPONSE_FIELDS = (
    "status",
    "outcome",
    "queue_delay_seconds",
    "latency_seconds",
    "batch_size",
    "cached",
    "error",
)


class ProtocolError(RuntimeError):
    """A malformed, oversized, or version-incompatible frame."""


class SessionWire(dict):
    """A request's session dict that also carries the JSON ``blob`` it
    travels as in the binary codec.

    The binary decoder hands out one per session-table entry (``blob`` is
    the text the peer sent), and the binary encoder writes ``blob`` as is
    instead of re-serialising the dict.  It compares, and JSON-encodes, as
    the plain dict it is; ``blob`` must stay the JSON of that dict, so treat
    it as read-only.

    >>> session = SessionWire({"decoder": "union-find"}, '{"decoder":"union-find"}')
    >>> session == {"decoder": "union-find"}, session.blob
    (True, '{"decoder":"union-find"}')
    """

    __slots__ = ("blob",)

    def __init__(self, data: dict, blob: str) -> None:
        super().__init__(data)
        self.blob = blob


def session_blob(session) -> str:
    """The JSON text of a request's session: its own ``blob`` when it is a
    :class:`SessionWire`, else its canonical JSON."""
    if isinstance(session, SessionWire):
        return session.blob
    return canonical_json(session)


def negotiate_codec(offered) -> int:
    """The best codec of ``offered`` both sides speak.

    ``offered`` is the ``codecs`` list of a ``hello`` frame; ``None`` or
    empty means a legacy JSON-only peer.  Codec 1 is the implicit floor —
    every peer speaks it by construction.

    >>> negotiate_codec([2, 1])
    2
    >>> negotiate_codec(None)
    1
    """
    best = CODEC_JSON
    if not offered:
        return best
    for codec in offered:
        if isinstance(codec, int) and codec in SUPPORTED_CODECS:
            best = max(best, codec)
    return best


def binary_kind(payload: bytes) -> str | None:
    """The frame kind of a binary payload; ``None`` for a JSON payload."""
    if payload[:1] != b"\xb2":
        return None
    if len(payload) < 2:
        raise ProtocolError("truncated binary frame")
    kind = _BINARY_KINDS.get(payload[1])
    if kind is None:
        raise ProtocolError(f"unknown binary frame kind 0x{payload[1]:02x}")
    return kind


def _framed(parts: list) -> bytes:
    """``parts[1:]`` behind their length prefix (``parts[0]`` is the
    prefix's slot); :class:`ProtocolError` past :data:`MAX_FRAME_BYTES`."""
    size = sum(map(len, parts))
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {size} bytes exceeds {MAX_FRAME_BYTES}")
    parts[0] = _LENGTH.pack(size)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# binary codec: writers (one per layout)
# ---------------------------------------------------------------------------
def _blob(text: str) -> bytes:
    data = text.encode("utf-8")
    return _U32.pack(len(data)) + data


def _u32s(values) -> bytes:
    return struct.pack(f"<I{len(values)}I", len(values), *values)


def _i32_pairs(flat) -> bytes:
    return struct.pack(f"<I{len(flat)}i", len(flat) // 2, *flat)


def syndrome_bytes(defects, error_edges, logical_flip, erasures) -> bytes:
    """The binary syndrome layout of these :class:`~repro.graphs.Syndrome`
    fields.  Indices must be integers in ``[0, 2**32)``; anything else
    (a float, a negative or oversized index) raises ``ValueError``."""
    tag = 0 if logical_flip is None else (2 if logical_flip else 1)
    try:
        if erasures:
            return bytes((tag | 4,)) + _u32s(defects) + _u32s(error_edges) + _u32s(erasures)
        return bytes((tag,)) + _u32s(defects) + _u32s(error_edges)
    except struct.error as exc:
        raise ValueError(f"syndrome indices must be integers in [0, 2**32): {exc}") from None


def pack_syndrome(syndrome) -> bytes:
    """:func:`syndrome_bytes` of a :meth:`~repro.graphs.Syndrome.to_dict`
    form, checked field by field as ``Syndrome.from_dict`` checks it
    (``TypeError``/``ValueError`` when it is not one)."""
    # The checked fields, without building the Syndrome this never needs.
    fields = load_fields(Syndrome, syndrome)
    return syndrome_bytes(
        fields["defects"],
        fields.get("error_edges", ()),
        fields.get("logical_flip"),
        fields.get("erasures", ()),
    )


def request_member(frame_id: int, request) -> tuple:
    """The ``(frame id, session blob, request id, syndrome bytes)`` member a
    :class:`~repro.service.DecodeRequest` travels as: its key's memoised
    ``wire_blob()`` and its syndrome packed once.  ``ValueError`` when a
    field does not fit the binary layout."""
    syndrome = request.syndrome
    try:
        _I64.pack(request.request_id)
    except struct.error as exc:
        raise ValueError(f"request_id must be an int64: {exc}") from None
    return (
        frame_id,
        request.session.wire_blob(),
        request.request_id,
        syndrome_bytes(
            syndrome.defects, syndrome.error_edges, syndrome.logical_flip, syndrome.erasures
        ),
    )


def _request_parts(members, batch: bool) -> list:
    if not batch:
        ((frame_id, blob, request_id, syndrome),) = members
        head = _SINGLE_HEAD.pack(_MAGIC, _KIND_REQUEST, frame_id)
        return [b"", head, _blob(blob), syndrome, _I64.pack(request_id)]
    index_of: dict[str, int] = {}
    body = []
    for frame_id, blob, request_id, syndrome in members:
        index = index_of.get(blob)
        if index is None:
            index = index_of[blob] = len(index_of)
            if index > 0xFFFF:
                raise ValueError("too many distinct sessions for one batch frame")
        body += (_MEMBER_HEAD.pack(frame_id, index, request_id), syndrome)
    head = [b"", bytes((_MAGIC, _KIND_REQUEST_BATCH)), _U16.pack(len(index_of))]
    head += map(_blob, index_of)
    head.append(_U32.pack(len(members)))
    return head + body


def encode_requests(members: list) -> bytes:
    """The frame carrying :func:`request_member` tuples: a ``request`` for
    one member, a ``request-batch`` for several.  :class:`ProtocolError`
    when it cannot be one frame (too large, or too many sessions)."""
    try:
        return _framed(_request_parts(members, len(members) > 1))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _outcome_parts(parts, result, correction, defect_count, counters, scale_retries) -> None:
    flags = (0 if result is None else 1) | (0 if correction is None else 2)
    parts.append(_OUTCOME_HEAD.pack(flags, defect_count, scale_retries))
    if result is not None:
        pairs, boundary, weight = result
        parts += (_i32_pairs(pairs), _i32_pairs(boundary), _I64.pack(weight))
    if correction is not None:
        parts.append(_u32s(correction))
    parts.append(_U32.pack(len(counters)))
    for key, value in counters:
        parts += (_blob(key), _I64.pack(value))


def _body(status, cached, queue_delay, latency, batch_size, error, outcome) -> bytes:
    """The body layout; ``outcome`` is ``None`` or the :func:`_outcome_parts`
    fields with sorted boundary/counter items and flat ``(u, v)`` pairs."""
    flags = (1 if cached else 0) | (0 if outcome is None else 2) | (0 if error is None else 4)
    parts = [_blob(status), _BODY_HEAD.pack(flags, queue_delay, latency, batch_size)]
    if error is not None:
        parts.append(_blob(error))
    if outcome is not None:
        _outcome_parts(parts, *outcome)
    return b"".join(parts)


def response_body(response) -> bytes:
    """The binary body of a :class:`~repro.service.DecodeResponse`, written
    from the objects (the outcome flattens as
    :meth:`~repro.api.DecodeOutcome.to_dict` does)."""
    outcome = response.outcome
    if outcome is not None:
        result, correction = outcome.result, outcome.correction
        if result is not None:
            boundary = sorted(result.boundary_vertices.items())
            result = (
                [vertex for pair in result.pairs for vertex in pair],
                [vertex for item in boundary for vertex in item],
                int(result.weight),
            )
        outcome = (
            result,
            None if correction is None else sorted(correction),
            int(outcome.defect_count),
            [(key, int(value)) for key, value in sorted(outcome.counters.items())],
            int(outcome.scale_retries),
        )
    return _body(
        response.status,
        response.cached,
        response.queue_delay_seconds,
        response.latency_seconds,
        response.batch_size,
        response.error,
        outcome,
    )


def error_body(message: str) -> bytes:
    """The body of a request that failed outside a decoder (in a worker or
    the front end): :data:`~repro.service.request.STATUS_ERROR` with
    ``message`` as its error (any character UTF-8 cannot carry escaped)."""
    message = message.encode("utf-8", "backslashreplace").decode("utf-8")
    return _body(STATUS_ERROR, False, 0.0, 0.0, 0, message, None)


def _response_parts(members, batch: bool) -> list:
    if not batch:
        ((frame_id, body),) = members
        return [b"", _SINGLE_HEAD.pack(_MAGIC, _KIND_RESPONSE, frame_id), body]
    parts = [b"", _BATCH_HEAD.pack(_MAGIC, _KIND_RESPONSE_BATCH, len(members))]
    for frame_id, body in members:
        parts += (_I64.pack(frame_id), body)
    return parts


def encode_responses(members: list) -> bytes:
    """The frame carrying ``(frame id, body)`` pairs: a ``response`` for
    one, a ``response-batch`` for several (:class:`ProtocolError` past
    :data:`MAX_FRAME_BYTES`)."""
    return _framed(_response_parts(members, len(members) > 1))


# ---------------------------------------------------------------------------
# binary codec: readers (one per layout; struct.error means truncation)
# ---------------------------------------------------------------------------
def _read_blob(payload: bytes, offset: int) -> tuple[str, int]:
    (length,) = _U32.unpack_from(payload, offset)
    start = offset + 4
    end = start + length
    if end > len(payload):
        raise ProtocolError("truncated binary frame")
    try:
        return payload[start:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable blob: {exc}") from None


def _read_array(payload: bytes, offset: int, code: str, per_count: int) -> tuple[tuple, int]:
    (count,) = _U32.unpack_from(payload, offset)
    values = count * per_count
    offset += 4
    if offset + 4 * values > len(payload):
        raise ProtocolError("truncated binary frame")
    return struct.unpack_from(f"<{values}{code}", payload, offset), offset + 4 * values


def _syndrome_end(payload: bytes, offset: int) -> int:
    """End of the syndrome at ``offset``, after checking its tag and bounds."""
    tag, count = _TAG_COUNT.unpack_from(payload, offset)
    if tag > 7 or tag & 3 == 3:
        raise ProtocolError(f"bad syndrome tag {tag}")
    offset += 5 + 4 * count
    for _ in range(2 if tag & 4 else 1):
        (count,) = _U32.unpack_from(payload, offset)
        offset += 4 + 4 * count
    if offset > len(payload):
        raise ProtocolError("truncated binary frame")
    return offset


def syndrome_object(data: bytes) -> Syndrome:
    """The :class:`~repro.graphs.Syndrome` of a syndrome span that
    :func:`scan_requests` checked or :func:`syndrome_bytes` wrote."""
    tag, count = _TAG_COUNT.unpack_from(data)
    defects = struct.unpack_from(f"<{count}I", data, 5)
    error_edges, offset = _read_array(data, 5 + 4 * count, "I", 1)
    erasures = _read_array(data, offset, "I", 1)[0] if tag & 4 else ()
    return Syndrome(defects, error_edges, _FLIPS[tag & 3], erasures)


def scan_requests(payload: bytes) -> list[tuple]:
    """The :func:`request_member` tuples of a binary ``request`` or
    ``request-batch`` payload, each syndrome as its raw byte span.

    Every bound, syndrome tag and session index is checked, and blobs must
    be UTF-8; anything else raises :class:`ProtocolError`.  Session blobs
    are *not* parsed here: a member's blob is the shared text of its
    session-table entry, for :func:`~repro.service.intern_session`.
    """
    if binary_kind(payload) not in ("request", "request-batch"):
        raise ProtocolError("not a binary request frame")
    try:
        if payload[1] == _KIND_REQUEST:
            _, _, frame_id = _SINGLE_HEAD.unpack_from(payload)
            blob, start = _read_blob(payload, _SINGLE_HEAD.size)
            end = _syndrome_end(payload, start)
            (request_id,) = _I64.unpack_from(payload, end)
            return [(frame_id, blob, request_id, payload[start:end])]
        (n_sessions,) = _U16.unpack_from(payload, 2)
        offset, blobs = 4, []
        for _ in range(n_sessions):
            blob, offset = _read_blob(payload, offset)
            blobs.append(blob)
        (n_members,) = _U32.unpack_from(payload, offset)
        offset += 4
        members = []
        for _ in range(n_members):
            frame_id, index, request_id = _MEMBER_HEAD.unpack_from(payload, offset)
            if index >= n_sessions:
                raise ProtocolError(f"session index {index} out of table")
            start = offset + _MEMBER_HEAD.size
            offset = _syndrome_end(payload, start)
            members.append((frame_id, blobs[index], request_id, payload[start:offset]))
        return members
    except struct.error:
        raise ProtocolError("truncated binary frame") from None


def _read_outcome(payload: bytes, offset: int) -> tuple[tuple, int]:
    flags, defect_count, scale_retries = _OUTCOME_HEAD.unpack_from(payload, offset)
    offset += _OUTCOME_HEAD.size
    result = correction = None
    if flags & 1:
        pairs, offset = _read_array(payload, offset, "i", 2)
        boundary, offset = _read_array(payload, offset, "i", 2)
        (weight,) = _I64.unpack_from(payload, offset)
        offset += 8
        result = (pairs, boundary, weight)
    if flags & 2:
        correction, offset = _read_array(payload, offset, "I", 1)
    (n_counters,) = _U32.unpack_from(payload, offset)
    offset += 4
    counters = {}
    for _ in range(n_counters):
        key, offset = _read_blob(payload, offset)
        (counters[key],) = _I64.unpack_from(payload, offset)
        offset += 8
    return (result, correction, defect_count, counters, scale_retries), offset


def _outcome_object(result, correction, defect_count, counters, scale_retries) -> DecodeOutcome:
    if result is not None:
        pairs, boundary, weight = result
        result = MatchingResult(
            list(zip(pairs[::2], pairs[1::2])), dict(zip(boundary[::2], boundary[1::2])), weight
        )
    return DecodeOutcome(
        result,
        None if correction is None else set(correction),
        defect_count,
        Counter(counters),
        scale_retries,
    )


def _outcome_dict(result, correction, defect_count, counters, scale_retries) -> dict:
    if result is not None:
        pairs, boundary, weight = result
        result = {
            "pairs": [[u, v] for u, v in zip(pairs[::2], pairs[1::2])],
            "boundary_vertices": {str(u): v for u, v in zip(boundary[::2], boundary[1::2])},
            "weight": weight,
        }
    return {
        "result": result,
        "correction": None if correction is None else list(correction),
        "defect_count": defect_count,
        "counters": counters,
        "scale_retries": scale_retries,
    }


def _read_body(payload: bytes, offset: int, outcome_of) -> tuple[tuple, int]:
    status, offset = _read_blob(payload, offset)
    flags, queue_delay, latency, batch_size = _BODY_HEAD.unpack_from(payload, offset)
    offset += _BODY_HEAD.size
    error = outcome = None
    if flags & 4:
        error, offset = _read_blob(payload, offset)
    if flags & 2:
        fields, offset = _read_outcome(payload, offset)
        outcome = outcome_of(*fields)
    return (status, outcome, queue_delay, latency, batch_size, bool(flags & 1), error), offset


def _read_responses(payload: bytes, outcome_of) -> list[tuple]:
    try:
        if payload[1] == _KIND_RESPONSE:
            _, _, frame_id = _SINGLE_HEAD.unpack_from(payload)
            return [(frame_id, _read_body(payload, _SINGLE_HEAD.size, outcome_of)[0])]
        _, _, count = _BATCH_HEAD.unpack_from(payload)
        offset, members = _BATCH_HEAD.size, []
        for _ in range(count):
            (frame_id,) = _I64.unpack_from(payload, offset)
            fields, offset = _read_body(payload, offset + 8, outcome_of)
            members.append((frame_id, fields))
        return members
    except struct.error:
        raise ProtocolError("truncated binary frame") from None


def read_responses(payload: bytes) -> list[tuple]:
    """``(frame id, fields)`` per member of a binary ``response`` or
    ``response-batch`` payload, where ``fields`` are the
    :class:`~repro.service.DecodeResponse` arguments after ``request``
    (the outcome a plain :class:`~repro.api.DecodeOutcome`)."""
    return _read_responses(payload, _outcome_object)


def body_dict(body: bytes) -> dict:
    """The logical ``response`` dict of one binary body (no request echo)."""
    try:
        return dict(zip(_RESPONSE_FIELDS, _read_body(body, 0, _outcome_dict)[0]))
    except struct.error:
        raise ProtocolError("truncated binary frame") from None


# ---------------------------------------------------------------------------
# logical-dict adapters over the binary writers and readers
# ---------------------------------------------------------------------------
def _body_from_dict(payload: dict) -> bytes:
    outcome, error = payload.get("outcome"), payload.get("error")
    if outcome is not None:
        result, correction = outcome.get("result"), outcome.get("correction")
        if result is not None:
            boundary = result.get("boundary_vertices", {})
            result = (
                [x for u, v in result.get("pairs", ()) for x in (int(u), int(v))],
                [x for key in sorted(boundary, key=int) for x in (int(key), int(boundary[key]))],
                int(result.get("weight", 0)),
            )
        counters = outcome.get("counters", {})
        outcome = (
            result,
            correction,
            int(outcome.get("defect_count", 0)),
            [(key, int(counters[key])) for key in sorted(counters)],
            int(outcome.get("scale_retries", 0)),
        )
    return _body(
        str(payload.get("status", "ok")),
        payload.get("cached"),
        float(payload.get("queue_delay_seconds", 0.0)),
        float(payload.get("latency_seconds", 0.0)),
        int(payload.get("batch_size", 0)),
        None if error is None else str(error),
        outcome,
    )


def _member_from_dict(frame_id, request: dict) -> tuple:
    return (
        frame_id,
        session_blob(request["session"]),
        request.get("request_id", 0),
        pack_syndrome(request["syndrome"]),
    )


def _encode_binary(frame: dict) -> list | None:
    """Binary payload parts of ``frame``, or ``None`` for the JSON fallback.

    Only the hot kinds have binary layouts; a frame a layout cannot
    represent (out-of-range integers, a null id, non-numeric defects)
    falls back to codec 1 rather than failing — both codecs carry the
    same logical frame, so the receiver cannot tell the difference.
    """
    kind = frame.get("kind")
    try:
        if kind == "request":
            return _request_parts([_member_from_dict(frame["id"], frame["request"])], False)
        if kind == "request-batch":
            members = [_member_from_dict(m["id"], m["request"]) for m in frame["requests"]]
            return _request_parts(members, True)
        if kind == "response":
            return _response_parts([(frame["id"], _body_from_dict(frame["response"]))], False)
        if kind == "response-batch":
            members = [(m["id"], _body_from_dict(m["response"])) for m in frame["responses"]]
            return _response_parts(members, True)
    except (KeyError, TypeError, ValueError, OverflowError, struct.error):
        return None
    return None


def _parse_session_blob(blob: str) -> SessionWire:
    try:
        session = json.loads(blob)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable session blob: {exc}") from None
    if not isinstance(session, dict):
        raise ProtocolError("session blob is not an object")
    return SessionWire(session, blob)


def _decode_binary(payload: bytes, kind: str) -> dict:
    if kind in ("request", "request-batch"):
        sessions: dict[str, SessionWire] = {}  # one per table entry, shared
        members = []
        for frame_id, blob, request_id, syndrome in scan_requests(payload):
            session = sessions.get(blob)
            if session is None:
                session = sessions[blob] = _parse_session_blob(blob)
            request = {
                "session": session,
                "syndrome": syndrome_object(syndrome).to_dict(),
                "request_id": request_id,
            }
            members.append({"id": frame_id, "request": request})
        if kind == "request":
            return {"kind": kind, **members[0]}
        return {"kind": kind, "requests": members}
    members = [
        {"id": frame_id, "response": dict(zip(_RESPONSE_FIELDS, fields))}
        for frame_id, fields in _read_responses(payload, _outcome_dict)
    ]
    if kind == "response":
        return {"kind": kind, **members[0]}
    return {"kind": kind, "responses": members}


# ---------------------------------------------------------------------------
# framing (codec-agnostic)
# ---------------------------------------------------------------------------
def encode_frame(frame: dict, codec: int = CODEC_JSON) -> bytes:
    """Length-prefixed bytes of one frame in the given payload codec.

    Codec 2 applies to the hot kinds only; everything else (and any frame
    the binary layouts cannot represent) is emitted as canonical JSON —
    the receiver sniffs the payload codec per frame.
    """
    parts = _encode_binary(frame) if codec >= CODEC_BINARY else None
    if parts is None:
        parts = [b"", canonical_json(frame).encode("utf-8")]
    return _framed(parts)


def decode_payload(payload: bytes) -> dict:
    """Parse one frame payload (either codec) into its logical frame dict."""
    kind = binary_kind(payload)
    if kind is not None:
        return _decode_binary(payload, kind)
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(frame, dict) or "kind" not in frame:
        raise ProtocolError("frame is not an object with a 'kind'")
    return frame


def check_version(frame: dict) -> None:
    """Reject a handshake frame of any other protocol version."""
    version = frame.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )


# ---------------------------------------------------------------------------
# blocking-socket framing (synchronous client)
# ---------------------------------------------------------------------------
def write_frame_sync(sock: socket.socket, frame: dict, codec: int = CODEC_JSON) -> None:
    """Send one frame over a blocking socket."""
    sock.sendall(encode_frame(frame, codec))


def _recv_exact(sock: socket.socket, count: int, *, eof_ok: bool = False) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on clean EOF when ``eof_ok``.

    EOF after a partial read is always a mid-frame connection loss.
    """
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_payload_sync(sock: socket.socket) -> bytes:
    """Read one frame's raw payload bytes (raises ConnectionError on EOF)."""
    header = _recv_exact(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        raise ConnectionError("connection closed")
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    payload = _recv_exact(sock, length)
    assert payload is not None  # eof_ok=False never returns None
    return payload


def read_frame_sync(sock: socket.socket) -> dict:
    """Read one frame from a blocking socket (raises ConnectionError on EOF)."""
    return decode_payload(read_payload_sync(sock))


# ---------------------------------------------------------------------------
# asyncio framing (server)
# ---------------------------------------------------------------------------
async def read_payload(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame's raw payload; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ConnectionError("connection closed mid-frame") from None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ConnectionError("connection closed mid-frame") from None


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    payload = await read_payload(reader)
    return None if payload is None else decode_payload(payload)


def write_frame(writer: asyncio.StreamWriter, frame: dict, codec: int = CODEC_JSON) -> None:
    """Queue one frame on an asyncio writer (call from the loop thread)."""
    writer.write(encode_frame(frame, codec))
