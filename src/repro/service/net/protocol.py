"""The length-prefixed wire protocol of the network service (codecs v1/v2).

One frame = a 4-byte big-endian payload length followed by the payload.  Two
payload codecs share that framing:

* **Codec 1 (JSON)** — canonical JSON (:func:`repro.api.hashing.canonical_json`:
  sorted keys, no whitespace), the same canonical form the content hashes
  use, so a frame's bytes are a pure function of its logical content.  Every
  frame kind rides this codec, and control frames (handshake, errors,
  drain, streams) ride nothing else.  :func:`encode_frame` writes it and
  :func:`decode_payload` reads it.
* **Codec 2 (binary)** — a struct-packed little-endian format for the four
  hot kinds only (``request``/``response`` and their batch forms).  The
  first payload byte is the magic ``0xB2`` — an impossible first byte of a
  JSON object (``{`` = ``0x7B``) — so a receiver tells the codecs apart per
  frame.  Defect/edge indices travel as packed ``uint32`` arrays instead of
  JSON int lists, batch frames deduplicate the per-request session into a
  shared session table, and binary ``response`` frames omit the request
  echo (the client holds the request).

The codec is negotiated at the handshake: the client's ``hello`` carries the
codec list it speaks (``"codecs": [2, 1]``; absent means a v1-only client),
the server answers with the chosen ``"codec"`` in its ``welcome``.  Binary
frames are only valid on a connection that negotiated codec 2; there a peer
may still send a hot frame as JSON (:class:`~repro.service.net.NetClient`
does for a ``request_id`` outside int64), and the server answers a JSON
request in JSON, without the echo.  :data:`PROTOCOL_VERSION` stays 1:
codec 2 is a negotiated capability, not an incompatible envelope change.

Frame kinds (* = binary-capable; ← = server to client):

* ``hello`` ``{version, client, codecs}`` (no ``codecs`` = JSON-only peer);
  ← ``welcome`` ``{version, workers, config_hash, codec, coalesce}``: the
  server's :class:`repro.service.ServiceConfig` hash, the negotiated codec
  and the suggested client-side coalescing knobs.
* ``request`` * ``{id, request}`` (:meth:`repro.service.DecodeRequest.to_dict`);
  ← ``response`` * ``{id, response}`` (a response embeds the request echo
  on a codec-1 connection only).  ``request-batch`` * ``{requests: [{id,
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

Each layout has one writer and one reader, both over objects, with no
dict in between.  A request member is the tuple ``(frame id, session
blob, request id, syndrome bytes)``: :func:`request_member` builds it from
a :class:`~repro.service.DecodeRequest`, :func:`encode_requests` frames
members, and :func:`scan_requests` checks a binary request frame and hands
its members back with each syndrome as its raw byte span, which the front
end forwards to a worker unparsed (:func:`syndrome_object` reads one).
The worker writes each answer's body once (:func:`response_body`); the
front end splices ``(frame id, body)`` pairs into frames
(:func:`encode_responses`), and the client reads them straight into
:class:`~repro.service.DecodeResponse` fields (:func:`read_responses`).
:func:`body_dict` reads a body back for a JSON answer.

Readers of a byte stream — the server's event loop and the client's I/O
thread — split it into frames with :func:`pop_frames`; blocking-socket
helpers serve the client's handshake.
"""

from __future__ import annotations

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
#: connection.
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
#: canonical-JSON payload (objects start with ``{``), so a receiver tells
#: the codecs apart per frame.
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


def negotiate_codec(offered) -> int:
    """The best codec of ``offered`` both sides speak.

    ``offered`` is the ``codecs`` list of a ``hello`` frame; ``None`` or
    empty means a legacy JSON-only peer, and anything else that is not a
    list is a :class:`ProtocolError`.  Codec 1 is the implicit floor —
    every peer speaks it by construction.

    >>> negotiate_codec([2, 1])
    2
    >>> negotiate_codec(None)
    1
    """
    if offered is None:
        return CODEC_JSON
    if not isinstance(offered, list):
        raise ProtocolError(f"hello codecs must be a list, got {type(offered).__name__}")
    best = CODEC_JSON
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
#: Short blobs (status strings, counter keys) are memoised both ways: each
#: is encoded and decoded once per process, not once per response body.
_MEMO_LENGTH, _MEMO_ENTRIES = 64, 1024
_BLOBS: dict[str, bytes] = {}
_TEXTS: dict[bytes, str] = {}


def _blob(text: str) -> bytes:
    blob = _BLOBS.get(text)
    if blob is None:
        data = text.encode("utf-8")
        blob = _U32.pack(len(data)) + data
        if len(data) <= _MEMO_LENGTH and len(_BLOBS) < _MEMO_ENTRIES:
            _BLOBS[text] = blob
    return blob


def _u32s(values) -> bytes:
    return struct.pack(f"<I{len(values)}I", len(values), *values)


def _i32_pairs(flat) -> bytes:
    return struct.pack(f"<I{len(flat)}i", len(flat) // 2, *flat)


def syndrome_bytes(defects, error_edges, logical_flip, erasures) -> bytes:
    """The binary syndrome layout of these :class:`~repro.graphs.Syndrome`
    fields.  Indices must be integers in ``[0, 2**32)``; anything else
    (a float, a negative or oversized index) raises ``ValueError``."""
    tag = 0 if logical_flip is None else (2 if logical_flip else 1)
    n, m = len(defects), len(error_edges)
    try:
        if erasures:
            return bytes((tag | 4,)) + _u32s(defects) + _u32s(error_edges) + _u32s(erasures)
        return struct.pack(f"<BI{n}II{m}I", tag, n, *defects, m, *error_edges)
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
    for key in sorted(counters):
        parts += (_blob(key), _I64.pack(counters[key]))


def _body(status, cached, queue_delay, latency, batch_size, error, outcome) -> bytes:
    """The body layout; ``outcome`` is ``None`` or the :func:`_outcome_parts`
    fields: flat ``(u, v)`` pairs, boundary items sorted by vertex, and the
    counters as a mapping of integer counts (written sorted by key)."""
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
            outcome.counters,
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
    data = payload[start:end]
    text = _TEXTS.get(data)
    if text is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable blob: {exc}") from None
        if length <= _MEMO_LENGTH and len(_TEXTS) < _MEMO_ENTRIES:
            _TEXTS[data] = text
    return text, end


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
    (count,) = _U32.unpack_from(payload, offset)
    offset += 4 + 4 * count
    if tag & 4:
        (count,) = _U32.unpack_from(payload, offset)
        offset += 4 + 4 * count
    if offset > len(payload):
        raise ProtocolError("truncated binary frame")
    return offset


def syndrome_object(data: bytes) -> Syndrome:
    """The :class:`~repro.graphs.Syndrome` of a syndrome span that
    :func:`scan_requests` checked or :func:`syndrome_bytes` wrote."""
    tag, count = _TAG_COUNT.unpack_from(data)
    offset = 5 + 4 * count
    (edges,) = _U32.unpack_from(data, offset)
    # Built as the sampler builds syndromes, without the frozen __init__'s
    # object.__setattr__ per field; a missing ``erasures`` reads the default.
    syndrome = object.__new__(Syndrome)
    fields = syndrome.__dict__
    fields["defects"] = struct.unpack_from(f"<{count}I", data, 5)
    fields["error_edges"] = struct.unpack_from(f"<{edges}I", data, offset + 4)
    fields["logical_flip"] = _FLIPS[tag & 3]
    if tag & 4:
        fields["erasures"] = _read_array(data, offset + 4 + 4 * edges, "I", 1)[0]
    return syndrome


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
    # A Counter holds no state beyond its dict: skip its pure-Python
    # __init__/update, as repro.lut.clone_outcome does.
    counter = Counter.__new__(Counter)
    dict.update(counter, counters)
    correction = None if correction is None else set(correction)
    return DecodeOutcome(result, correction, defect_count, counter, scale_retries)


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


def read_responses(payload: bytes) -> list[tuple]:
    """``(frame id, fields)`` per member of a binary ``response`` or
    ``response-batch`` payload, where ``fields`` are the
    :class:`~repro.service.DecodeResponse` arguments after ``request``
    (the outcome a plain :class:`~repro.api.DecodeOutcome`)."""
    try:
        if payload[1] == _KIND_RESPONSE:
            _, _, frame_id = _SINGLE_HEAD.unpack_from(payload)
            return [(frame_id, _read_body(payload, _SINGLE_HEAD.size, _outcome_object)[0])]
        _, _, count = _BATCH_HEAD.unpack_from(payload)
        offset, members = _BATCH_HEAD.size, []
        for _ in range(count):
            (frame_id,) = _I64.unpack_from(payload, offset)
            fields, offset = _read_body(payload, offset + 8, _outcome_object)
            members.append((frame_id, fields))
        return members
    except struct.error:
        raise ProtocolError("truncated binary frame") from None


def body_dict(body: bytes) -> dict:
    """The logical ``response`` dict of one binary body (no request echo)."""
    try:
        return dict(zip(_RESPONSE_FIELDS, _read_body(body, 0, _outcome_dict)[0]))
    except struct.error:
        raise ProtocolError("truncated binary frame") from None


# ---------------------------------------------------------------------------
# codec 1: canonical JSON frames
# ---------------------------------------------------------------------------
def encode_frame(frame: dict) -> bytes:
    """Length-prefixed canonical-JSON bytes of one frame (codec 1)."""
    return _framed([b"", canonical_json(frame).encode("utf-8")])


def decode_payload(payload: bytes) -> dict:
    """Parse one canonical-JSON frame payload into its frame dict.

    A binary payload is refused here: it has exactly one reader per
    layout (:func:`scan_requests`, :func:`read_responses`).
    """
    kind = binary_kind(payload)
    if kind is not None:
        raise ProtocolError(f"unexpected binary {kind} frame")
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
def write_frame_sync(sock: socket.socket, frame: dict) -> None:
    """Send one JSON frame over a blocking socket."""
    sock.sendall(encode_frame(frame))


def _recv_exact(sock: socket.socket, count: int, at_eof: str) -> bytes:
    """Read exactly ``count`` bytes; ``ConnectionError(at_eof)`` on EOF
    before the first byte, a mid-frame one after it."""
    data = bytearray()
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ConnectionError("connection closed mid-frame" if data else at_eof)
        data += chunk
    return bytes(data)


def pop_frames(buffer: bytearray, limit: int | None = MAX_FRAME_BYTES) -> list[bytes]:
    """Remove every complete frame from the front of ``buffer`` and return
    their payloads; a partial frame stays for the next read.  A length
    prefix over ``limit`` raises :class:`ProtocolError` once the frames
    before it have been returned.

    >>> buffer = bytearray(encode_frame({"kind": "bye"}) + b"\\0\\0")
    >>> pop_frames(buffer), buffer
    ([b'{"kind":"bye"}'], bytearray(b'\\x00\\x00'))
    """
    frames, offset, size = [], 0, len(buffer)
    while size - offset >= _LENGTH.size:
        (length,) = _LENGTH.unpack_from(buffer, offset)
        if limit is not None and length > limit:
            if frames:
                break
            raise ProtocolError(f"frame of {length} bytes exceeds {limit}")
        end = offset + _LENGTH.size + length
        if end > size:
            break
        frames.append(bytes(buffer[offset + _LENGTH.size : end]))
        offset = end
    del buffer[:offset]
    return frames


def read_frame_sync(sock: socket.socket) -> dict:
    """Read one frame from a blocking socket (raises ConnectionError on EOF)."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size, "connection closed"))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    return decode_payload(_recv_exact(sock, length, "connection closed mid-frame"))
