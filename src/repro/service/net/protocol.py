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

Frame kinds (client → server unless noted; * = binary-capable):

========================  ====================================================
``hello``                 Opens a connection: ``{kind, version, client,
                          codecs}`` (``codecs`` absent = JSON-only peer).
``welcome``               (server) Handshake reply: ``{kind, version,
                          workers, config_hash, codec, coalesce}`` — the
                          hash of the server's
                          :class:`repro.service.ServiceConfig`, the
                          negotiated codec, and the server's suggested
                          client-side coalescing knobs.
``request`` *             One decode request: ``{kind, id, request}`` where
                          ``request`` is
                          :meth:`repro.service.DecodeRequest.to_dict`.
``response`` *            (server) The answer: ``{kind, id, response}``.
                          Codec-1 responses embed the request echo; binary
                          responses never do.
``request-batch`` *       N requests in one frame: ``{kind, requests:
                          [{id, request}, ...]}``.
``response-batch`` *      (server) N answers in one frame: ``{kind,
                          responses: [{id, response}, ...]}``.
``stream-open``           Open a streaming session: ``{kind, id, stream,
                          session, window, commit_depth}``.
``stream-op``             One stream operation: ``{kind, id, stream, op,
                          payload}`` with ``op`` ∈ begin/push/finalize.
``stream-reply``          (server) Stream result: ``{kind, id, result}``.
``error``                 (server) Protocol-level failure: ``{kind, id,
                          error}`` (``id`` null for connection-level errors).
``drain``                 (server) The server is draining: already-admitted
                          work will still be answered, new work will not.
``bye``                   Client is closing the connection.
========================  ====================================================

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

The module offers both blocking-socket helpers (the synchronous client) and
``asyncio`` stream helpers (the server) over the identical byte format.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

from ...api.hashing import canonical_json

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

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_I32_PAIR = struct.Struct("<ii")
_SINGLE_HEAD = struct.Struct("<BBq")  # magic, kind tag, frame id


class ProtocolError(RuntimeError):
    """A malformed, oversized, or version-incompatible frame."""


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


# ---------------------------------------------------------------------------
# binary codec: encoders
# ---------------------------------------------------------------------------
def _put_blob(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    out += _U32.pack(len(data))
    out += data


def _put_u32_array(out: bytearray, values) -> None:
    values = [int(v) for v in values]
    out += _U32.pack(len(values))
    out += struct.pack(f"<{len(values)}I", *values)


def _put_syndrome(out: bytearray, syndrome: dict) -> None:
    flip = syndrome.get("logical_flip")
    erasures = syndrome.get("erasures")
    out += _U8.pack((0 if flip is None else (2 if flip else 1)) | (4 if erasures else 0))
    _put_u32_array(out, syndrome.get("defects", ()))
    _put_u32_array(out, syndrome.get("error_edges", ()))
    if erasures:
        _put_u32_array(out, erasures)


def _put_outcome(out: bytearray, outcome: dict) -> None:
    result = outcome.get("result")
    correction = outcome.get("correction")
    out += _U8.pack((1 if result is not None else 0) | (2 if correction is not None else 0))
    out += _U32.pack(int(outcome.get("defect_count", 0)))
    out += _U32.pack(int(outcome.get("scale_retries", 0)))
    if result is not None:
        pairs = result.get("pairs", ())
        out += _U32.pack(len(pairs))
        for u, v in pairs:
            out += _I32_PAIR.pack(int(u), int(v))
        boundary = result.get("boundary_vertices", {})
        out += _U32.pack(len(boundary))
        for defect in sorted(boundary, key=int):
            out += _I32_PAIR.pack(int(defect), int(boundary[defect]))
        out += _I64.pack(int(result.get("weight", 0)))
    if correction is not None:
        _put_u32_array(out, correction)
    counters = outcome.get("counters", {})
    out += _U32.pack(len(counters))
    for key in sorted(counters):
        _put_blob(out, key)
        out += _I64.pack(int(counters[key]))


def _put_response_body(out: bytearray, payload: dict) -> None:
    _put_blob(out, str(payload.get("status", "ok")))
    outcome = payload.get("outcome")
    error = payload.get("error")
    out += _U8.pack(
        (1 if payload.get("cached") else 0)
        | (2 if outcome is not None else 0)
        | (4 if error is not None else 0)
    )
    out += _F64.pack(float(payload.get("queue_delay_seconds", 0.0)))
    out += _F64.pack(float(payload.get("latency_seconds", 0.0)))
    out += _U32.pack(int(payload.get("batch_size", 0)))
    if error is not None:
        _put_blob(out, str(error))
    if outcome is not None:
        _put_outcome(out, outcome)


def _encode_request(frame: dict) -> bytes:
    request = frame["request"]
    out = bytearray(_SINGLE_HEAD.pack(_MAGIC, _KIND_REQUEST, int(frame["id"])))
    _put_blob(out, canonical_json(request["session"]))
    _put_syndrome(out, request["syndrome"])
    out += _I64.pack(int(request.get("request_id", 0)))
    return bytes(out)


def _encode_response(frame: dict) -> bytes:
    out = bytearray(_SINGLE_HEAD.pack(_MAGIC, _KIND_RESPONSE, int(frame["id"])))
    _put_response_body(out, frame["response"])
    return bytes(out)


def _encode_request_batch(frame: dict) -> bytes:
    members = frame["requests"]
    sessions: list[str] = []
    index_of: dict[str, int] = {}
    # Two-level dedupe: object identity first (free — a batch built from one
    # client's requests shares session dict objects), canonical content
    # second, so the per-member cost is struct packs, not JSON encodes.
    index_by_identity: dict[int, int] = {}
    encoded_members = bytearray()
    for member in members:
        request = member["request"]
        session = request["session"]
        index = index_by_identity.get(id(session))
        if index is None:
            blob = canonical_json(session)
            index = index_of.get(blob)
            if index is None:
                index = len(sessions)
                if index > 0xFFFF:
                    raise ValueError("too many distinct sessions for one batch frame")
                index_of[blob] = index
                sessions.append(blob)
            index_by_identity[id(session)] = index
        encoded_members += _I64.pack(int(member["id"]))
        encoded_members += _U16.pack(index)
        encoded_members += _I64.pack(int(request.get("request_id", 0)))
        _put_syndrome(encoded_members, request["syndrome"])
    out = bytearray((_MAGIC, _KIND_REQUEST_BATCH))
    out += _U16.pack(len(sessions))
    for blob in sessions:
        _put_blob(out, blob)
    out += _U32.pack(len(members))
    out += encoded_members
    return bytes(out)


def _encode_response_batch(frame: dict) -> bytes:
    members = frame["responses"]
    out = bytearray((_MAGIC, _KIND_RESPONSE_BATCH))
    out += _U32.pack(len(members))
    for member in members:
        out += _I64.pack(int(member["id"]))
        _put_response_body(out, member["response"])
    return bytes(out)


_BINARY_ENCODERS = {
    "request": _encode_request,
    "response": _encode_response,
    "request-batch": _encode_request_batch,
    "response-batch": _encode_response_batch,
}


def _encode_binary(frame: dict) -> bytes | None:
    """Binary payload of ``frame``, or ``None`` for the JSON fallback.

    Only the hot kinds have binary layouts; a frame a layout cannot
    represent (out-of-range integers, a null id, non-numeric defects)
    falls back to codec 1 rather than failing — both codecs carry the
    same logical frame, so the receiver cannot tell the difference.
    """
    encoder = _BINARY_ENCODERS.get(frame.get("kind"))
    if encoder is None:
        return None
    try:
        return encoder(frame)
    except (KeyError, TypeError, ValueError, OverflowError, struct.error):
        return None


# ---------------------------------------------------------------------------
# binary codec: decoders
# ---------------------------------------------------------------------------
class _Reader:
    """Bounds-checked cursor over one binary payload."""

    __slots__ = ("payload", "offset")

    def __init__(self, payload: bytes) -> None:
        self.payload = payload
        self.offset = 0

    def unpack(self, spec: struct.Struct):
        try:
            values = spec.unpack_from(self.payload, self.offset)
        except struct.error:
            raise ProtocolError("truncated binary frame") from None
        self.offset += spec.size
        return values

    def blob(self) -> str:
        (length,) = self.unpack(_U32)
        end = self.offset + length
        if end > len(self.payload):
            raise ProtocolError("truncated binary frame")
        data = self.payload[self.offset : end]
        self.offset = end
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable blob: {exc}") from None

    def u32_array(self) -> list[int]:
        (count,) = self.unpack(_U32)
        if count * 4 > len(self.payload) - self.offset:
            raise ProtocolError("truncated binary frame")
        values = list(struct.unpack_from(f"<{count}I", self.payload, self.offset))
        self.offset += count * 4
        return values


def _read_syndrome(reader: _Reader) -> dict:
    (tag,) = reader.unpack(_U8)
    flip = tag & 3
    if tag > 7 or flip == 3:
        raise ProtocolError(f"bad syndrome tag {tag}")
    syndrome = {
        "defects": reader.u32_array(),
        "error_edges": reader.u32_array(),
        "logical_flip": None if flip == 0 else flip == 2,
    }
    if tag & 4:
        syndrome["erasures"] = reader.u32_array()
    return syndrome


def _read_outcome(reader: _Reader) -> dict:
    (flags,) = reader.unpack(_U8)
    (defect_count,) = reader.unpack(_U32)
    (scale_retries,) = reader.unpack(_U32)
    result = None
    if flags & 1:
        (n_pairs,) = reader.unpack(_U32)
        pairs = [list(reader.unpack(_I32_PAIR)) for _ in range(n_pairs)]
        (n_boundary,) = reader.unpack(_U32)
        boundary = {}
        for _ in range(n_boundary):
            defect, virtual = reader.unpack(_I32_PAIR)
            boundary[str(defect)] = virtual
        (weight,) = reader.unpack(_I64)
        result = {"pairs": pairs, "boundary_vertices": boundary, "weight": weight}
    correction = reader.u32_array() if flags & 2 else None
    (n_counters,) = reader.unpack(_U32)
    counters = {}
    for _ in range(n_counters):
        key = reader.blob()
        (value,) = reader.unpack(_I64)
        counters[key] = value
    return {
        "result": result,
        "correction": correction,
        "defect_count": defect_count,
        "counters": counters,
        "scale_retries": scale_retries,
    }


def _read_response_body(reader: _Reader) -> dict:
    status = reader.blob()
    (flags,) = reader.unpack(_U8)
    (queue_delay,) = reader.unpack(_F64)
    (latency,) = reader.unpack(_F64)
    (batch_size,) = reader.unpack(_U32)
    error = reader.blob() if flags & 4 else None
    outcome = _read_outcome(reader) if flags & 2 else None
    return {
        "status": status,
        "outcome": outcome,
        "queue_delay_seconds": queue_delay,
        "latency_seconds": latency,
        "batch_size": batch_size,
        "cached": bool(flags & 1),
        "error": error,
    }


def _parse_session_blob(blob: str) -> dict:
    try:
        session = json.loads(blob)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable session blob: {exc}") from None
    if not isinstance(session, dict):
        raise ProtocolError("session blob is not an object")
    return session


def _decode_binary(payload: bytes) -> dict:
    reader = _Reader(payload)
    if len(payload) < 2:
        raise ProtocolError("truncated binary frame")
    kind = payload[1]
    if kind in (_KIND_REQUEST, _KIND_RESPONSE):
        _, _, frame_id = reader.unpack(_SINGLE_HEAD)
        if kind == _KIND_REQUEST:
            session = _parse_session_blob(reader.blob())
            syndrome = _read_syndrome(reader)
            (request_id,) = reader.unpack(_I64)
            return {
                "kind": "request",
                "id": frame_id,
                "request": {
                    "session": session,
                    "syndrome": syndrome,
                    "request_id": request_id,
                },
            }
        return {"kind": "response", "id": frame_id, "response": _read_response_body(reader)}
    if kind == _KIND_REQUEST_BATCH:
        reader.offset = 2
        (n_sessions,) = reader.unpack(_U16)
        # One parsed dict per table entry, shared by reference across the
        # members that cite it — downstream per-session memoisation (the
        # server's key-hash cache) keys on object identity.
        sessions = [_parse_session_blob(reader.blob()) for _ in range(n_sessions)]
        (n_members,) = reader.unpack(_U32)
        members = []
        for _ in range(n_members):
            (frame_id,) = reader.unpack(_I64)
            (session_index,) = reader.unpack(_U16)
            if session_index >= n_sessions:
                raise ProtocolError(f"session index {session_index} out of table")
            (request_id,) = reader.unpack(_I64)
            syndrome = _read_syndrome(reader)
            members.append(
                {
                    "id": frame_id,
                    "request": {
                        "session": sessions[session_index],
                        "syndrome": syndrome,
                        "request_id": request_id,
                    },
                }
            )
        return {"kind": "request-batch", "requests": members}
    if kind == _KIND_RESPONSE_BATCH:
        reader.offset = 2
        (n_members,) = reader.unpack(_U32)
        members = []
        for _ in range(n_members):
            (frame_id,) = reader.unpack(_I64)
            members.append({"id": frame_id, "response": _read_response_body(reader)})
        return {"kind": "response-batch", "responses": members}
    raise ProtocolError(f"unknown binary frame kind 0x{kind:02x}")


# ---------------------------------------------------------------------------
# framing (codec-agnostic)
# ---------------------------------------------------------------------------
def encode_frame(frame: dict, codec: int = CODEC_JSON) -> bytes:
    """Length-prefixed bytes of one frame in the given payload codec.

    Codec 2 applies to the hot kinds only; everything else (and any frame
    the binary layouts cannot represent) is emitted as canonical JSON —
    the receiver sniffs the payload codec per frame.
    """
    payload = _encode_binary(frame) if codec >= CODEC_BINARY else None
    if payload is None:
        payload = canonical_json(frame).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> dict:
    """Parse one frame payload (either codec) into its logical frame dict."""
    if payload[:1] == b"\xb2":
        return _decode_binary(payload)
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
async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
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
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ConnectionError("connection closed mid-frame") from None
    return decode_payload(payload)


def write_frame(writer: asyncio.StreamWriter, frame: dict, codec: int = CODEC_JSON) -> None:
    """Queue one frame on an asyncio writer (call from the loop thread)."""
    writer.write(encode_frame(frame, codec))
