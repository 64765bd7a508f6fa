"""Wire-codec round-trips and golden pins for the service request types.

The network protocol's frames carry exactly what ``to_dict`` emits, hashed
and framed as canonical JSON — so these dict forms ARE the wire format.  The
golden pins below freeze them: any change to a pinned string is a protocol
break that needs a :data:`repro.service.net.PROTOCOL_VERSION` bump, not a
silent reshuffle.  The binary codec (codec 2) has its own byte-level pins
plus hypothesis round-trip properties over both codecs, and hostile bytes
(raw, mutated encodings, deep nesting) must decode to a frame or raise
:class:`~repro.service.net.ProtocolError`, nothing else.
"""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.config import UnionFindConfig
from repro.api.hashing import canonical_json
from repro.graphs.syndrome import Syndrome
from repro.service import CodeSpec, DecodeRequest, DecodeResponse, SessionKey
from repro.service.net.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    PROTOCOL_VERSION,
    SUPPORTED_CODECS,
    ProtocolError,
    decode_payload,
    encode_frame,
    negotiate_codec,
)


def _key() -> SessionKey:
    return SessionKey(CodeSpec(3, physical_error_rate=0.02), "union-find")


def _request() -> DecodeRequest:
    return DecodeRequest(
        session=_key(),
        syndrome=Syndrome(defects=(1, 4), logical_flip=False),
        request_id=7,
    )


def _erased_request() -> DecodeRequest:
    return DecodeRequest(
        session=_key(),
        syndrome=Syndrome(defects=(1, 4), logical_flip=False, erasures=(0, 9)),
        request_id=7,
    )


class TestGoldenPins:
    """Frozen canonical-JSON wire forms.  A failing pin = a wire break."""

    def test_code_spec_pin(self):
        assert canonical_json(CodeSpec(3, physical_error_rate=0.02).to_dict()) == (
            '{"distance":3,"noise":"circuit_level","physical_error_rate":0.02,'
            '"rounds":null}'
        )

    def test_session_key_pin(self):
        assert canonical_json(_key().to_dict()) == (
            '{"code":{"distance":3,"noise":"circuit_level",'
            '"physical_error_rate":0.02,"rounds":null},'
            '"config":{"fields":{},"type":"UnionFindConfig"},'
            '"decoder":"union-find"}'
        )

    def test_syndrome_pin(self):
        assert canonical_json(Syndrome(defects=(1, 4), logical_flip=False).to_dict()) == (
            '{"defects":[1,4],"error_edges":[],"logical_flip":false}'
        )

    def test_request_pin(self):
        assert canonical_json(_request().to_dict()) == (
            '{"request_id":7,"session":{"code":{"distance":3,'
            '"noise":"circuit_level","physical_error_rate":0.02,"rounds":null},'
            '"config":{"fields":{},"type":"UnionFindConfig"},'
            '"decoder":"union-find"},'
            '"syndrome":{"defects":[1,4],"error_edges":[],"logical_flip":false}}'
        )

    def test_session_key_hash_pin(self):
        # Routing depends on this hash: moving it re-routes every session.
        assert _key().key_hash() == "09247a96af1cf97c"

    def test_protocol_version_pin(self):
        assert PROTOCOL_VERSION == 1


class TestRoundTrips:
    def test_code_spec(self):
        spec = CodeSpec(5, noise="phenomenological", physical_error_rate=0.01, rounds=3)
        assert CodeSpec.from_dict(spec.to_dict()) == spec

    def test_session_key(self):
        key = SessionKey(
            CodeSpec(3, physical_error_rate=0.02),
            "union-find",
            UnionFindConfig(),
        )
        rebuilt = SessionKey.from_dict(key.to_dict())
        assert rebuilt.key() == key.key()
        assert rebuilt.key_hash() == key.key_hash()

    def test_session_key_null_config_uses_registry_default(self):
        wire = _key().to_dict()
        wire["config"] = None
        assert SessionKey.from_dict(wire).key() == _key().key()

    def test_syndrome(self):
        syndrome = Syndrome(defects=(0, 3, 9), error_edges=(2,), logical_flip=True)
        rebuilt = Syndrome.from_dict(syndrome.to_dict())
        assert rebuilt.defects == syndrome.defects
        assert rebuilt.error_edges == syndrome.error_edges
        assert rebuilt.logical_flip is True

    def test_request(self):
        request = _request()
        rebuilt = DecodeRequest.from_dict(request.to_dict())
        assert rebuilt.session.key() == request.session.key()
        assert rebuilt.syndrome.defects == request.syndrome.defects
        assert rebuilt.request_id == 7

    def test_response_roundtrip_carries_outcome(self):
        from repro.api.registry import get_decoder

        request = _request()
        graph = request.session.code.build_graph()
        outcome = get_decoder("union-find", graph).decode_detailed(request.syndrome)
        response = DecodeResponse(
            request=request,
            status="ok",
            outcome=outcome,
            queue_delay_seconds=0.25,
            latency_seconds=0.5,
            batch_size=3,
            cached=True,
        )
        rebuilt = DecodeResponse.from_dict(response.to_dict())
        assert rebuilt.status == "ok"
        assert rebuilt.cached is True
        assert rebuilt.batch_size == 3
        assert rebuilt.queue_delay_seconds == 0.25
        assert rebuilt.outcome.correction_edges(graph) == outcome.correction_edges(graph)
        assert rebuilt.outcome.weight == outcome.weight
        assert rebuilt.request.session.key() == request.session.key()

    def test_error_response_roundtrip(self):
        response = DecodeResponse(
            request=_request(), status="error", error="PoisonedSyndromeError: boom"
        )
        rebuilt = DecodeResponse.from_dict(response.to_dict())
        assert rebuilt.status == "error"
        assert rebuilt.outcome is None
        assert rebuilt.error == "PoisonedSyndromeError: boom"


class TestFraming:
    def test_frame_roundtrip(self):
        frame = {"kind": "request", "id": 3, "request": _request().to_dict()}
        encoded = encode_frame(frame)
        length = int.from_bytes(encoded[:4], "big")
        assert length == len(encoded) - 4
        assert decode_payload(encoded[4:]) == frame

    def test_frame_bytes_are_canonical(self):
        # Key order must not leak into the bytes: same content, same frame.
        a = encode_frame({"kind": "bye", "id": 1})
        b = encode_frame({"id": 1, "kind": "bye"})
        assert a == b

    def test_frame_must_be_object_with_kind(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"[1,2,3]")
        with pytest.raises(ProtocolError):
            decode_payload(b'{"id":1}')
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe not json")


def _response_payload() -> dict:
    """A pinned response body exercising every binary-layout branch."""
    return {
        "status": "ok",
        "outcome": {
            "result": {"pairs": [[1, 4]], "boundary_vertices": {}, "weight": 2},
            "correction": None,
            "defect_count": 2,
            "counters": {"grow": 3},
            "scale_retries": 0,
        },
        "queue_delay_seconds": 0.25,
        "latency_seconds": 0.5,
        "batch_size": 3,
        "cached": True,
        "error": None,
    }


#: Frozen codec-2 payload bytes.  These pin the binary layout the same way
#: the canonical-JSON strings above pin codec 1: a changed byte is a wire
#: break for every deployed v2 peer, not a refactor.
_BINARY_REQUEST_PIN = (
    "b20103000000000000009f0000007b22636f6465223a7b2264697374616e6365223a332c"
    "226e6f697365223a22636972637569745f6c6576656c222c22706879736963616c5f6572"
    "726f725f72617465223a302e30322c22726f756e6473223a6e756c6c7d2c22636f6e6669"
    "67223a7b226669656c6473223a7b7d2c2274797065223a22556e696f6e46696e64436f6e"
    "666967227d2c226465636f646572223a22756e696f6e2d66696e64227d01020000000100"
    "000004000000000000000700000000000000"
)
_BINARY_RESPONSE_PIN = (
    "b2020300000000000000020000006f6b03000000000000d03f000000000000e03f030000"
    "00010200000000000000010000000100000004000000000000000200000000000000"
    "010000000400000067726f770300000000000000"
)
_BINARY_BATCH_PIN = (
    "b20301009f0000007b22636f6465223a7b2264697374616e6365223a332c226e6f697365"
    "223a22636972637569745f6c6576656c222c22706879736963616c5f6572726f725f7261"
    "7465223a302e30322c22726f756e6473223a6e756c6c7d2c22636f6e666967223a7b2266"
    "69656c6473223a7b7d2c2274797065223a22556e696f6e46696e64436f6e666967227d2c"
    "226465636f646572223a22756e696f6e2d66696e64227d0200000001000000000000000000"
    "0700000000000000010200000001000000040000000000000002000000000000000000"
    "080000000000000000010000000900000000000000"
)

#: Syndrome tag 0x05 = logical_flip false | has-erasures; the erasure array
#: follows error_edges.
_BINARY_ERASED_REQUEST_PIN = (
    "b20103000000000000009f0000007b22636f6465223a7b2264697374616e6365223a332c"
    "226e6f697365223a22636972637569745f6c6576656c222c22706879736963616c5f6572"
    "726f725f72617465223a302e30322c22726f756e6473223a6e756c6c7d2c22636f6e6669"
    "67223a7b226669656c6473223a7b7d2c2274797065223a22556e696f6e46696e64436f6e"
    "666967227d2c226465636f646572223a22756e696f6e2d66696e64227d05020000000100"
    "000004000000000000000200000000000000090000000700000000000000"
)


class TestBinaryCodec:
    """Codec-2 byte pins, codec sniffing, negotiation, and fallbacks."""

    def test_request_bytes_pin(self):
        frame = {"kind": "request", "id": 3, "request": _request().to_dict()}
        assert encode_frame(frame, CODEC_BINARY)[4:].hex() == _BINARY_REQUEST_PIN

    def test_response_bytes_pin(self):
        frame = {"kind": "response", "id": 3, "response": _response_payload()}
        assert encode_frame(frame, CODEC_BINARY)[4:].hex() == _BINARY_RESPONSE_PIN

    def test_erased_request_bytes_pin(self):
        frame = {"kind": "request", "id": 3, "request": _erased_request().to_dict()}
        assert encode_frame(frame, CODEC_BINARY)[4:].hex() == _BINARY_ERASED_REQUEST_PIN

    def test_request_batch_bytes_pin(self):
        session = _request().to_dict()["session"]
        frame = {
            "kind": "request-batch",
            "requests": [
                {"id": 1, "request": _request().to_dict()},
                {
                    "id": 2,
                    "request": {
                        "session": session,
                        "syndrome": {
                            "defects": [9],
                            "error_edges": [],
                            "logical_flip": None,
                        },
                        "request_id": 8,
                    },
                },
            ],
        }
        assert encode_frame(frame, CODEC_BINARY)[4:].hex() == _BINARY_BATCH_PIN

    def test_binary_payloads_decode_to_the_logical_frame(self):
        for pin in (
            _BINARY_REQUEST_PIN,
            _BINARY_ERASED_REQUEST_PIN,
            _BINARY_RESPONSE_PIN,
            _BINARY_BATCH_PIN,
        ):
            payload = bytes.fromhex(pin)
            frame = decode_payload(payload)
            # Re-encoding the decoded frame reproduces the pinned bytes:
            # decode is the exact inverse of encode, not a lossy projection.
            assert encode_frame(frame, CODEC_BINARY)[4:] == payload

    def test_batch_decode_shares_session_objects(self):
        frame = decode_payload(bytes.fromhex(_BINARY_BATCH_PIN))
        members = frame["requests"]
        assert members[0]["request"]["session"] is members[1]["request"]["session"]

    def test_magic_byte_sniffing(self):
        # A binary payload starts 0xB2; a JSON one starts '{' — one reader.
        assert bytes.fromhex(_BINARY_REQUEST_PIN)[:1] == b"\xb2"
        json_payload = encode_frame({"kind": "bye"}, CODEC_JSON)[4:]
        assert json_payload[:1] == b"{"

    def test_control_frames_stay_json_on_codec_2(self):
        payload = encode_frame({"kind": "drain", "reason": "stopping"}, CODEC_BINARY)[4:]
        assert payload[:1] == b"{"

    def test_unrepresentable_frame_falls_back_to_json(self):
        # A null frame id has no binary layout; the frame silently rides
        # codec 1 and decodes identically.
        frame = {"kind": "request", "id": None, "request": _request().to_dict()}
        payload = encode_frame(frame, CODEC_BINARY)[4:]
        assert payload[:1] == b"{"
        assert decode_payload(payload) == frame

    def test_truncated_binary_frame_raises(self):
        payload = bytes.fromhex(_BINARY_REQUEST_PIN)
        for cut in (1, 2, 11, len(payload) - 3):
            with pytest.raises(ProtocolError):
                decode_payload(payload[:cut])

    def test_bad_syndrome_tag_raises(self):
        # Tag 3 is a flip value outside null/false/true; tag 8 sets a bit
        # the layout does not define.
        payload = bytearray.fromhex(_BINARY_REQUEST_PIN)
        # The pin ends: tag · u32[] defects (2) · u32[] error_edges (0) · i64.
        tag_offset = len(payload) - (1 + 4 + 2 * 4 + 4 + 8)
        assert payload[tag_offset] == 1
        for tag in (3, 8):
            payload[tag_offset] = tag
            with pytest.raises(ProtocolError, match=f"bad syndrome tag {tag}"):
                decode_payload(bytes(payload))

    def test_unknown_binary_kind_raises(self):
        with pytest.raises(ProtocolError, match="unknown binary frame kind"):
            decode_payload(b"\xb2\x7f" + b"\x00" * 16)

    def test_negotiation(self):
        assert negotiate_codec([2, 1]) == CODEC_BINARY
        assert negotiate_codec([1]) == CODEC_JSON
        assert negotiate_codec(None) == CODEC_JSON  # legacy hello, no codecs
        assert negotiate_codec([]) == CODEC_JSON
        assert negotiate_codec([99, "2", 2]) == CODEC_BINARY  # junk ignored
        assert negotiate_codec([99, None]) == CODEC_JSON
        assert SUPPORTED_CODECS == (CODEC_BINARY, CODEC_JSON)


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_SESSION = st.dictionaries(st.text(max_size=10), _JSON_SCALARS, max_size=4)
_SYNDROME = st.fixed_dictionaries(
    {
        "defects": st.lists(st.integers(0, 2**32 - 1), max_size=8),
        "error_edges": st.lists(st.integers(0, 2**32 - 1), max_size=4),
        "logical_flip": st.sampled_from([None, True, False]),
    },
    # Syndrome.to_dict emits erasures only when non-empty.
    optional={"erasures": st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4)},
)
_REQUEST = st.fixed_dictionaries(
    {
        "session": _SESSION,
        "syndrome": _SYNDROME,
        "request_id": st.integers(-(2**63), 2**63 - 1),
    }
)
_I32 = st.integers(-(2**31), 2**31 - 1)
_OUTCOME = st.fixed_dictionaries(
    {
        "result": st.one_of(
            st.none(),
            st.fixed_dictionaries(
                {
                    "pairs": st.lists(
                        st.lists(_I32, min_size=2, max_size=2), max_size=4
                    ),
                    "boundary_vertices": st.dictionaries(
                        _I32.map(str), _I32, max_size=3
                    ),
                    "weight": st.integers(-(2**63), 2**63 - 1),
                }
            ),
        ),
        "correction": st.one_of(
            st.none(), st.lists(st.integers(0, 2**32 - 1), max_size=6)
        ),
        "defect_count": st.integers(0, 2**32 - 1),
        "counters": st.dictionaries(
            st.text(max_size=12), st.integers(-(2**63), 2**63 - 1), max_size=4
        ),
        "scale_retries": st.integers(0, 2**32 - 1),
    }
)
_RESPONSE = st.fixed_dictionaries(
    {
        "status": st.sampled_from(["ok", "shed", "error"]),
        "outcome": st.one_of(st.none(), _OUTCOME),
        "queue_delay_seconds": st.floats(
            min_value=0.0, allow_nan=False, allow_infinity=False
        ),
        "latency_seconds": st.floats(
            min_value=0.0, allow_nan=False, allow_infinity=False
        ),
        "batch_size": st.integers(0, 2**32 - 1),
        "cached": st.booleans(),
        "error": st.one_of(st.none(), st.text(max_size=30)),
    }
)


class TestCodecProperties:
    """Hypothesis round-trips: decode(encode(frame)) == frame on both codecs.

    The generated frames stay inside each binary layout's value ranges, so
    on codec 2 these exercise the struct-packed path (not the fallback);
    codec 1 covers the same frames through canonical JSON.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        frame_id=st.integers(-(2**63), 2**63 - 1),
        request=_REQUEST,
        codec=st.sampled_from(SUPPORTED_CODECS),
    )
    def test_request_roundtrip(self, frame_id, request, codec):
        frame = {"kind": "request", "id": frame_id, "request": request}
        assert decode_payload(encode_frame(frame, codec)[4:]) == frame

    @settings(max_examples=60, deadline=None)
    @given(
        frame_id=st.integers(-(2**63), 2**63 - 1),
        response=_RESPONSE,
        codec=st.sampled_from(SUPPORTED_CODECS),
    )
    def test_response_roundtrip(self, frame_id, response, codec):
        frame = {"kind": "response", "id": frame_id, "response": response}
        assert decode_payload(encode_frame(frame, codec)[4:]) == frame

    @settings(max_examples=40, deadline=None)
    @given(
        members=st.lists(
            st.fixed_dictionaries(
                {"id": st.integers(-(2**63), 2**63 - 1), "request": _REQUEST}
            ),
            min_size=1,
            max_size=5,
        ),
        codec=st.sampled_from(SUPPORTED_CODECS),
    )
    def test_request_batch_roundtrip(self, members, codec):
        frame = {"kind": "request-batch", "requests": members}
        assert decode_payload(encode_frame(frame, codec)[4:]) == frame

    @settings(max_examples=40, deadline=None)
    @given(
        members=st.lists(
            st.fixed_dictionaries(
                {"id": st.integers(-(2**63), 2**63 - 1), "response": _RESPONSE}
            ),
            min_size=1,
            max_size=5,
        ),
        codec=st.sampled_from(SUPPORTED_CODECS),
    )
    def test_response_batch_roundtrip(self, members, codec):
        frame = {"kind": "response-batch", "responses": members}
        assert decode_payload(encode_frame(frame, codec)[4:]) == frame


_I64 = st.integers(-(2**63), 2**63 - 1)
_HOT_FRAMES = st.one_of(
    st.builds(lambda i, r: {"kind": "request", "id": i, "request": r}, _I64, _REQUEST),
    st.builds(lambda i, r: {"kind": "response", "id": i, "response": r}, _I64, _RESPONSE),
    st.builds(
        lambda members: {"kind": "request-batch", "requests": members},
        st.lists(st.fixed_dictionaries({"id": _I64, "request": _REQUEST}), max_size=3),
    ),
    st.builds(
        lambda members: {"kind": "response-batch", "responses": members},
        st.lists(st.fixed_dictionaries({"id": _I64, "response": _RESPONSE}), max_size=3),
    ),
)


@st.composite
def _mutated_encodings(draw) -> bytes:
    """A hot frame in either codec, then 1-4 byte flips, cuts or inserts."""
    payload = bytearray(
        encode_frame(draw(_HOT_FRAMES), draw(st.sampled_from(SUPPORTED_CODECS)))[4:]
    )
    for _ in range(draw(st.integers(1, 4))):
        position = draw(st.integers(0, len(payload)))
        mutation = draw(st.sampled_from(("flip", "cut", "insert")))
        if mutation == "flip" and position < len(payload):
            payload[position] ^= draw(st.integers(1, 255))
        elif mutation == "cut":
            del payload[position:]
        else:
            payload[position:position] = draw(st.binary(min_size=1, max_size=8))
    return bytes(payload)


_NESTED = b"[" * 100_000
#: A binary ``request`` whose session blob is deeply nested JSON.
_NESTED_SESSION_REQUEST = struct.pack("<BBqI", 0xB2, 0x01, 1, len(_NESTED)) + _NESTED


class TestHostileBytes:
    """Whatever bytes arrive, ``decode_payload`` returns a dict with a
    ``kind`` or raises ``ProtocolError`` — any other exception would escape
    the server's connection handler and kill the client's reader thread."""

    @settings(max_examples=400, deadline=None)
    @given(
        payload=st.one_of(
            st.binary(max_size=200),
            st.tuples(st.integers(0, 5), st.binary(max_size=200)).map(
                lambda t: bytes((0xB2, t[0])) + t[1]
            ),
            _mutated_encodings(),
        )
    )
    @example(payload=_NESTED)
    @example(payload=_NESTED_SESSION_REQUEST)
    def test_decodes_to_a_frame_or_protocol_error(self, payload):
        try:
            frame = decode_payload(payload)
        except ProtocolError:
            return
        assert isinstance(frame, dict) and "kind" in frame
