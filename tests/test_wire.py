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

import asyncio
import pickle
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.config import UnionFindConfig
from repro.api.hashing import canonical_json
from repro.api.outcome import DecodeOutcome
from repro.graphs.syndrome import Syndrome
from repro.service import (
    INTERNED_SESSIONS,
    CodeSpec,
    DecodeRequest,
    DecodeResponse,
    SessionKey,
    intern_session,
)
from repro.service.net import protocol
from repro.service.net.protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    PROTOCOL_VERSION,
    SUPPORTED_CODECS,
    ProtocolError,
    decode_payload,
    encode_frame,
    negotiate_codec,
    read_frame,
)
from repro.service.request import _interned


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


class TestSessionParsing:
    """Session parsing is exact, and the per-key memos are invisible."""

    @pytest.mark.parametrize(
        "code",
        [
            {"distance": 5.7, "rounds": 2.9, "physical_error_rate": "0.002"},
            {"distance": 5.0},
            {"distance": "5"},
            {"distance": True},
            {"distance": 5, "rounds": 2.9},
            {"distance": 5, "rounds": True},
            {"distance": 5, "physical_error_rate": "0.002"},
            {"distance": 5, "physical_error_rate": None},
            {"distance": 5, "physical_error_rate": True},
        ],
    )
    def test_code_spec_from_dict_refuses_lossy_values(self, code):
        with pytest.raises(TypeError):
            CodeSpec.from_dict(code)
        with pytest.raises(TypeError):
            SessionKey.from_dict({"code": code, "decoder": "union-find"})

    def test_code_spec_from_dict_keeps_exact_values(self):
        import numpy as np

        spec = CodeSpec.from_dict({"distance": 5, "rounds": 2, "physical_error_rate": 1e-3})
        assert spec == CodeSpec(5, physical_error_rate=0.001, rounds=2)
        # Integer-like and real-like numbers are exact, so they pass.
        spec = CodeSpec.from_dict(
            {"distance": np.int64(5), "rounds": None, "physical_error_rate": np.float32(0.5)}
        )
        assert spec == CodeSpec(5, physical_error_rate=0.5)
        assert type(spec.distance) is int and type(spec.physical_error_rate) is float

    def test_memoised_fields_leave_equality_hash_and_pickle_alone(self):
        fresh, used = _key(), _key()
        used.key(), used.wire_blob(), used.key_hash()
        assert {"_key", "_blob", "_hash"} <= set(used.__dict__)
        assert used == fresh and hash(used) == hash(fresh)
        assert pickle.dumps(used) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(used))
        assert set(restored.__dict__) == {"code", "decoder", "config"}
        assert restored == used and restored.key_hash() == used.key_hash()

    def test_to_dict_is_fresh_and_cannot_corrupt_the_key(self):
        key = _key()
        blob, key_hash = key.wire_blob(), key.key_hash()
        wire = key.to_dict()
        wire["decoder"] = "reference"
        wire["code"]["distance"] = 99
        assert key.to_dict() != wire
        assert key.wire_blob() == blob == canonical_json(key.to_dict())
        assert key.key_hash() == key_hash

    def test_intern_session_shares_one_key_and_never_keeps_failures(self):
        key = _key()
        assert intern_session(key.wire_blob()) is intern_session(key.wire_blob())
        assert intern_session(key.wire_blob()) == key
        assert _interned.cache_info().maxsize == INTERNED_SESSIONS
        bad = key.wire_blob().replace('"distance":3', '"distance":3.5')
        for _ in range(2):
            with pytest.raises(TypeError, match="distance must be an integer"):
                intern_session(bad)
        for blob in ("[1]", "{", "[" * 100_000):
            with pytest.raises((TypeError, ValueError)):
                intern_session(blob)
        # A valid blob padded past the size cap parses, but is never kept.
        padded = key.wire_blob()[:-1] + " " * 8192 + "}"
        before = _interned.cache_info()
        assert intern_session(padded) == key
        assert intern_session(padded) is not intern_session(padded)
        after = _interned.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


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


_MEMBER = st.tuples(
    _I64,
    _SESSION.map(canonical_json),
    _I64,
    _SYNDROME.map(protocol.pack_syndrome),
)


class TestRequestScanner:
    """The front end's request scanner: the members it hands back agree
    with the logical frame, and hostile bytes raise ``ProtocolError``."""

    @settings(max_examples=80, deadline=None)
    @given(members=st.lists(_MEMBER, min_size=1, max_size=5), batch=st.booleans())
    def test_members_agree_with_decode_payload(self, members, batch):
        members = members if batch else members[:1]
        kind = "request-batch" if batch else "request"
        payload = protocol._framed(protocol._request_parts(members, batch))[4:]
        scanned = protocol.scan_requests(payload)
        assert scanned == members
        frame = decode_payload(payload)
        assert frame["kind"] == kind
        logical = frame["requests"] if batch else [frame]
        assert len(logical) == len(scanned)
        for (frame_id, blob, request_id, syndrome), member in zip(scanned, logical):
            request = member["request"]
            assert member["id"] == frame_id and request["request_id"] == request_id
            assert request["session"].blob == blob
            assert protocol.pack_syndrome(request["syndrome"]) == syndrome
            rebuilt = protocol.syndrome_object(syndrome)
            assert rebuilt == Syndrome.from_dict(request["syndrome"])

    @settings(max_examples=60, deadline=None)
    @given(members=st.lists(st.fixed_dictionaries({"id": _I64, "request": _REQUEST}), max_size=3))
    def test_encoded_frames_scan_to_their_members(self, members):
        for frame in (
            {"kind": "request-batch", "requests": members},
            *({"kind": "request", **member} for member in members),
        ):
            payload = encode_frame(frame, CODEC_BINARY)[4:]
            scanned = protocol.scan_requests(payload)
            logical = decode_payload(payload)
            logical = logical.get("requests", [logical])
            assert [(m[0], m[2]) for m in scanned] == [
                (m["id"], m["request"]["request_id"]) for m in logical
            ]
            assert [protocol.syndrome_object(m[3]).to_dict() for m in scanned] == [
                Syndrome.from_dict(m["request"]["syndrome"]).to_dict() for m in logical
            ]

    @settings(max_examples=400, deadline=None)
    @given(
        payload=st.one_of(
            st.binary(max_size=200),
            st.tuples(st.sampled_from((1, 3)), st.binary(max_size=200)).map(
                lambda t: bytes((0xB2, t[0])) + t[1]
            ),
            _mutated_encodings(),
        )
    )
    @example(payload=_NESTED_SESSION_REQUEST)
    @example(payload=b"\xb2\x03\x01\x00\xff\xff\xff\xff")
    def test_hostile_bytes_give_members_or_protocol_error(self, payload):
        try:
            members = protocol.scan_requests(payload)
        except ProtocolError:
            return
        for frame_id, blob, request_id, syndrome in members:
            assert isinstance(blob, str) and isinstance(syndrome, bytes)
            protocol.syndrome_object(syndrome)  # a scanned span always reads


def _served_responses(decoder: str, shots: int = 25):
    """Seeded d=3 requests and their real responses on one backend."""
    from repro.graphs import SyndromeSampler
    from repro.service.cache import build_session

    key = SessionKey(CodeSpec(3, physical_error_rate=0.03), decoder)
    session = build_session(key)
    sampler = SyndromeSampler(session.graph, seed=sum(map(ord, decoder)))
    pairs = []
    for index, syndrome in enumerate(sampler.sample_batch(shots)):
        request = DecodeRequest(key, syndrome, request_id=index * 7919)
        response = DecodeResponse(
            request,
            outcome=session.decode_detailed(syndrome),
            queue_delay_seconds=index * 1.25e-6,
            latency_seconds=3.5e-4 + index * 1e-7,
            batch_size=index % 9,
            cached=index % 3 == 0,
        )
        pairs.append((request, response))
    request = pairs[0][0]
    pairs.append((request, DecodeResponse(request, status="error", error="Boom: x")))
    pairs.append((request, DecodeResponse(request, status="shed")))
    return pairs


def _echoless(response: DecodeResponse) -> dict:
    payload = response.to_dict()
    del payload["request"]
    return payload


class TestWireIdentity:
    """The object writers and readers of the forwarding path produce
    exactly the bytes and values the logical-dict codec does."""

    @pytest.mark.parametrize(
        "decoder", ["lut+union-find", "union-find", "micro-blossom", "reference"]
    )
    def test_object_writers_match_encode_frame(self, decoder):
        pairs = _served_responses(decoder)
        members = [protocol.request_member(i, request) for i, (request, _) in enumerate(pairs)]
        bodies = [(i, protocol.response_body(response)) for i, (_, response) in enumerate(pairs)]
        for (request, response), member, (frame_id, body) in zip(pairs, members, bodies):
            frame = {"kind": "request", "id": frame_id, "request": request.to_dict()}
            assert protocol.encode_requests([member]) == encode_frame(frame, CODEC_BINARY)
            frame = {"kind": "response", "id": frame_id, "response": _echoless(response)}
            assert protocol.encode_responses([(frame_id, body)]) == encode_frame(
                frame, CODEC_BINARY
            )
            assert protocol.body_dict(body) == _echoless(response)
        frame = {
            "kind": "request-batch",
            "requests": [
                {"id": i, "request": request.to_dict()} for i, (request, _) in enumerate(pairs)
            ],
        }
        assert protocol.encode_requests(members) == encode_frame(frame, CODEC_BINARY)
        frame = {
            "kind": "response-batch",
            "responses": [
                {"id": i, "response": _echoless(response)} for i, (_, response) in enumerate(pairs)
            ],
        }
        spliced = protocol.encode_responses(bodies)
        assert spliced == encode_frame(frame, CODEC_BINARY)
        # The client's reader rebuilds every field the dict path would.
        read = protocol.read_responses(spliced[4:])
        assert [frame_id for frame_id, _ in read] == list(range(len(pairs)))
        for (request, response), (_, fields) in zip(pairs, read):
            rebuilt = DecodeResponse(request, *fields)
            assert rebuilt.to_dict() == DecodeResponse.from_dict(response.to_dict()).to_dict()
            if response.outcome is not None:
                assert type(rebuilt.outcome).__name__ == "DecodeOutcome"
                assert rebuilt.outcome.correction == DecodeOutcome.from_dict(
                    response.outcome.to_dict()
                ).correction

    def test_worker_builds_the_syndrome_the_client_sent(self):
        for request, _ in _served_responses("union-find") + [(_erased_request(), None)]:
            _, blob, request_id, syndrome = protocol.request_member(1, request)
            assert protocol.syndrome_object(syndrome) == request.syndrome
            assert intern_session(blob) == request.session and request_id == request.request_id

    @pytest.mark.parametrize(
        "syndrome",
        [
            {"defects": [-1]},
            {"defects": [2**32]},
            {"defects": 5},
            {"defects": "12"},
            {"defects": [1.5]},
            {"defects": [1], "error_edges": None},
            {"error_edges": [1]},
            None,
        ],
    )
    def test_unpackable_syndromes_are_refused(self, syndrome):
        with pytest.raises((TypeError, ValueError, KeyError)):
            protocol.pack_syndrome(syndrome)

    def test_error_body_escapes_what_utf8_cannot_carry(self):
        body = protocol.error_body("Boom: \ud800")
        assert protocol.body_dict(body)["error"] == "Boom: \\ud800"


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


def _read_stream(data: bytes) -> list:
    """Every outcome of reading ``data`` then EOF frame by frame: frames,
    then one of ``None`` (clean EOF), ``"protocol"`` or ``"mid-frame"``."""

    async def read_all() -> list:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        outcomes = []
        while True:
            try:
                frame = await read_frame(reader)
            except ProtocolError:
                return outcomes + ["protocol"]
            except ConnectionError as exc:
                assert str(exc) == "connection closed mid-frame"
                return outcomes + ["mid-frame"]
            if frame is None:
                return outcomes + [None]
            outcomes.append(frame)

    return asyncio.run(read_all())


_STREAM_PIECES = st.one_of(
    st.builds(lambda frame, codec: encode_frame(frame, codec), _HOT_FRAMES,
              st.sampled_from(SUPPORTED_CODECS)),
    st.binary(max_size=40),
    st.integers(0, 2**32 - 1).map(lambda n: struct.pack(">I", n)),
)


class TestReadFrame:
    """``read_frame`` over arbitrary byte streams ending in EOF yields
    frames, then a clean ``None``, a ``ProtocolError`` or the mid-frame
    ``ConnectionError`` — never another exception, never a hang."""

    @settings(max_examples=200, deadline=None)
    @given(pieces=st.lists(_STREAM_PIECES, max_size=5), cut=st.integers(0, 64))
    @example(pieces=[encode_frame({"kind": "bye"})] * 2, cut=0)
    @example(pieces=[struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)], cut=0)
    @example(pieces=[_NESTED_SESSION_REQUEST], cut=0)
    def test_stream_reads_to_frames_then_one_clean_ending(self, pieces, cut):
        data = b"".join(pieces)
        data = data[: max(0, len(data) - cut)]
        outcomes = _read_stream(data)
        *frames, ending = outcomes
        assert ending in (None, "protocol", "mid-frame")
        for frame in frames:
            assert isinstance(frame, dict) and "kind" in frame

    def test_whole_frames_then_eof_end_cleanly(self):
        frames = [{"kind": "bye"}, {"kind": "request", "id": 3, "request": _request().to_dict()}]
        data = b"".join(encode_frame(frame, CODEC_BINARY) for frame in frames)
        assert _read_stream(data) == frames + [None]
        assert _read_stream(data[:-1]) == frames[:1] + ["mid-frame"]
        assert _read_stream(data[:2]) == ["mid-frame"]

    def test_oversized_length_prefix_is_refused_before_the_body(self):
        async def read_oversized():
            reader = asyncio.StreamReader()
            # No body and no EOF: reading the body would wait forever.
            reader.feed_data(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1) + b"tail")
            with pytest.raises(ProtocolError, match="exceeds"):
                await asyncio.wait_for(read_frame(reader), timeout=5.0)
            reader.feed_eof()
            return await reader.read()

        # Only the 4-byte header was consumed.
        assert asyncio.run(read_oversized()) == b"tail"
