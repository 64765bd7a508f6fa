"""The net tier replays the new noise families: trace pins and wire rules.

``NOISE_FAMILY_SMOKE_TRACE`` mixes every non-i.i.d. family through the full
service path.  Its hash is pinned (as is ``SMOKE_TRACE``'s, which must never
move — the new trace fields serialize only at non-default values), its
expansion is replay-stable, erasure-carrying requests keep the codec-2
binary layout (its syndrome carries an erasure array), and the service-load
healthy digest is worker-count independent.
"""

from __future__ import annotations

import pytest

from repro.evaluation.service_load import DEFAULT_LOAD_CONFIG, ServiceLoadEngine
from repro.service.net.protocol import (
    _LENGTH,
    CODEC_BINARY,
    decode_payload,
    encode_frame,
)
from repro.service.request import DecodeRequest
from repro.service.trace import (
    NOISE_FAMILY_SMOKE_TRACE,
    SMOKE_TRACE,
    TraceSpec,
    generate_trace,
)


@pytest.fixture(scope="module")
def noise_trace():
    return generate_trace(NOISE_FAMILY_SMOKE_TRACE)


def test_trace_hashes_are_pinned():
    # the pre-existing CI trace must keep its hash across the noise upgrade
    assert SMOKE_TRACE.trace_hash() == "dc69d9b30cc305ea"
    assert NOISE_FAMILY_SMOKE_TRACE.trace_hash() == "8a64e0f1199a2844"


def test_trace_covers_every_new_family_and_replays_bit_identically(noise_trace):
    families = {s.noise for s in NOISE_FAMILY_SMOKE_TRACE.scenarios}
    assert {"correlated_burst", "erasure", "time_varying"} <= families
    erased = [tr for tr in noise_trace.requests if tr.request.syndrome.erasures]
    assert erased, "the erasure scenario produced no heralded request"
    # spec round-trips through its wire form and re-expands identically
    respec = TraceSpec.from_dict(NOISE_FAMILY_SMOKE_TRACE.to_dict())
    assert respec == NOISE_FAMILY_SMOKE_TRACE
    replay = generate_trace(respec)
    assert [tr.request for tr in replay.requests] == [
        tr.request for tr in noise_trace.requests
    ]


def _round_trip(request: DecodeRequest) -> tuple[bool, DecodeRequest]:
    """(took the binary layout?, decoded request) of one codec-2 frame."""
    frame = {"kind": "request", "id": int(request.request_id), "request": request.to_dict()}
    payload = encode_frame(frame, codec=CODEC_BINARY)[_LENGTH.size :]
    decoded = decode_payload(payload)
    return payload[:1] == b"\xb2", DecodeRequest.from_dict(decoded["request"])


def test_erasure_requests_take_the_binary_layout(noise_trace):
    erased = next(
        tr.request for tr in noise_trace.requests if tr.request.syndrome.erasures
    )
    plain = next(
        tr.request for tr in noise_trace.requests if not tr.request.syndrome.erasures
    )
    for request in (erased, plain):
        was_binary, round_tripped = _round_trip(request)
        assert was_binary, "codec 2 carries heralded erasures in its own array"
        assert round_tripped == request

    # a mixed batch frame keeps the binary layout and round-trips member-wise
    batch = {
        "kind": "request-batch",
        "requests": [
            {"id": index, "request": request.to_dict()}
            for index, request in enumerate((plain, erased))
        ],
    }
    payload = encode_frame(batch, codec=CODEC_BINARY)[_LENGTH.size :]
    assert payload[:1] == b"\xb2"
    members = decode_payload(payload)["requests"]
    assert [member["id"] for member in members] == [0, 1]
    assert [DecodeRequest.from_dict(member["request"]) for member in members] == [plain, erased]


def test_service_digest_is_worker_count_independent():
    """Full in-process service replay, identity-verified, digest pinned."""
    digests = {}
    for workers in (1, 2):
        config = DEFAULT_LOAD_CONFIG.replace(workers=workers)
        result = ServiceLoadEngine(NOISE_FAMILY_SMOKE_TRACE, config=config).run(
            verify_identity=True
        )
        assert result.completed == NOISE_FAMILY_SMOKE_TRACE.requests
        digests[workers] = result.healthy_digest
    assert digests[1] == digests[2]
    assert digests[1] == "823bcfc2dd1438d6"
