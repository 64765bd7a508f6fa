"""Wire codec micro-benchmark: binary v2 vs canonical-JSON v1 framing.

The network decode service negotiates one of two payload codecs per
connection (``repro.service.net.protocol``): canonical JSON (codec 1, one
frame per request, responses echo the request) and the struct-packed binary
format (codec 2, batch frames with a deduplicated session table, echoless
responses).  This benchmark measures the *codec* cost alone — encode plus
decode of a realistic request/response mix built from sampled syndromes and
real decoded outcomes — exactly as each wire version carries it:

* **v1**: one ``request`` frame per request and one ``response`` frame per
  answer, with the v1 request echo embedded (that is what a v1 server
  sends), each written by ``encode_frame`` and read by ``decode_payload``.
* **v2**: ``request-batch`` / ``response-batch`` frames of ``--batch-size``
  members through the functions the network path runs: the client's
  ``request_member``/``encode_requests``, the front end's ``scan_requests``
  and the worker's ``syndrome_object``; then the worker's
  ``response_body``, the front end's ``encode_responses`` and the client's
  ``read_responses`` into a ``DecodeResponse``.

The two versions are timed in alternating passes, and the run fails unless
the median over passes of the v1/v2 time ratio is at least 2 — the
codec-level floor backing the end-to-end ``WIRE_SPEEDUP_FLOOR`` gate of the
serve-net smoke (``python -m repro serve-net --smoke``).

    python benchmarks/bench_wire_codec.py --smoke   # CI-sized run
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.evaluation import format_rows
from repro.graphs import SyndromeSampler
from repro.service import CodeSpec, DecodeRequest, SessionKey
from repro.service.cache import build_session
from repro.service.net.protocol import (
    decode_payload,
    encode_frame,
    encode_requests,
    encode_responses,
    read_responses,
    request_member,
    response_body,
    scan_requests,
    syndrome_object,
)
from repro.service.request import DecodeResponse

#: Codec-level speedup floor: the binary codec must halve the cost of the
#: request/response mix for the end-to-end network gate
#: (``repro.service.WIRE_SPEEDUP_FLOOR``) to be safe.
SPEEDUP_FLOOR = 2.0


def build_mix(distance: int, error_rate: float, samples: int, seed: int):
    """Requests with real syndromes plus their decoded responses."""
    key = SessionKey(CodeSpec(distance, physical_error_rate=error_rate), "union-find")
    session = build_session(key)
    sampler = SyndromeSampler(session.graph, seed=seed)
    requests, responses = [], []
    for index, syndrome in enumerate(sampler.sample_batch(samples)):
        request = DecodeRequest(key, syndrome, request_id=index)
        requests.append(request)
        responses.append(
            DecodeResponse(
                request,
                outcome=session.decode_detailed(syndrome),
                queue_delay_seconds=1.5e-5,
                latency_seconds=2.5e-4,
                batch_size=8,
            )
        )
    return requests, responses


def v1_frames(requests, responses):
    """The per-request JSON-v1 frame sequence (responses echo the request)."""
    frames = []
    for index, request in enumerate(requests):
        frames.append({"kind": "request", "id": index, "request": request.to_dict()})
    for index, response in enumerate(responses):
        frames.append({"kind": "response", "id": index, "response": response.to_dict()})
    return frames


def v1_pass(frames) -> list:
    """One JSON encode+decode pass over the v1 frames; the frames read."""
    return [decode_payload(encode_frame(frame)[4:]) for frame in frames]


def v2_pass(requests, responses, batch_size: int) -> tuple[list, list]:
    """One pass of the binary-v2 path, batches of ``batch_size``: the
    client's request writer, the front end's scanner and the worker's
    syndrome reader, then the worker's body writer, the front end's
    splicer and the client's response reader.  Returns the syndromes and
    the responses read."""
    syndromes, answers = [], []
    for start in range(0, len(requests), batch_size):
        chunk = requests[start : start + batch_size]
        members = [request_member(start + i, request) for i, request in enumerate(chunk)]
        for member in scan_requests(encode_requests(members)[4:]):
            syndromes.append(syndrome_object(member[3]))
    for start in range(0, len(responses), batch_size):
        chunk = responses[start : start + batch_size]
        bodies = [(start + i, response_body(response)) for i, response in enumerate(chunk)]
        for (_, fields), response in zip(read_responses(encode_responses(bodies)[4:]), chunk):
            answers.append(DecodeResponse(response.request, *fields))
    return syndromes, answers


def v2_bytes(requests, responses, batch_size: int) -> tuple[int, int]:
    """(frames, bytes) of the binary-v2 frame sequence."""
    frames = []
    for start in range(0, len(requests), batch_size):
        chunk = enumerate(requests[start : start + batch_size])
        frames.append(encode_requests([request_member(start + i, r) for i, r in chunk]))
    for start in range(0, len(responses), batch_size):
        chunk = enumerate(responses[start : start + batch_size])
        frames.append(encode_responses([(start + i, response_body(r)) for i, r in chunk]))
    return len(frames), sum(map(len, frames))


def timed(function, *args) -> float:
    """Seconds of one call of ``function(*args)``."""
    started = time.perf_counter()
    function(*args)
    return time.perf_counter() - started


def run(distance: int, error_rate: float, samples: int, seed: int,
        batch_size: int, passes: int):
    """Rows per wire version (its best pass) and the median over passes of
    the v1/v2 time ratio.  The versions are timed in alternating passes, so
    host load that comes and goes hits both sides of each ratio alike."""
    requests, responses = build_mix(distance, error_rate, samples, seed)
    messages = len(requests) + len(responses)
    frames = v1_frames(requests, responses)
    # Round-trip identity first: speed means nothing if the codec lies.
    assert v1_pass(frames) == frames, "JSON codec round-trip changed a frame"
    syndromes, answers = v2_pass(requests, responses, batch_size)
    assert syndromes == [request.syndrome for request in requests], "v2 changed a syndrome"
    assert [answer.to_dict() for answer in answers] == [
        DecodeResponse.from_dict(response.to_dict()).to_dict() for response in responses
    ], "v2 changed a response"
    sides = {
        "v1 json/per-request": (v1_pass, frames),
        "v2 binary/batched": (v2_pass, requests, responses, batch_size),
    }
    seconds = {label: [] for label in sides}
    for _ in range(passes):
        for label, (function, *args) in sides.items():
            seconds[label].append(timed(function, *args))
    sizes = {
        "v1 json/per-request": (len(frames), sum(len(encode_frame(frame)) for frame in frames)),
        "v2 binary/batched": v2_bytes(requests, responses, batch_size),
    }
    rows = []
    for label in sides:
        best = min(seconds[label])
        rows.append(
            {
                "wire": label,
                "frames": sizes[label][0],
                "bytes": sizes[label][1],
                "seconds": best,
                "messages_per_s": messages / best,
            }
        )
    v1, v2 = seconds.values()
    return rows, statistics.median(old / new for old, new in zip(v1, v2))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--distance", type=int, default=7)
    parser.add_argument("--error-rate", type=float, default=0.01)
    parser.add_argument("--samples", type=int, default=256)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small, fast configuration for CI (d=5, 96 samples, 9 passes)",
    )
    args = parser.parse_args()
    if args.smoke:
        args.distance, args.samples, args.passes = 5, 96, 9

    print(
        f"== wire codec throughput (d={args.distance}, p={args.error_rate}, "
        f"{args.samples} request/response pairs, batches of {args.batch_size}) =="
    )
    rows, speedup = run(
        args.distance, args.error_rate, args.samples, args.seed,
        args.batch_size, args.passes,
    )
    print(format_rows(rows, ["wire", "frames", "bytes", "seconds", "messages_per_s"]))
    shrink = rows[0]["bytes"] / rows[1]["bytes"]
    print(
        f"\nbinary v2 speedup over JSON v1: {speedup:.2f}x, median of {args.passes} "
        f"interleaved passes ({shrink:.2f}x fewer bytes)"
    )
    if speedup < SPEEDUP_FLOOR:
        raise SystemExit(
            f"expected the binary codec to be >= {SPEEDUP_FLOOR}x faster, got {speedup:.2f}x"
        )


if __name__ == "__main__":
    main()
