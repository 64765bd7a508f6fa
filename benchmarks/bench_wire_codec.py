"""Wire codec micro-benchmark: binary v2 vs canonical-JSON v1 framing.

The network decode service negotiates one of two payload codecs per
connection (``repro.service.net.protocol``): canonical JSON (codec 1, one
frame per request, responses echo the request) and the struct-packed binary
format (codec 2, batch frames with a deduplicated session table, echoless
responses).  This benchmark measures the *codec* cost alone — encode plus
decode of a realistic request/response mix built from sampled syndromes and
real decoded outcomes — exactly as each wire version would carry it:

* **v1**: one ``request`` frame per request and one ``response`` frame per
  answer, with the v1 request echo embedded (that is what a v1 server
  sends).
* **v2**: ``request-batch`` / ``response-batch`` frames of ``--batch-size``
  members, responses without the echo (the v2 client holds the request).

The two versions are timed in alternating passes, and the run fails unless
the median over passes of the v1/v2 time ratio is at least 2 — the
codec-level floor backing the end-to-end >= 1.5x gate of the serve-net
smoke (``python -m repro serve-net --smoke``).

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
    CODEC_BINARY,
    CODEC_JSON,
    SessionWire,
    decode_payload,
    encode_frame,
)
from repro.service.request import DecodeResponse

#: Codec-level speedup floor: the binary codec must halve the cost of the
#: request/response mix for the end-to-end 1.5x network gate to be safe.
SPEEDUP_FLOOR = 2.0


def build_mix(distance: int, error_rate: float, samples: int, seed: int):
    """Requests with real syndromes plus their decoded response payloads."""
    key = SessionKey(CodeSpec(distance, physical_error_rate=error_rate), "union-find")
    session = build_session(key)
    sampler = SyndromeSampler(session.graph, seed=seed)
    requests, responses = [], []
    for index, syndrome in enumerate(sampler.sample_batch(samples)):
        request = DecodeRequest(key, syndrome, request_id=index)
        outcome = session.decode_detailed(syndrome)
        response = DecodeResponse(
            request,
            outcome=outcome,
            queue_delay_seconds=1.5e-5,
            latency_seconds=2.5e-4,
            batch_size=8,
        )
        wire = request.to_dict()
        # As the client sends it: a fresh session dict per request, carrying
        # the key's memoised canonical blob for the binary encoder.
        wire["session"] = SessionWire(key.to_dict(), key.wire_blob())
        requests.append(wire)
        payload = response.to_dict()
        del payload["request"]  # the echo a v1 server adds back per frame
        responses.append(payload)
    return requests, responses


def v1_frames(requests, responses):
    """The per-request JSON-v1 frame sequence (responses echo the request)."""
    frames = []
    for index, wire in enumerate(requests):
        frames.append({"kind": "request", "id": index, "request": wire})
    for index, (wire, payload) in enumerate(zip(requests, responses)):
        frames.append(
            {"kind": "response", "id": index, "response": {**payload, "request": wire}}
        )
    return frames


def v2_frames(requests, responses, batch_size: int):
    """The batched binary-v2 frame sequence (echoless responses)."""
    frames = []
    for start in range(0, len(requests), batch_size):
        chunk = requests[start : start + batch_size]
        frames.append(
            {
                "kind": "request-batch",
                "requests": [
                    {"id": start + offset, "request": wire}
                    for offset, wire in enumerate(chunk)
                ],
            }
        )
    for start in range(0, len(responses), batch_size):
        chunk = responses[start : start + batch_size]
        frames.append(
            {
                "kind": "response-batch",
                "responses": [
                    {"id": start + offset, "response": payload}
                    for offset, payload in enumerate(chunk)
                ],
            }
        )
    return frames


def timed_pass(frames, codec: int) -> float:
    """Seconds of one encode+decode pass over all frames."""
    started = time.perf_counter()
    for frame in frames:
        decode_payload(encode_frame(frame, codec)[4:])
    return time.perf_counter() - started


def run(distance: int, error_rate: float, samples: int, seed: int,
        batch_size: int, passes: int):
    """Rows per wire version (its best pass) and the median over passes of
    the v1/v2 time ratio.  The versions are timed in alternating passes, so
    host load that comes and goes hits both sides of each ratio alike."""
    requests, responses = build_mix(distance, error_rate, samples, seed)
    messages = len(requests) + len(responses)
    sides = {
        "v1 json/per-request": (v1_frames(requests, responses), CODEC_JSON),
        "v2 binary/batched": (v2_frames(requests, responses, batch_size), CODEC_BINARY),
    }
    for frames, codec in sides.values():
        # Round-trip identity first: speed means nothing if the codec lies.
        for frame in frames:
            decoded = decode_payload(encode_frame(frame, codec)[4:])
            if codec == CODEC_JSON:
                assert decoded == frame, "JSON codec round-trip changed a frame"
    seconds = {label: [] for label in sides}
    for _ in range(passes):
        for label, (frames, codec) in sides.items():
            seconds[label].append(timed_pass(frames, codec))
    rows = []
    for label, (frames, codec) in sides.items():
        best = min(seconds[label])
        rows.append(
            {
                "wire": label,
                "frames": len(frames),
                "bytes": sum(len(encode_frame(frame, codec)) for frame in frames),
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
