"""The worker-process side of the network decode service.

Each worker process runs :func:`worker_main`: it hosts one ordinary
in-process :class:`~repro.service.DecodeService` built from the server's
:class:`~repro.service.ServiceConfig` (decoding on the prewarmed graphs the
server built before forking), and speaks a small tuple protocol over its
:class:`multiprocessing.Pipe` with the front end:

============================================  ========================================
server → worker                               worker → server
============================================  ========================================
``("request-batch", [(seq, wire), ...])``     ``("response-batch", [(seq, payload)])``
``("stream-open", seq, sid, session, w, c)``  ``("stream-reply", seq, result)``
``("stream-op", seq, sid, op, payload)``      ``("stream-reply", seq, result)``
``("stream-close", sid)``                     *(no reply)*
``("drain",)``                                ``("drained",)``
============================================  ========================================

Every decode request rides a ``request-batch`` message (a lone client
request is a batch of one), and the batch is the unit end to end: it is
submitted to the in-process service in one
:meth:`~repro.service.DecodeService.submit_many` call, so each session's
share of it closes that session's micro-batch at once instead of waiting out
``max_wait_seconds`` — and the one ``response-batch`` reply is sent only
when every member resolved.

``wire`` is :meth:`repro.service.DecodeRequest.to_dict`, defects inline.
``payload`` is :meth:`repro.service.DecodeResponse.to_dict` *minus* the
request echo (the front end holds the request wire form and re-attaches it
when it builds the client's ``response`` frame — same codec, fewer bytes on
the pipe).

Decode results are bit-identical to in-process serving by construction: the
worker *is* an in-process service; the network layer around it only moves
bytes.
"""

from __future__ import annotations

import signal
import threading

from ..config import ServiceConfig
from ..cache import build_session
from ..request import STATUS_ERROR, DecodeRequest, SessionKey
from ..service import DecodeService
from ...api.session import DecoderSession


def response_payload(response) -> dict:
    """``DecodeResponse.to_dict()`` without the request echo."""
    return {
        "status": response.status,
        "outcome": None if response.outcome is None else response.outcome.to_dict(),
        "queue_delay_seconds": response.queue_delay_seconds,
        "latency_seconds": response.latency_seconds,
        "batch_size": response.batch_size,
        "cached": response.cached,
        "error": response.error,
    }


def error_payload(message: str) -> dict:
    """The STATUS_ERROR payload of a request that failed outside a decoder
    (worker or front end), with ``message`` as its error."""
    return {
        "status": STATUS_ERROR,
        "outcome": None,
        "queue_delay_seconds": 0.0,
        "latency_seconds": 0.0,
        "batch_size": 0,
        "cached": False,
        "error": message,
    }


def _prewarmed_session_factory(graphs: dict):
    """A session factory that decodes on the server's prewarmed graphs.

    ``graphs`` maps :meth:`~repro.service.CodeSpec.key` to a graph the
    server built before forking; any other key builds its graph locally —
    correctness never depends on what the server chose to prewarm.
    """

    def factory(key: SessionKey) -> DecoderSession:
        graph = graphs.get(key.code.key())
        if graph is None:
            return build_session(key)
        return DecoderSession(graph, key.decoder, key.config)

    return factory


class _BatchAccumulator:
    """Collects one pipe batch's member payloads; sends one reply when full.

    Futures resolve on the service's worker threads in any order; the
    accumulator keeps the members in submission order and fires exactly one
    ``("response-batch", ...)`` message once the last one lands.
    """

    __slots__ = ("_seqs", "_payloads", "_remaining", "_lock", "_send")

    def __init__(self, seqs: list[int], send) -> None:
        self._seqs = seqs
        self._payloads: list = [None] * len(seqs)
        self._remaining = len(seqs)
        self._lock = threading.Lock()
        self._send = send

    def resolve(self, index: int, payload: dict) -> None:
        with self._lock:
            self._payloads[index] = payload
            self._remaining -= 1
            done = self._remaining == 0
        if done:
            self._send(
                ("response-batch", list(zip(self._seqs, self._payloads)))
            )

    def callback(self, index: int):
        def on_done(future) -> None:
            try:
                payload = response_payload(future.result())
            except BaseException as exc:
                payload = error_payload(f"{type(exc).__name__}: {exc}")
            self.resolve(index, payload)

        return on_done


def _stream_result_wire(result):
    """Serialise a stream-op result (None, a Counter, or a DecodeOutcome)."""
    if result is None:
        return None
    if hasattr(result, "to_dict"):
        return {"outcome": result.to_dict()}
    return {"counters": {str(key): int(value) for key, value in dict(result).items()}}


def worker_main(
    worker_id: int,
    conn,
    graphs: dict,
    config_wire: dict,
    drain_timeout_seconds: float | None = 60.0,
) -> None:
    """Entry point of one worker process (target of ``multiprocessing.Process``).

    ``graphs`` is the server's ``{CodeSpec.key(): DecodingGraph}`` prewarm
    dict: inherited under fork, pickled under spawn.  Runs until the pipe
    closes (front end died — exit quietly; the front end owns client-facing
    error handling) or a ``("drain",)`` command arrives (drain the in-flight
    work through ``DecodeService.close`` and ack with ``("drained",)``).
    """
    # The front end owns shutdown: a stray SIGTERM/SIGINT to the process
    # group must not kill workers mid-batch — drain arrives over the pipe.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    config = ServiceConfig.from_dict(config_wire)
    service = DecodeService(config, session_factory=_prewarmed_session_factory(graphs))
    service.start()

    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        # Futures resolve on worker threads; one pipe, one writer at a time.
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # front end is gone
                pass

    def on_stream_reply(seq: int):
        def callback(future) -> None:
            try:
                send(("stream-reply", seq, _stream_result_wire(future.result())))
            except BaseException as exc:
                send(("stream-reply", seq, {"error": f"{type(exc).__name__}: {exc}"}))

        return callback

    streams: dict = {}
    draining = False
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        command = message[0]
        if command == "request-batch":
            _, entries = message
            batch = _BatchAccumulator([entry[0] for entry in entries], send)
            # The client already coalesced this batch: submit it as one group
            # so each session's share closes its micro-batch right away.
            indices, requests = [], []
            for index, (seq, wire) in enumerate(entries):
                try:
                    requests.append(DecodeRequest.from_dict(wire))
                except BaseException as exc:
                    batch.resolve(index, error_payload(f"{type(exc).__name__}: {exc}"))
                    continue
                indices.append(index)
            try:
                futures = service.submit_many(requests)
            except Exception as exc:
                for index in indices:
                    batch.resolve(index, error_payload(f"{type(exc).__name__}: {exc}"))
                continue
            for index, future in zip(indices, futures):
                future.add_done_callback(batch.callback(index))
        elif command == "stream-open":
            _, seq, sid, session_wire, window, commit_depth = message
            try:
                key = SessionKey.from_dict(session_wire)
                streams[sid] = service.open_stream(
                    key, window=window, commit_depth=commit_depth
                )
                send(("stream-reply", seq, None))
            except BaseException as exc:
                send(("stream-reply", seq, {"error": f"{type(exc).__name__}: {exc}"}))
        elif command == "stream-op":
            _, seq, sid, op, payload = message
            stream = streams.get(sid)
            if stream is None:
                send(("stream-reply", seq, {"error": f"LookupError: unknown stream {sid}"}))
                continue
            try:
                if op == "begin":
                    future = stream.begin(payload)
                elif op == "push":
                    future = stream.push_round(payload)
                elif op == "finalize":
                    future = stream.finalize()
                    del streams[sid]
                else:
                    raise ValueError(f"unknown stream op {op!r}")
            except BaseException as exc:
                send(("stream-reply", seq, {"error": f"{type(exc).__name__}: {exc}"}))
                continue
            future.add_done_callback(on_stream_reply(seq))
        elif command == "stream-close":
            # The front end lost the stream's client: drop the abandoned
            # ServiceStream so a long-running worker does not accumulate one
            # per disconnected client.  No reply — nobody is waiting.
            streams.pop(message[1], None)
        elif command == "drain":
            draining = True
            break
    # Drain everything already admitted; every pending future resolves (and
    # its callback sends the response) before close() returns.
    try:
        service.close(timeout=drain_timeout_seconds)
    except Exception:
        pass
    if draining:
        send(("drained",))
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass
