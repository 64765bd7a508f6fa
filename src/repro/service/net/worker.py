"""The worker-process side of the network decode service.

Each worker process runs :func:`worker_main`: it attaches the server's
shared-memory segments (graph pack + syndrome slab), hosts one ordinary
in-process :class:`~repro.service.DecodeService` built from the server's
:class:`~repro.service.ServiceConfig`, and speaks a small tuple protocol
over its :class:`multiprocessing.Pipe` with the front end:

=================================================  ===================================
server → worker                                    worker → server
=================================================  ===================================
``("request-batch", [(seq, wire, slot, count)])``  ``("response-batch", [(seq, payload)])``
``("stream-open", seq, sid, session, w, c)``       ``("stream-reply", seq, result)``
``("stream-op", seq, sid, op, payload)``           ``("stream-reply", seq, result)``
``("stream-close", sid)``                          *(no reply)*
``("ping", seq)``                                  ``("pong", seq)``
``("drain",)``                                     ``("drained",)``
=================================================  ===================================

Every decode request rides a ``request-batch`` message (a lone client
request is a batch of one), and the batch is the unit end to end: it is
submitted to the in-process service *before* any member is awaited — the
micro-batcher sees the full batch instead of trickled singles — and the one
``response-batch`` reply is sent only when every member resolved.

``payload`` is :meth:`repro.service.DecodeResponse.to_dict` *minus* the
request echo (the front end holds the request wire form and re-attaches it
when it builds the client's ``response`` frame — same codec, fewer bytes on
the pipe).  When ``slot`` is not ``None`` the request's defect indices live
in the syndrome slab at ``(slot, count)`` and the wire form's defect list is
empty — the zero-copy handoff path.

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
from ...graphs.syndrome import Syndrome
from .shm import SharedGraphPack, SyndromeSlab


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


def _shared_graph_factory(pack: SharedGraphPack | None):
    """A session factory that prefers graphs mapped from shared memory.

    Keys whose code was packed by the server reuse the shared arrays; any
    other key falls back to building its graph locally — correctness never
    depends on what the server chose to pre-pack.
    """
    if pack is None:
        return build_session
    packed = set(pack.keys())

    def factory(key: SessionKey) -> DecoderSession:
        code_key = key.code.key()
        if code_key in packed:
            return DecoderSession(pack.graph(code_key), key.decoder, key.config)
        return build_session(key)

    return factory


def _request_from_wire(wire: dict, slab: SyndromeSlab | None, slot, count) -> DecodeRequest:
    request = DecodeRequest.from_dict(wire)
    if slot is None:
        return request
    if slab is None:
        raise ValueError("slab slot referenced but no slab attached")
    defects = slab.read(slot, count)
    syndrome = request.syndrome
    return DecodeRequest(
        session=request.session,
        syndrome=Syndrome(
            defects=defects,
            error_edges=syndrome.error_edges,
            logical_flip=syndrome.logical_flip,
            erasures=syndrome.erasures,
        ),
        request_id=request.request_id,
    )


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
    pack_name: str | None,
    slab_name: str | None,
    slab_slots: int,
    slab_capacity: int,
    config_wire: dict,
    drain_timeout_seconds: float | None = 60.0,
) -> None:
    """Entry point of one worker process (target of ``multiprocessing.Process``).

    Runs until the pipe closes (front end died — exit quietly; the front end
    owns client-facing error handling) or a ``("drain",)`` command arrives
    (drain the in-flight work through ``DecodeService.close`` and ack with
    ``("drained",)``).
    """
    # The front end owns shutdown: a stray SIGTERM/SIGINT to the process
    # group must not kill workers mid-batch — drain arrives over the pipe.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    pack = SharedGraphPack.attach(pack_name) if pack_name else None
    slab = SyndromeSlab.attach(slab_name, slab_slots, slab_capacity) if slab_name else None
    config = ServiceConfig.from_dict(config_wire)
    service = DecodeService(config, session_factory=_shared_graph_factory(pack))
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
            # Submit the whole batch before awaiting anything: the service's
            # micro-batcher coalesces what is in its queue, so the batch
            # arrives as one wave, not a trickle of singles.
            for index, (seq, wire, slot, count) in enumerate(entries):
                try:
                    request = _request_from_wire(wire, slab, slot, count)
                    future = service.submit(request)
                except BaseException as exc:
                    batch.resolve(index, error_payload(f"{type(exc).__name__}: {exc}"))
                    continue
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
        elif command == "ping":
            send(("pong", message[1]))
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
    if slab is not None:
        slab.close()
    if pack is not None:
        pack.close()
