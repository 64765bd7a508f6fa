"""The worker-process side of the network decode service.

Each worker process runs :func:`worker_main`: it hosts one ordinary
in-process :class:`~repro.service.DecodeService` built from the server's
:class:`~repro.service.ServiceConfig` (decoding on the prewarmed graphs the
server built before forking), and speaks a small tuple protocol with the
front end through a blocking :class:`multiprocessing.connection.Connection`
over a socketpair, whose other end the front end's event loop reads:

==============================================  ========================================
server → worker                                 worker → server
==============================================  ========================================
``("request-batch", seq, [(blob, syn, id)])``   ``("response-batch", seq, [body])``
``("stream-open", seq, sid, blob, w, c)``       ``("stream-reply", seq, result)``
``("stream-op", seq, sid, op, payload)``        ``("stream-reply", seq, result)``
``("stream-close", sid)``                       *(no reply)*
``("drain",)``                                  ``("drained",)``
==============================================  ========================================

Every decode request rides a ``request-batch`` message (a lone client
request is a batch of one), and the batch is the unit end to end: the
worker's main thread decodes it in one
:meth:`~repro.service.DecodeService.decode_group` call — each session's
members in batches of at most ``max_batch_size``, with no queue, dispatcher
or pool thread in between — and sends the one ``response-batch`` reply
itself.  It reads the next pipe message only after that reply, so a busy
worker's backlog waits in the front end's pipe transport, not in the
service's admission queue; the queue, the overload policy,
``max_wait_seconds`` and the ``workers`` pool serve stream operations only.

Decode requests cross the pipe in their wire encoding, bytes in and bytes
out.  A request travels as its session's JSON ``blob``, its syndrome ``syn``
in the binary codec's syndrome layout (the byte span the client sent, or
the front end's one packing of a JSON client's syndrome) and its
``request_id``.  The worker turns the blob into a key through
:func:`~repro.service.intern_session`, so a session is parsed and checked
once per worker process and every request of it shares one key object, and
builds the :class:`~repro.graphs.Syndrome` straight from the bytes.  Each
answer goes back as its binary response ``body``
(:func:`~repro.service.net.protocol.response_body`, which carries no
request echo): the front end splices it into a binary client's frame as
is, and reads it back only for a JSON client, whose response embeds the
request echo.

Decode results are bit-identical to in-process serving by construction: the
worker *is* an in-process service; the network layer around it only moves
bytes.
"""

from __future__ import annotations

import signal
import threading
from collections import Counter

from ..config import ServiceConfig
from ..cache import build_session
from ..request import DecodeRequest, SessionKey, intern_session
from ..service import DecodeService
from ...api.session import DecoderSession
from ...api.wireform import dump
from .protocol import error_body, response_body, syndrome_object


def _body(response) -> bytes:
    try:
        return response_body(response)
    except Exception as exc:  # a field the binary layout cannot carry
        return error_body(f"{type(exc).__name__}: {exc}")


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


def _stream_result_wire(result):
    """Serialise a stream-op result (None, a Counter, or a DecodeOutcome)."""
    if result is None:
        return None
    if hasattr(result, "to_dict"):
        return {"outcome": result.to_dict()}
    return {"counters": dump(Counter, result)}


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
        # Stream replies go out from pool threads; one pipe, one writer at a time.
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
            _, seq, entries = message
            bodies: list = [None] * len(entries)
            indices, requests = [], []
            for index, (blob, syndrome, request_id) in enumerate(entries):
                try:
                    requests.append(
                        DecodeRequest(
                            intern_session(blob), syndrome_object(syndrome), int(request_id)
                        )
                    )
                except Exception as exc:
                    bodies[index] = error_body(f"{type(exc).__name__}: {exc}")
                    continue
                indices.append(index)
            try:
                answers = [_body(response) for response in service.decode_group(requests)]
            except Exception as exc:
                answers = [error_body(f"{type(exc).__name__}: {exc}")] * len(indices)
            for index, body in zip(indices, answers):
                bodies[index] = body
            send(("response-batch", seq, bodies))
        elif command == "stream-open":
            _, seq, sid, blob, window, commit_depth = message
            try:
                streams[sid] = service.open_stream(
                    intern_session(blob), window=window, commit_depth=commit_depth
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
    # Drain the stream operations already admitted; every pending future
    # resolves (and its callback sends the reply) before close() returns.
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
