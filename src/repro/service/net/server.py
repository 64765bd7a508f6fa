"""The asyncio front end of the network decode service.

:class:`NetServer` is the process that owns the listening socket and the
worker pool:

* **Accept path.**  An asyncio TCP server speaks the length-prefixed
  protocol of :mod:`repro.service.net.protocol` (canonical JSON or the
  negotiated binary codec).  All connection state lives on the event loop;
  there is exactly one loop thread, so per-connection bookkeeping needs no
  locks.
* **Worker pool.**  ``processes`` worker processes are forked at
  :meth:`start` (before the loop thread exists — fork-safety), each hosting
  an in-process :class:`~repro.service.DecodeService` built from the same
  :class:`~repro.service.ServiceConfig`.  Requests travel over per-worker
  pipes; one reader thread per worker posts replies back into the loop with
  ``call_soon_threadsafe``.
* **Routing.**  A consistent-hash :class:`~repro.service.net.router.HashRing`
  maps each request's :meth:`~repro.service.SessionKey.key_hash` to a
  worker, so a session's decoder stays cached in one process.  Sessions are
  interned by their wire blob (:func:`~repro.service.intern_session`), so
  the front end parses, checks and hashes each one once, not per request.
* **Data plane.**  The ``prewarm`` decoding graphs are built once before
  the fork and inherited by every worker.  Binary request frames are
  scanned, not parsed: syndrome bytes ride the worker pipe unchanged, one
  ``request-batch`` message per worker, and the worker's response bodies
  are spliced into the client's frames as is.
* **Drain.**  :meth:`stop` (or SIGTERM under :meth:`run_forever`) closes the
  listener, tells clients via ``drain`` frames, waits for in-flight work,
  drains every worker's service, and joins the processes.  A worker that
  dies instead answers its in-flight requests with isolated
  ``STATUS_ERROR`` responses, leaves the ring, and its keys re-route — the
  contract is "errors, never a hang".
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
import signal
import socket
import threading
import time

from ..config import ServiceConfig
from ..request import intern_session
from . import protocol
from .protocol import (
    CODEC_BINARY,
    PROTOCOL_VERSION,
    ProtocolError,
    binary_kind,
    body_dict,
    check_version,
    decode_payload,
    encode_responses,
    error_body,
    negotiate_codec,
    pack_syndrome,
    read_frame,
    read_payload,
    scan_requests,
    session_blob,
    write_frame,
)
from .router import HashRing
from .worker import worker_main

#: Default bound on drain (stop/SIGTERM): in-flight wait + per-worker acks.
DEFAULT_DRAIN_TIMEOUT_SECONDS = 60.0

_REQUEST_KINDS = ("request", "request-batch")

logger = logging.getLogger(__name__)


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("worker_id", "process", "conn", "alive", "drained")

    def __init__(self, worker_id, process, conn):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.alive = True
        self.drained = threading.Event()


class _Pending:
    """One request/stream-op in flight between front end and a worker.

    ``request_wire`` is the request dict of a JSON-framed member (a v1
    response echoes it); ``None`` for a scanned binary member, whose answer
    body is spliced into the client's frame as is.
    """

    __slots__ = ("kind", "client", "frame_id", "request_wire", "worker_id")

    def __init__(self, kind, client, frame_id, request_wire, worker_id):
        self.kind = kind  # "request" | "stream"
        self.client = client
        self.frame_id = frame_id
        self.request_wire = request_wire
        self.worker_id = worker_id


class _Client:
    """Per-connection state (owned by the loop thread)."""

    __slots__ = ("writer", "open", "codec")

    def __init__(self, writer):
        self.writer = writer
        self.open = True
        self.codec = 1  # negotiated at the handshake; JSON until then


class NetServer:
    """Horizontally scaled decode service over TCP.

    ``prewarm`` is an iterable of :class:`~repro.service.CodeSpec` whose
    graphs are built once before the workers fork (and inherited by them);
    any other code spec still decodes (the worker builds its graph locally).

    Usage (embedded)::

        server = NetServer(ServiceConfig(workers=2), processes=2,
                           prewarm=[CodeSpec(3, physical_error_rate=0.02)])
        host, port = server.start()
        ... NetClient(host, port) ...
        server.stop()

    or standalone with signal-driven drain: :meth:`run_forever`.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        processes: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        prewarm=(),
        drain_timeout_seconds: float = DEFAULT_DRAIN_TIMEOUT_SECONDS,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.config = config if config is not None else ServiceConfig()
        if not isinstance(self.config, ServiceConfig):
            raise TypeError(f"config must be a ServiceConfig, got {type(config).__name__}")
        self.processes = processes
        self.host = host
        self.port = port
        self.prewarm = tuple(prewarm)
        self.drain_timeout_seconds = drain_timeout_seconds
        self._workers: dict[int, _Worker] = {}
        self._ring: HashRing | None = None
        self._pending: dict[int, _Pending] = {}
        self._streams: dict[tuple[int, int], int] = {}  # (client id, sid) -> worker
        self._clients: dict[int, _Client] = {}
        self._reader_threads: list[threading.Thread] = []
        self._seq = 0
        self._client_ids = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._ready = threading.Event()
        self._started = False
        self._stopped = False
        self._draining = False
        self._refusing = False  # second drain stage: workers are going away
        self._idle = asyncio.Event()  # set while no work is pending

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Build prewarm graphs, fork workers, start the loop thread; returns (host, port)."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        graphs = {}
        for spec in self.prewarm:
            if spec.key() not in graphs:
                graphs[spec.key()] = spec.build_graph()
        # Fork BEFORE any thread exists: fork() of a multithreaded process
        # can deadlock the child.  "fork" hands every worker the prewarm
        # graphs and module state for free; a "spawn"-only platform pickles
        # the graphs instead (slower start, same decodes).
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        for worker_id in range(self.processes):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=worker_main,
                name=f"repro-net-worker-{worker_id}",
                args=(
                    worker_id,
                    child_conn,
                    graphs,
                    self.config.to_dict(),
                    self.drain_timeout_seconds,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers[worker_id] = _Worker(worker_id, process, parent_conn)
        self._ring = HashRing(self._workers)
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-net-loop", daemon=True
        )
        self._loop_thread.start()
        self._ready.wait()
        for worker in self._workers.values():
            thread = threading.Thread(
                target=self._read_worker,
                args=(worker,),
                name=f"repro-net-reader-{worker.worker_id}",
                daemon=True,
            )
            thread.start()
            self._reader_threads.append(thread)
        return (self.host, self.port)

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._idle = asyncio.Event()
        self._idle.set()

        async def boot():
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._ready.set()

        self._loop.run_until_complete(boot())
        self._loop.run_forever()
        # Cancel whatever outlived run_forever, then close the loop cleanly.
        tasks = asyncio.all_tasks(self._loop)
        for task in tasks:
            task.cancel()
        if tasks:
            self._loop.run_until_complete(
                asyncio.gather(*tasks, return_exceptions=True)
            )
        self._loop.close()

    def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, drain workers."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        logger.info(
            "draining %d client(s) and %d in-flight request(s)",
            len(self._clients),
            len(self._pending),
        )
        began = time.monotonic()
        deadline = began + self.drain_timeout_seconds
        done = threading.Event()
        asyncio.run_coroutine_threadsafe(
            self._drain_async(done), self._loop
        )
        done.wait(self.drain_timeout_seconds)
        # From here on the workers are going away: late frames (a client
        # submitting past the drain notice and the in-flight wait) must be
        # refused rather than forwarded into drained workers.  The flag flip
        # AND the drain commands both run on the loop thread: a
        # multiprocessing Connection is not thread-safe, and the loop thread
        # may still be forwarding request frames on these same pipes —
        # routing the drain through the loop serialises the sends and also
        # guarantees no request frame follows the drain command onto a pipe.
        drain_sent = threading.Event()

        def refuse_and_drain_workers() -> None:
            self._refusing = True
            try:
                # Ask every live worker to drain; they answer ("drained",).
                for worker in list(self._workers.values()):
                    if not worker.alive:
                        continue
                    try:
                        worker.conn.send(("drain",))
                    except (BrokenPipeError, OSError):
                        self._on_worker_death(worker)
            finally:
                drain_sent.set()

        self._loop.call_soon_threadsafe(refuse_and_drain_workers)
        drain_sent.wait(max(0.0, deadline - time.monotonic()))
        for worker in self._workers.values():
            if worker.alive:
                worker.drained.wait(max(0.0, deadline - time.monotonic()))
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(5.0)
        for thread in self._reader_threads:
            thread.join(1.0)
        logger.info("drained in %.3f s", time.monotonic() - began)

    async def _drain_async(self, done: threading.Event) -> None:
        """Loop-side half of stop(): notify clients, wait for in-flight.

        Frames a client sent before it saw the ``drain`` notice are already
        admitted — they keep being served; a well-behaved client
        (:class:`~repro.service.net.client.NetClient`) refuses *new* work
        locally once notified, and ``drain_timeout_seconds`` bounds the rest.
        """
        try:
            self._draining = True
            self._server.close()
            await self._server.wait_closed()
            # Snapshot: _handle_client's finally block deletes entries from
            # _clients whenever a connection drops, and the awaits below
            # yield to exactly those tasks — iterating the live dict would
            # die with "dictionary changed size during iteration".
            for client in list(self._clients.values()):
                if client.open:
                    try:
                        write_frame(
                            client.writer, {"kind": "drain", "reason": "server stopping"}
                        )
                        await client.writer.drain()
                    except (ConnectionError, OSError):
                        client.open = False
            deadline = self._loop.time() + self.drain_timeout_seconds
            while self._loop.time() < deadline:
                if self._pending:
                    self._idle.clear()
                    try:
                        await asyncio.wait_for(
                            self._idle.wait(), deadline - self._loop.time()
                        )
                    except asyncio.TimeoutError:  # pragma: no cover - wedged worker
                        break
                # One settle tick: frames already inside connection buffers get
                # parsed and registered before we conclude the drain is complete.
                await asyncio.sleep(0.05)
                if not self._pending:
                    break
        finally:
            # stop() blocks on this event; an exception anywhere above must
            # not turn into a full drain_timeout_seconds stall.
            done.set()

    def run_forever(self) -> None:
        """Standalone serving: start, then drain on SIGTERM/SIGINT and exit."""
        stop_signal = threading.Event()

        def on_signal(signum, _frame):
            stop_signal.set()

        previous_term = signal.signal(signal.SIGTERM, on_signal)
        previous_int = signal.signal(signal.SIGINT, on_signal)
        try:
            host, port = self.start()
            print(
                f"serving on {host}:{port} pid={os.getpid()} "
                f"processes={self.processes} config={self.config.config_hash()}",
                flush=True,
            )
            stop_signal.wait()
            self.stop()
        finally:
            signal.signal(signal.SIGTERM, previous_term)
            signal.signal(signal.SIGINT, previous_int)

    # ------------------------------------------------------------------
    # worker plumbing (reader threads -> loop thread)
    # ------------------------------------------------------------------
    def _read_worker(self, worker: _Worker) -> None:
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                if not self._stopped:
                    self._loop.call_soon_threadsafe(self._on_worker_death, worker)
                return
            if message[0] == "drained":
                worker.drained.set()
                return
            self._loop.call_soon_threadsafe(self._on_worker_message, worker, message)

    def _on_worker_message(self, worker: _Worker, message: tuple) -> None:
        kind = message[0]
        if kind == "response-batch":
            _, entries = message
            answers = []
            for seq, body in entries:
                pending = self._pending.pop(seq, None)
                if pending is None:
                    continue
                answers.append((pending, body))
            self._answer_batch(answers)
        elif kind == "stream-reply":
            _, seq, result = message
            pending = self._pending.pop(seq, None)
            if pending is None:
                return
            self._answer(pending, result)
        if not self._pending:
            self._idle.set()

    def _answer(self, pending: _Pending, payload) -> None:
        """Answer one request (``payload`` is its binary body) or stream op."""
        client = pending.client
        if not client.open:
            return
        if pending.kind != "request":
            frame = {"kind": "stream-reply", "id": pending.frame_id, "result": payload}
        elif client.codec >= CODEC_BINARY and pending.request_wire is None:
            self._splice(client, [(pending.frame_id, payload)])
            return
        else:
            # Read the body back: a v1 response embeds the request echo,
            # and a binary client's JSON-framed member may carry an id the
            # binary layout cannot (encode_frame then falls back to JSON).
            body = body_dict(payload)
            if client.codec < CODEC_BINARY:
                body["request"] = pending.request_wire
            frame = {"kind": "response", "id": pending.frame_id, "response": body}
        if not self._write(client, frame):
            self._refuse_too_large(client, pending.frame_id)

    def _write(self, client: _Client, frame: dict) -> bool:
        """Queue ``frame`` to ``client``; ``False`` if it exceeds MAX_FRAME_BYTES."""
        try:
            write_frame(client.writer, frame, client.codec)
        except ProtocolError:
            return False
        except (ConnectionError, OSError):  # pragma: no cover - racing close
            client.open = False
        return True

    def _refuse_too_large(self, client: _Client, frame_id) -> None:
        # A v1 response embeds its request echo, so it can outgrow a frame
        # its request fit in: fail that one id, keep the connection.
        self._refuse(
            client,
            frame_id,
            f"response too large for one frame (MAX_FRAME_BYTES={protocol.MAX_FRAME_BYTES})",
        )

    def _answer_batch(self, answers) -> None:
        """Answer a worker's response batch: one frame per binary client.

        Scanned members' bodies are spliced into one ``response`` (a lone
        answer) or ``response-batch`` frame per client; every other answer
        goes through :meth:`_answer`.
        """
        by_client: dict[int, tuple[_Client, list]] = {}
        for pending, body in answers:
            client = pending.client
            if client.codec < CODEC_BINARY or pending.request_wire is not None:
                self._answer(pending, body)
            elif client.open:
                by_client.setdefault(id(client), (client, []))[1].append((pending.frame_id, body))
        for client, members in by_client.values():
            self._splice(client, members)

    def _splice(self, client: _Client, members: list) -> None:
        """Write ``(frame id, body)`` pairs as binary response frames,
        halving any frame that would exceed MAX_FRAME_BYTES."""
        chunks = [members]
        while chunks and client.open:
            chunk = chunks.pop()
            try:
                data = encode_responses(chunk)
            except ProtocolError:
                if len(chunk) == 1:
                    self._refuse_too_large(client, chunk[0][0])
                else:
                    mid = len(chunk) // 2
                    chunks += (chunk[mid:], chunk[:mid])
                continue
            try:
                client.writer.write(data)
            except (ConnectionError, OSError):  # pragma: no cover - racing close
                client.open = False

    def _on_worker_death(self, worker: _Worker) -> None:
        """A worker died: isolate the blast radius, re-route its keys."""
        if not worker.alive:
            return
        worker.alive = False
        worker.drained.set()
        self._ring.remove(worker.worker_id)
        dead = [
            (seq, pending)
            for seq, pending in self._pending.items()
            if pending.worker_id == worker.worker_id
        ]
        logger.warning(
            "worker %d (pid %s) died; failing its %d pending request(s)",
            worker.worker_id,
            worker.process.pid,
            sum(pending.kind == "request" for _seq, pending in dead),
        )
        for seq, pending in dead:
            del self._pending[seq]
            if pending.kind == "request":
                self._answer(
                    pending,
                    error_body(f"WorkerDied: worker {worker.worker_id} exited mid-request"),
                )
            else:
                self._answer(
                    pending,
                    {"error": f"WorkerDied: worker {worker.worker_id} exited mid-stream"},
                )
        self._streams = {
            key: owner for key, owner in self._streams.items() if owner != worker.worker_id
        }
        if not self._pending:
            self._idle.set()

    def _route(self, key_hash: str) -> _Worker | None:
        while True:
            try:
                worker_id = self._ring.route(key_hash)
            except LookupError:
                return None
            worker = self._workers[worker_id]
            if worker.alive:
                return worker
            # The reader thread has not posted the death yet; drop the
            # worker here and re-route.
            self._on_worker_death(worker)

    def _send_to_worker(self, worker: _Worker, message: tuple) -> bool:
        try:
            worker.conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            self._on_worker_death(worker)
            return False

    # ------------------------------------------------------------------
    # client connections (loop thread)
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        self._client_ids += 1
        client_id = self._client_ids
        client = _Client(writer)
        self._clients[client_id] = client
        try:
            # Explicit coalescing controls batching on this connection;
            # Nagle's algorithm must not add its own 40 ms stalls on top.
            raw_socket = writer.get_extra_info("socket")
            if raw_socket is not None:
                raw_socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = await read_frame(reader)
            if hello is None:
                return
            if hello.get("kind") != "hello":
                raise ProtocolError(f"expected hello, got {hello.get('kind')!r}")
            check_version(hello)
            client.codec = negotiate_codec(hello.get("codecs"))
            write_frame(
                writer,
                {
                    "kind": "welcome",
                    "version": PROTOCOL_VERSION,
                    "workers": len(self._ring),
                    "config_hash": self.config.config_hash(),
                    "codec": client.codec,
                    "coalesce": {
                        "max_bytes": self.config.coalesce_max_bytes,
                        "max_delay_seconds": self.config.coalesce_max_delay_seconds,
                    },
                },
            )
            await writer.drain()
            while True:
                payload = await read_payload(reader)
                if payload is None:
                    return
                if client.codec >= CODEC_BINARY and binary_kind(payload) in _REQUEST_KINDS:
                    self._admit(client, scan_requests(payload))
                else:
                    frame = decode_payload(payload)
                    if frame.get("kind") == "bye":
                        return
                    self._handle_frame(client_id, client, frame)
                await writer.drain()
        except ProtocolError as exc:
            try:
                write_frame(writer, {"kind": "error", "id": None, "error": str(exc)})
                await writer.drain()
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError):
            pass
        finally:
            client.open = False
            del self._clients[client_id]
            self._close_client_streams(client_id)
            try:
                writer.close()
            except OSError:  # pragma: no cover
                pass

    def _close_client_streams(self, client_id: int) -> None:
        """Drop a disconnected client's stream state, here and in workers.

        Without this, every client that drops mid-stream would leak its
        ``_streams`` entries and the worker-side ``ServiceStream`` objects
        for the server's lifetime.
        """
        orphaned = [key for key in self._streams if key[0] == client_id]
        for key in orphaned:
            worker_id = self._streams.pop(key)
            worker = self._workers.get(worker_id)
            if worker is not None and worker.alive:
                self._send_to_worker(worker, ("stream-close", f"{key[0]}:{key[1]}"))

    def _refuse(self, client: _Client, frame_id, reason: str) -> None:
        write_frame(client.writer, {"kind": "error", "id": frame_id, "error": reason})

    def _handle_frame(self, client_id: int, client: _Client, frame: dict) -> None:
        kind = frame.get("kind")
        # A request-batch frame lists its members; any other frame is its
        # own single member (a request frame carries ``id`` and ``request``
        # just like a batch member does).
        members = frame.get("requests") if kind == "request-batch" else [frame]
        if not isinstance(members, list):
            self._refuse(client, frame.get("id"), "bad request-batch: requests must be an array")
        elif self._refusing:
            # Refuse member by member: a connection-level (null-id)
            # error would fail the client's unrelated in-flight work.
            for member in members:
                if isinstance(member, dict):
                    self._refuse(client, member.get("id"), "server is draining")
        elif kind in _REQUEST_KINDS:
            self._admit(client, *self._pack_members(client, members))
        elif kind == "stream-open":
            self._handle_stream_open(client_id, client, frame)
        elif kind == "stream-op":
            self._handle_stream_op(client_id, client, frame)
        else:
            self._refuse(client, frame.get("id"), f"unknown frame kind {kind!r}")

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _pack_members(self, client: _Client, members: list) -> tuple[list, list]:
        """The :func:`~repro.service.net.protocol.request_member` tuples and
        request dicts of JSON-framed members, each syndrome packed once.

        A member whose syndrome cannot be packed (not an object, or an index
        that is not an integer in ``[0, 2**32)``) is refused with a ``bad
        request`` error here, so the worker pipe only carries decodable
        syndromes, and a float defect is never truncated into another one.
        """
        packed, wires = [], []
        for member in members:
            if not isinstance(member, dict):
                continue
            wire = member.get("request")
            try:
                blob = session_blob(wire["session"])
                syndrome = pack_syndrome(wire["syndrome"])
            except Exception as exc:
                self._refuse(client, member.get("id"), f"bad request: {type(exc).__name__}: {exc}")
                continue
            packed.append((member.get("id"), blob, wire.get("request_id", 0), syndrome))
            wires.append(wire)
        return packed, wires

    def _admit(self, client: _Client, members: list, wires: list | None = None) -> None:
        """Admit request members ``(frame id, session blob, request id,
        syndrome bytes)``: route each, and forward each worker's group as a
        single pipe message.  Bad members are refused individually; the
        rest proceed.  ``wires`` holds the request dicts of JSON-framed
        members (``None`` for a scanned binary frame).

        Sessions go through :func:`~repro.service.intern_session` by their
        blob, so each distinct session is parsed, checked and hashed once
        in this process, not once per request.
        """
        if self._refusing:
            # Refuse member by member: a connection-level (null-id)
            # error would fail the client's unrelated in-flight work.
            for member in members:
                self._refuse(client, member[0], "server is draining")
            return
        groups: dict[int, list] = {}
        for index, (frame_id, blob, request_id, syndrome) in enumerate(members):
            wire = None if wires is None else wires[index]
            try:
                key_hash = intern_session(blob).key_hash()
            except Exception as exc:
                self._refuse(client, frame_id, f"bad request: {type(exc).__name__}: {exc}")
                continue
            worker = self._route(key_hash)
            if worker is None:
                self._answer(
                    _Pending("request", client, frame_id, wire, -1),
                    error_body("NoWorkers: every worker process has exited"),
                )
                continue
            seq = self._next_seq()
            self._pending[seq] = _Pending("request", client, frame_id, wire, worker.worker_id)
            groups.setdefault(worker.worker_id, []).append((seq, blob, syndrome, request_id))
        for worker_id, entries in groups.items():
            self._idle.clear()
            # On a dead pipe _on_worker_death answers these pendings.
            self._send_to_worker(self._workers[worker_id], ("request-batch", entries))

    def _handle_stream_open(self, client_id: int, client: _Client, frame: dict) -> None:
        frame_id = frame.get("id")
        sid = frame.get("stream")
        try:
            blob = session_blob(frame["session"])
            key_hash = intern_session(blob).key_hash()
        except Exception as exc:
            self._refuse(client, frame_id, f"bad session: {type(exc).__name__}: {exc}")
            return
        worker = self._route(key_hash)
        if worker is None:
            self._refuse(client, frame_id, "NoWorkers: every worker process has exited")
            return
        self._streams[(client_id, sid)] = worker.worker_id
        seq = self._next_seq()
        self._pending[seq] = _Pending("stream", client, frame_id, None, worker.worker_id)
        self._idle.clear()
        self._send_to_worker(
            worker,
            (
                "stream-open",
                seq,
                f"{client_id}:{sid}",
                blob,
                frame.get("window"),
                frame.get("commit_depth"),
            ),
        )

    def _handle_stream_op(self, client_id: int, client: _Client, frame: dict) -> None:
        frame_id = frame.get("id")
        sid = frame.get("stream")
        worker_id = self._streams.get((client_id, sid))
        if worker_id is None:
            self._refuse(client, frame_id, f"unknown stream {sid!r}")
            return
        worker = self._workers[worker_id]
        if not worker.alive:
            self._refuse(client, frame_id, f"WorkerDied: stream {sid!r} lost its worker")
            return
        op = frame.get("op")
        if op == "finalize":
            self._streams.pop((client_id, sid), None)
        seq = self._next_seq()
        self._pending[seq] = _Pending("stream", client, frame_id, None, worker.worker_id)
        self._idle.clear()
        self._send_to_worker(
            worker, ("stream-op", seq, f"{client_id}:{sid}", op, frame.get("payload"))
        )
