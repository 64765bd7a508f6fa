"""The asyncio front end of the network decode service.

:class:`NetServer` is the process that owns the listening socket and the
worker pool:

* **Accept path.**  An asyncio TCP server speaks the length-prefixed
  protocol of :mod:`repro.service.net.protocol` (canonical JSON, plus
  binary request frames on a connection that negotiated codec 2).  All
  connection state lives on the event loop;
  there is exactly one loop thread, so per-connection bookkeeping needs no
  locks.
* **Worker pool.**  ``processes`` worker processes are forked at
  :meth:`start` (before the loop thread exists — fork-safety), each hosting
  an in-process :class:`~repro.service.DecodeService` built from the same
  :class:`~repro.service.ServiceConfig`.  Requests travel over per-worker
  socketpairs in :class:`multiprocessing.connection.Connection` framing; the
  loop reads and writes the front end's ends as asyncio transports, so a
  worker's reply costs no thread hop and a send to a busy worker waits in
  the transport's buffer (past its high-water mark, no client is read).
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
import pickle
import signal
import socket
import threading
import time
from multiprocessing.connection import Connection
from typing import NamedTuple

from ...api.hashing import canonical_json
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
    encode_frame,
    encode_responses,
    error_body,
    negotiate_codec,
    pack_syndrome,
    pop_frames,
    scan_requests,
)
from .router import HashRing
from .worker import worker_main

#: Default bound on drain (stop/SIGTERM): in-flight wait + per-worker acks.
DEFAULT_DRAIN_TIMEOUT_SECONDS = 60.0

_REQUEST_KINDS = ("request", "request-batch")

logger = logging.getLogger(__name__)


class _Framed(asyncio.Protocol):
    """A connection the loop reads: each complete frame of at most
    ``limit`` bytes goes to :meth:`on_payload` as it arrives."""

    limit: int | None = None

    def __init__(self, server):
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        while payloads := pop_frames(self.buffer, self.limit):
            for payload in payloads:
                self.on_payload(payload)


class _Worker(_Framed):
    """Parent-side handle of one worker process and its pipe, which speaks
    :class:`~multiprocessing.connection.Connection`'s framing (a 4-byte
    big-endian length, then a pickle), so the worker keeps its blocking
    ``recv``/``send``.  End of file means the worker died."""

    def __init__(self, server, worker_id, process, sock):
        super().__init__(server)
        self.worker_id = worker_id
        self.process = process
        self.sock = sock  # the loop wraps it in ``transport`` at start
        self.alive = True
        self.drained = threading.Event()

    def send(self, message: tuple) -> bool:
        """Queue ``message`` on the pipe; ``False`` once the pipe is gone."""
        if self.transport.is_closing():
            return False
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        self.transport.write(len(data).to_bytes(4, "big") + data)
        return True

    def on_payload(self, payload: bytes) -> None:
        # Pipe messages are the front end's and its workers' own pickles.
        self.server._on_worker_message(self, pickle.loads(payload))

    def pause_writing(self) -> None:
        self.server._set_busy(self, True)

    def resume_writing(self) -> None:
        self.server._set_busy(self, False)

    def connection_lost(self, exc) -> None:
        if not self.server._stopped:
            self.server._on_worker_death(self)


class _Pending(NamedTuple):
    """Work in flight on a worker: one stream op, or the request members of
    one pipe message, all from one client frame.

    ``wires`` holds the request dicts of JSON-framed members, which are
    answered in JSON (with the echo on a codec-1 connection); ``None`` for
    a scanned binary frame, whose answer bodies are spliced into the
    client's frames as is.
    """

    kind: str  # "request" | "stream"
    client: "_Client"
    frame_ids: list
    wires: list | None
    worker_id: int


class _Client(_Framed):
    """One client connection, owned by the loop thread: frames are parsed
    as they arrive and handed to the server; replies go to the transport."""

    limit = protocol.MAX_FRAME_BYTES

    def __init__(self, server, client_id):
        super().__init__(server)
        self.client_id = client_id
        self.open = True
        self.backlogged = False
        self.greeted = False
        self.codec = 1  # negotiated at the handshake; JSON until then

    def connection_made(self, transport) -> None:
        # asyncio's TCP transport sets TCP_NODELAY: the coalescers decide
        # when bytes wait, Nagle's algorithm must not add its own stalls.
        super().connection_made(transport)
        self.server._clients[self.client_id] = self
        self.flow()

    def data_received(self, data: bytes) -> None:
        try:
            super().data_received(data)
        except ProtocolError as exc:
            self.write({"kind": "error", "id": None, "error": str(exc)})
            self.close()

    def on_payload(self, payload: bytes) -> None:
        if self.open:
            self.server._on_payload(self, payload)

    def write(self, frame: dict) -> None:
        """Queue ``frame`` as JSON; :class:`ProtocolError` past MAX_FRAME_BYTES."""
        if self.open:
            self.transport.write(encode_frame(frame))

    def close(self) -> None:
        self.open = False
        self.transport.close()

    # Flow control: read a client only while neither its own replies nor
    # any worker pipe is backed up past the transport's high-water mark.
    def pause_writing(self) -> None:
        self.backlogged = True
        self.flow()

    def resume_writing(self) -> None:
        self.backlogged = False
        self.flow()

    def flow(self) -> None:
        if self.backlogged or self.server._busy:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    def connection_lost(self, exc) -> None:
        self.open = False
        del self.server._clients[self.client_id]
        self.server._close_client_streams(self.client_id)


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
        self._busy: set[int] = set()  # workers whose pipe is backed up
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
            parent_sock, child_sock = socket.socketpair()
            child_conn = Connection(child_sock.detach())
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
            self._workers[worker_id] = _Worker(self, worker_id, process, parent_sock)
        self._ring = HashRing(self._workers)
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-net-loop", daemon=True
        )
        self._loop_thread.start()
        self._ready.wait()
        return (self.host, self.port)

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._idle = asyncio.Event()
        self._idle.set()

        async def boot():
            for worker in self._workers.values():
                await self._loop.connect_accepted_socket(lambda w=worker: w, worker.sock)
            self._server = await self._loop.create_server(
                self._new_client, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._ready.set()

        self._loop.run_until_complete(boot())
        self._loop.run_forever()
        for connection in [*self._workers.values(), *self._clients.values()]:
            connection.transport.abort()
        # Cancel whatever outlived run_forever (a tick lets the transports
        # close), then close the loop cleanly.
        self._loop.run_until_complete(asyncio.sleep(0))
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
        for worker in self._workers.values():
            if worker.alive:
                worker.drained.wait(max(0.0, deadline - time.monotonic()))
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(5.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(5.0)
        logger.info("drained in %.3f s", time.monotonic() - began)

    async def _drain_async(self, done: threading.Event) -> None:
        """Loop-side half of stop(): notify clients, wait for in-flight,
        then refuse late frames and ask every worker to drain.

        Frames a client sent before it saw the ``drain`` notice are already
        admitted — they keep being served; a well-behaved client
        (:class:`~repro.service.net.client.NetClient`) refuses *new* work
        locally once notified, and ``drain_timeout_seconds`` bounds the rest.
        """
        try:
            self._draining = True
            self._server.close()
            await self._server.wait_closed()
            for client in self._clients.values():
                client.write({"kind": "drain", "reason": "server stopping"})
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
            # The workers are going away: late frames are refused, not
            # forwarded into drained workers, and since the loop thread owns
            # the pipes no request frame follows a drain command onto one.
            self._refusing = True
            for worker in list(self._workers.values()):
                if worker.alive:
                    self._send_to_worker(worker, ("drain",))  # answered ("drained",)
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
    # worker plumbing (loop thread)
    # ------------------------------------------------------------------
    def _on_worker_message(self, worker: _Worker, message: tuple) -> None:
        # ("response-batch", seq, bodies), ("stream-reply", seq, result) or ("drained",)
        if message[0] == "drained":
            worker.drained.set()
        elif (pending := self._pending.pop(message[1], None)) is not None:
            self._answer(pending, message[2])
        if not self._pending:
            self._idle.set()

    def _answer(self, pending: _Pending, result) -> None:
        """Answer a stream op with its ``result``, or request members with
        their binary bodies (``result``, in member order)."""
        client = pending.client
        if not client.open:
            return
        if pending.kind == "stream":
            frames = [{"kind": "stream-reply", "id": pending.frame_ids[0], "result": result}]
        elif pending.wires is None:
            self._splice(client, list(zip(pending.frame_ids, result)))
            return
        else:
            # A JSON-framed member is answered in JSON: its body read back,
            # plus the request echo on a codec-1 connection.
            frames = []
            for frame_id, wire, body in zip(pending.frame_ids, pending.wires, result):
                response = body_dict(body)
                if client.codec < CODEC_BINARY:
                    response["request"] = wire
                frames.append({"kind": "response", "id": frame_id, "response": response})
        for frame in frames:
            try:
                client.write(frame)
            except ProtocolError:
                self._refuse_too_large(client, frame["id"])

    def _refuse_too_large(self, client: _Client, frame_id) -> None:
        # A v1 response embeds its request echo, so it can outgrow a frame
        # its request fit in: fail that one id, keep the connection.
        reason = f"response too large for one frame (MAX_FRAME_BYTES={protocol.MAX_FRAME_BYTES})"
        self._refuse(client, frame_id, reason)

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
            client.transport.write(data)

    def _set_busy(self, worker: _Worker, busy: bool) -> None:
        (self._busy.add if busy else self._busy.discard)(worker.worker_id)
        for client in self._clients.values():
            client.flow()

    def _on_worker_death(self, worker: _Worker) -> None:
        """A worker died: isolate the blast radius, re-route its keys."""
        if not worker.alive:
            return
        worker.alive = False
        worker.drained.set()
        self._set_busy(worker, False)
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
            sum(len(pending.frame_ids) for _seq, pending in dead if pending.kind == "request"),
        )
        for seq, pending in dead:
            del self._pending[seq]
            if pending.kind == "request":
                body = error_body(f"WorkerDied: worker {worker.worker_id} exited mid-request")
                self._answer(pending, [body] * len(pending.frame_ids))
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
            # The pipe has not reported the death yet; drop the worker
            # here and re-route.
            self._on_worker_death(worker)

    def _send_to_worker(self, worker: _Worker, message: tuple) -> bool:
        if worker.send(message):
            return True
        self._on_worker_death(worker)
        return False

    # ------------------------------------------------------------------
    # client connections (loop thread)
    # ------------------------------------------------------------------
    def _new_client(self) -> _Client:
        self._client_ids += 1
        return _Client(self, self._client_ids)

    def _on_payload(self, client: _Client, payload: bytes) -> None:
        """Handle one frame of ``client`` (the first one must be ``hello``)."""
        if not client.greeted:
            hello = decode_payload(payload)
            if hello.get("kind") != "hello":
                raise ProtocolError(f"expected hello, got {hello.get('kind')!r}")
            check_version(hello)
            client.codec = negotiate_codec(hello.get("codecs"))
            client.greeted = True
            client.write(
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
                }
            )
        elif client.codec >= CODEC_BINARY and binary_kind(payload) in _REQUEST_KINDS:
            self._admit(client, scan_requests(payload))
        else:
            # Refuses any other binary payload with a connection-level error.
            frame = decode_payload(payload)
            if frame.get("kind") == "bye":
                client.close()
            else:
                self._handle_frame(client.client_id, client, frame)

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
        client.write({"kind": "error", "id": frame_id, "error": reason})

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
        elif kind in ("stream-open", "stream-op") and isinstance(frame.get("stream"), (list, dict)):
            # Stream ids key a dict: refuse one that cannot, this frame only.
            self._refuse(client, frame.get("id"), "bad stream id: must be a JSON scalar")
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
                blob = canonical_json(wire["session"])
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
        groups: dict[int, tuple[_Pending, list]] = {}  # worker id -> pending, entries
        routes: dict[str, _Worker | None] = {}  # one routing per session blob
        for index, (frame_id, blob, request_id, syndrome) in enumerate(members):
            wire = None if wires is None else [wires[index]]
            try:
                worker = routes[blob]
            except KeyError:
                try:
                    key_hash = intern_session(blob).key_hash()
                except Exception as exc:
                    self._refuse(client, frame_id, f"bad request: {type(exc).__name__}: {exc}")
                    continue
                worker = routes[blob] = self._route(key_hash)
            if worker is None:
                pending = _Pending("request", client, [frame_id], wire, -1)
                self._answer(pending, [error_body("NoWorkers: every worker process has exited")])
                continue
            group = groups.get(worker.worker_id)
            if group is None:
                ids, group_wires = [], None if wires is None else []
                pending = _Pending("request", client, ids, group_wires, worker.worker_id)
                group = groups[worker.worker_id] = (pending, [])
            group[0].frame_ids.append(frame_id)
            if wire is not None:
                group[0].wires.extend(wire)
            group[1].append((blob, syndrome, request_id))
        for worker_id, (pending, entries) in groups.items():
            seq = self._next_seq()
            self._pending[seq] = pending
            self._idle.clear()
            # On a dead pipe _on_worker_death answers these members.
            self._send_to_worker(self._workers[worker_id], ("request-batch", seq, entries))

    def _handle_stream_open(self, client_id: int, client: _Client, frame: dict) -> None:
        frame_id = frame.get("id")
        sid = frame.get("stream")
        try:
            blob = canonical_json(frame["session"])
            key_hash = intern_session(blob).key_hash()
        except Exception as exc:
            self._refuse(client, frame_id, f"bad session: {type(exc).__name__}: {exc}")
            return
        worker = self._route(key_hash)
        if worker is None:
            self._refuse(client, frame_id, "NoWorkers: every worker process has exited")
            return
        self._streams[(client_id, sid)] = worker.worker_id
        args = (blob, frame.get("window"), frame.get("commit_depth"))
        self._forward_stream(client, frame_id, worker, "stream-open", sid, *args)

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
        self._forward_stream(client, frame_id, worker, "stream-op", sid, op, frame.get("payload"))

    def _forward_stream(self, client: _Client, frame_id, worker: _Worker, command, sid, *args):
        """Send ``(command, seq, "<client id>:<sid>", *args)`` to ``worker``;
        its ``stream-reply`` answers ``frame_id``."""
        seq = self._next_seq()
        self._pending[seq] = _Pending("stream", client, [frame_id], None, worker.worker_id)
        self._idle.clear()
        self._send_to_worker(worker, (command, seq, f"{client.client_id}:{sid}", *args))
