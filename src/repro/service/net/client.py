"""Synchronous, pipelined client of the network decode service.

:class:`NetClient` mirrors the in-process :class:`~repro.service.DecodeService`
surface — ``submit`` returning a future, ``decode``/``decode_many`` blocking
wrappers, ``open_stream`` — over one TCP connection speaking the protocol of
:mod:`repro.service.net.protocol`.  Requests are **pipelined**: ``submit``
writes the frame and returns immediately; a background reader thread matches
``response`` frames back to futures by frame id, so a closed-loop client with
``depth`` outstanding futures keeps ``depth`` requests in flight without any
extra threads.

On top of pipelining the client batches at two levels (binary codec only):

* :meth:`decode_many` packs its requests into ``request-batch`` frames, one
  per predicted target worker (the consistent-hash ring is a pure function
  of the worker-id set, so the client can compute the server's routing),
  splitting a batch whose frame would exceed ``MAX_FRAME_BYTES``.
* :meth:`submit` runs a Nagle-style coalescer: a request is written
  immediately while the connection is otherwise idle, but once responses
  are outstanding further submissions buffer and flush as one
  ``request-batch`` when the buffer reaches ``coalesce.max_bytes`` or its
  oldest member has waited ``coalesce.max_delay_seconds`` (both advertised
  by the server's ``welcome`` frame).

The codec is negotiated at the handshake (``codecs=(1,)`` forces canonical
JSON — the legacy v1 wire format).  On a binary connection each request is
encoded once, from the :class:`~repro.service.DecodeRequest` object (its
key's memoised blob plus its packed syndrome), and each response body is
read straight into a :class:`~repro.service.DecodeResponse`.  Binary
``response`` frames carry no request echo; either way the client swaps in
its *local* request object so identity comparisons
(``response.request is request``) behave exactly as they do against an
in-process service.  :meth:`wire_stats` reports the negotiated codec,
byte/frame counts in both directions, and the coalesced-batch-size
histogram.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import Counter
from concurrent.futures import Future

from ...api.outcome import DecodeOutcome
from ...api.wireform import load
from ..request import DecodeRequest, DecodeResponse, SessionKey
from . import protocol
from .protocol import (
    CODEC_BINARY,
    PROTOCOL_VERSION,
    SUPPORTED_CODECS,
    ProtocolError,
    binary_kind,
    check_version,
    decode_payload,
    read_frame_sync,
    read_payload_sync,
    read_responses,
    request_member,
    write_frame_sync,
)
from .router import HashRing


class ServerDrainingError(ConnectionError):
    """The server announced a drain; it will not accept new work."""


def _member_entry(frame_id: int, request: DecodeRequest) -> tuple[tuple, int] | None:
    """``(member, size estimate)`` of one request, or ``None`` when a field
    does not fit the binary layout (the request then rides codec 1 alone).

    The estimate only pre-chunks batches near the frame bound; the
    authoritative check is ``encode_requests`` raising
    :class:`ProtocolError`, which triggers a halving split.
    """
    try:
        member = request_member(frame_id, request)
    except ValueError:
        return None
    syndrome = request.syndrome
    arrays = len(syndrome.defects) + len(syndrome.error_edges) + len(syndrome.erasures)
    return member, 64 + 4 * arrays


class NetClient:
    """One TCP connection to a :class:`~repro.service.net.server.NetServer`.

    ``codecs`` is the preference list offered at the handshake;
    ``codecs=(1,)`` forces the JSON-v1 wire format (what a legacy client
    speaks).  Usable as a context manager::

        with NetClient(host, port) as client:
            response = client.decode(request)
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 30.0,
        codecs: tuple[int, ...] = SUPPORTED_CODECS,
    ) -> None:
        # ``timeout`` bounds connect + handshake only.  The steady-state
        # socket is unbounded: the reader thread must tolerate arbitrarily
        # long idle gaps (socket.timeout is an OSError, so a per-read
        # timeout would tear the connection down under an idle pipeline);
        # per-request deadlines belong to decode(timeout=...).
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        # The coalescer decides when bytes wait; Nagle's algorithm must not
        # add its own stalls underneath it.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._write_lock = threading.Lock()
        self._pending: dict[int, tuple[str, Future, DecodeRequest | None]] = {}
        self._pending_lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self._draining = False
        self._broken: Exception | None = None
        # wire statistics (guarded by _stats_lock; reader + writers touch it)
        self._stats_lock = threading.Lock()
        self._frames_sent = 0
        self._bytes_sent = 0
        self._frames_received = 0
        self._bytes_received = 0
        self._batch_histogram: dict[int, int] = {}
        write_frame_sync(
            self._sock,
            {
                "kind": "hello",
                "version": PROTOCOL_VERSION,
                "client": "repro-net-client",
                "codecs": list(codecs),
            },
        )
        welcome = read_frame_sync(self._sock)
        if welcome.get("kind") == "error":
            raise ProtocolError(welcome.get("error", "handshake refused"))
        if welcome.get("kind") != "welcome":
            raise ProtocolError(f"expected welcome, got {welcome.get('kind')!r}")
        check_version(welcome)
        #: Worker count and config hash the server reported at the handshake.
        self.server_workers: int = welcome.get("workers", 0)
        self.server_config_hash: str | None = welcome.get("config_hash")
        #: The payload codec both sides agreed on (1 = JSON, 2 = binary).
        #: A welcome without a ``codec`` key is a pre-v2 server: JSON.
        self.codec: int = welcome.get("codec", protocol.CODEC_JSON)
        self._batching = self.codec >= CODEC_BINARY
        coalesce = welcome.get("coalesce") or {}
        self._coalesce_max_bytes = max(1, int(coalesce.get("max_bytes", 65536)))
        self._coalesce_max_delay = max(
            0.0, float(coalesce.get("max_delay_seconds", 0.0005))
        )
        self._sock.settimeout(None)
        # Nagle-style coalescer state: buffered (member, estimate) pairs and
        # the monotonic time the oldest one arrived.
        self._co_cond = threading.Condition()
        self._co_buffer: list[tuple[tuple, int]] = []
        self._co_bytes = 0
        self._co_oldest = 0.0
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-net-client-reader", daemon=True
        )
        self._reader.start()
        self._flusher: threading.Thread | None = None
        if self._batching:
            self._flusher = threading.Thread(
                target=self._coalesce_loop, name="repro-net-client-coalescer", daemon=True
            )
            self._flusher.start()

    # ------------------------------------------------------------------
    # reader thread
    # ------------------------------------------------------------------
    def _read_loop(self) -> None:
        try:
            while True:
                payload = read_payload_sync(self._sock)
                with self._stats_lock:
                    self._frames_received += 1
                    self._bytes_received += len(payload) + 4
                if binary_kind(payload) in ("response", "response-batch"):
                    for frame_id, fields in read_responses(payload):
                        entry = self._take(frame_id)
                        if entry is not None:
                            entry[1].set_result(DecodeResponse(entry[2], *fields))
                    continue
                frame = decode_payload(payload)
                kind = frame.get("kind")
                if kind == "response":
                    self._resolve_response(frame.get("id"), frame.get("response"))
                elif kind == "response-batch":
                    for member in frame.get("responses") or ():
                        if isinstance(member, dict):
                            self._resolve_response(member.get("id"), member.get("response"))
                elif kind == "stream-reply":
                    self._resolve(frame.get("id"), frame.get("result"))
                elif kind == "error":
                    self._resolve_error(frame)
                elif kind == "drain":
                    self._draining = True
                # anything else (future protocol additions) is ignored
        except ProtocolError as exc:
            self._fail_all(exc)
        except (ConnectionError, OSError) as exc:
            self._fail_all(exc if isinstance(exc, ConnectionError) else ConnectionError(str(exc)))

    def _take(self, frame_id) -> tuple[str, Future, DecodeRequest | None] | None:
        with self._pending_lock:
            return self._pending.pop(frame_id, None)

    def _resolve_response(self, frame_id, payload) -> None:
        """Resolve a codec-1 ``response`` member (binary ones are read
        straight into ``DecodeResponse`` fields by the read loop).  The local
        request stands in for the echo: ``response.request is request``."""
        entry = self._take(frame_id)
        if entry is None:
            return
        _, future, request = entry
        try:
            response = DecodeResponse.from_dict(payload, request=request)
        except Exception as exc:  # undecodable response
            future.set_exception(ProtocolError(f"bad response frame: {exc}"))
            return
        future.set_result(response)

    def _resolve(self, frame_id, result) -> None:
        entry = self._take(frame_id)
        if entry is None:
            return
        _, future, _ = entry
        if isinstance(result, dict) and "error" in result and set(result) == {"error"}:
            future.set_exception(RuntimeError(result["error"]))
        else:
            future.set_result(result)

    def _resolve_error(self, frame: dict) -> None:
        frame_id = frame.get("id")
        message = frame.get("error", "server error")
        if frame_id is None:
            self._fail_all(ProtocolError(message))
            return
        entry = self._take(frame_id)
        if entry is None:
            return
        _, future, _ = entry
        if "draining" in message:
            future.set_exception(ServerDrainingError(message))
        else:
            future.set_exception(RuntimeError(message))

    def _fail_all(self, exc: Exception) -> None:
        with self._pending_lock:
            self._broken = exc
            pending = list(self._pending.values())
            self._pending.clear()
        for _, future, _ in pending:
            if not future.done():
                future.set_exception(exc)
        # Unblock the coalescer thread; _check_sendable refuses new work.
        with self._co_cond:
            self._co_cond.notify_all()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once the server has announced a drain."""
        return self._draining

    def _check_sendable(self) -> None:
        if self._closed:
            raise ConnectionError("client is closed")
        if self._broken is not None:
            # The connection already died: a registered future would never
            # resolve (the reader thread is gone), so fail fast instead.
            raise ConnectionError(f"connection lost: {self._broken}") from self._broken
        if self._draining:
            # The server announced a drain: already-pipelined work will still
            # be answered, but new work must go elsewhere.
            raise ServerDrainingError("server is draining")

    def _register(self, future_kind: str, request) -> tuple[int, Future]:
        future: Future = Future()
        with self._pending_lock:
            self._next_id += 1
            frame_id = self._next_id
            self._pending[frame_id] = (future_kind, future, request)
        return frame_id, future

    def _send_frame(self, frame: dict, batch_size: int | None = None) -> None:
        """Encode + send one frame dict (see :meth:`_send_bytes`)."""
        self._send_bytes(protocol.encode_frame(frame, self.codec), batch_size)

    def _send_bytes(self, data: bytes, batch_size: int | None = None) -> None:
        """Send one encoded frame under the write lock, recording stats."""
        with self._write_lock:
            self._sock.sendall(data)
        with self._stats_lock:
            self._frames_sent += 1
            self._bytes_sent += len(data)
            if batch_size is not None:
                self._batch_histogram[batch_size] = (
                    self._batch_histogram.get(batch_size, 0) + 1
                )

    def _send(self, kind: str, future_kind: str, request, extra: dict) -> Future:
        self._check_sendable()
        frame_id, future = self._register(future_kind, request)
        try:
            self._send_frame({"kind": kind, "id": frame_id, **extra})
        except (ConnectionError, OSError) as exc:
            self._take(frame_id)
            raise ConnectionError(f"send failed: {exc}") from None
        return future

    def submit(self, request: DecodeRequest) -> Future:
        """Pipeline one decode request; returns a future of DecodeResponse.

        On a binary connection submissions coalesce Nagle-style: the request
        goes out immediately while nothing else is outstanding; under a
        pipeline it buffers and flushes as one ``request-batch`` at the
        server-advertised byte/delay bounds.
        """
        if not self._batching:
            return self._send("request", "request", request, {"request": request.to_dict()})
        self._check_sendable()
        frame_id, future = self._register("request", request)
        entry = _member_entry(frame_id, request)
        flush: list[tuple[tuple, int]] | None = None
        send_now = False
        with self._co_cond:
            if entry is None or (not self._co_buffer and len(self._pending) <= 1):
                # Idle connection: latency wins, write it straight out (so
                # does a request the binary layout cannot carry).
                send_now = True
            else:
                self._co_buffer.append(entry)
                self._co_bytes += entry[1]
                if len(self._co_buffer) == 1:
                    self._co_oldest = time.monotonic()
                    self._co_cond.notify()
                if self._co_bytes >= self._coalesce_max_bytes:
                    flush = self._co_buffer
                    self._co_buffer = []
                    self._co_bytes = 0
        try:
            if entry is None:
                frame = {"kind": "request", "id": frame_id, "request": request.to_dict()}
                self._send_frame(frame, batch_size=1)
            elif send_now:
                self._send_bytes(protocol.encode_requests([entry[0]]), batch_size=1)
            elif flush is not None:
                self._send_batch(flush)
        except ProtocolError as exc:
            self._take(frame_id)
            raise ProtocolError(
                f"request does not fit one frame "
                f"(MAX_FRAME_BYTES={protocol.MAX_FRAME_BYTES}): {exc}"
            ) from None
        except (ConnectionError, OSError) as exc:
            self._take(frame_id)
            raise ConnectionError(f"send failed: {exc}") from None
        return future

    def _flush_coalescer(self) -> None:
        with self._co_cond:
            members, self._co_buffer, self._co_bytes = self._co_buffer, [], 0
        if members:
            self._send_batch(members)

    def _coalesce_loop(self) -> None:
        """Flusher thread: age out the coalescing buffer at max_delay."""
        while True:
            with self._co_cond:
                while not self._co_buffer and not self._closed and self._broken is None:
                    self._co_cond.wait()
                if self._closed or self._broken is not None:
                    return
                deadline = self._co_oldest + self._coalesce_max_delay
                remaining = deadline - time.monotonic()
                if remaining > 0:
                    self._co_cond.wait(remaining)
                    continue  # re-evaluate: an inline flush may have run
                members, self._co_buffer, self._co_bytes = self._co_buffer, [], 0
            try:
                self._send_batch(members)
            except (ConnectionError, OSError, ProtocolError):
                # The member futures were already failed by _send_batch (or
                # will be by the reader's _fail_all); keep the thread alive
                # so close() can join it.
                continue

    def _send_batch(self, entries: list[tuple[tuple, int]]) -> None:
        """Send buffered ``(member, estimate)`` entries as ``request-batch``
        frames, splitting to fit.

        Estimates pre-chunk near half the frame bound; an encode that still
        exceeds ``MAX_FRAME_BYTES`` splits by halving.  A *single* member
        that cannot fit a frame alone fails its own future with a clear
        error — one request, one answer, never a torn connection.
        """
        limit = max(1, protocol.MAX_FRAME_BYTES // 2)
        chunks: list[list[tuple]] = []
        current: list[tuple] = []
        current_bytes = 0
        for member, estimate in entries:
            if current and current_bytes + estimate > limit:
                chunks.append(current)
                current, current_bytes = [], 0
            current.append(member)
            current_bytes += estimate
        if current:
            chunks.append(current)
        while chunks:
            chunk = chunks.pop(0)
            try:
                self._send_bytes(protocol.encode_requests(chunk), batch_size=len(chunk))
            except ProtocolError:
                if len(chunk) == 1:
                    entry = self._take(chunk[0][0])
                    if entry is not None:
                        defects = entry[2].syndrome.defects
                        entry[1].set_exception(
                            ProtocolError(
                                f"request too large for one frame: a syndrome of "
                                f"{len(defects)} defects exceeds MAX_FRAME_BYTES "
                                f"({protocol.MAX_FRAME_BYTES}); decode it in smaller "
                                "pieces or raise MAX_FRAME_BYTES"
                            )
                        )
                    continue
                mid = len(chunk) // 2
                chunks.insert(0, chunk[mid:])
                chunks.insert(0, chunk[:mid])
            except (ConnectionError, OSError) as exc:
                failure = ConnectionError(f"send failed: {exc}")
                for member in chunk:
                    entry = self._take(member[0])
                    if entry is not None and not entry[1].done():
                        entry[1].set_exception(failure)
                raise failure from None

    def decode(self, request: DecodeRequest, timeout: float | None = None) -> DecodeResponse:
        """Synchronous convenience wrapper: :meth:`submit` + wait."""
        return self.submit(request).result(timeout)

    def decode_many(self, requests, timeout: float | None = None) -> list[DecodeResponse]:
        """Pipeline many requests, then wait for all (responses in input order).

        On a binary connection the requests pack into ``request-batch``
        frames — one per predicted target worker, computed from the same
        consistent-hash ring the server routes with, so each frame forwards
        as a single unit down one worker pipe.
        """
        requests = list(requests)
        if not requests:
            return []
        if not self._batching:
            futures = [self.submit(request) for request in requests]
            return [future.result(timeout) for future in futures]
        self._check_sendable()
        # Anything sitting in the coalescer goes first — frame order on the
        # socket then matches submission order.
        self._flush_coalescer()
        # The ring is a pure function of the worker-id set; a worker that
        # died since the handshake merely makes this grouping non-optimal —
        # the server re-routes authoritatively.
        ring = HashRing(range(self.server_workers)) if self.server_workers else None
        futures: list[Future] = []
        groups: dict[int, list[tuple[tuple, int]]] = {}
        for request in requests:
            # key_hash() is memoised on the key: one hash per session.
            target = ring.route(request.session.key_hash()) if ring is not None else 0
            frame_id, future = self._register("request", request)
            futures.append(future)
            entry = _member_entry(frame_id, request)
            if entry is None:
                frame = {"kind": "request", "id": frame_id, "request": request.to_dict()}
                self._send_frame(frame, batch_size=1)
            else:
                groups.setdefault(target, []).append(entry)
        for entries in groups.values():
            self._send_batch(entries)
        return [future.result(timeout) for future in futures]

    # ------------------------------------------------------------------
    # wire statistics
    # ------------------------------------------------------------------
    def wire_stats(self) -> dict:
        """Counters of this connection's wire traffic.

        ``batch_histogram`` maps coalesced batch size (as a string, for JSON
        round-tripping) to how many request/request-batch frames of that
        size were sent; control and stream frames count in the totals only.
        """
        with self._stats_lock:
            return {
                "codec": self.codec,
                "frames_sent": self._frames_sent,
                "bytes_sent": self._bytes_sent,
                "frames_received": self._frames_received,
                "bytes_received": self._bytes_received,
                "batch_histogram": {
                    str(size): count
                    for size, count in sorted(self._batch_histogram.items())
                },
            }

    # ------------------------------------------------------------------
    # streams
    # ------------------------------------------------------------------
    def open_stream(
        self,
        key: SessionKey,
        *,
        window: int | None = None,
        commit_depth: int | None = None,
        timeout: float | None = None,
    ) -> "NetStream":
        """Open a streaming decode session routed to ``key``'s worker."""
        with self._pending_lock:
            self._next_id += 1
            sid = self._next_id
        stream = NetStream(self, sid)
        self._send(
            "stream-open",
            "stream",
            None,
            {
                "stream": sid,
                "session": key.to_dict(),
                "window": window,
                "commit_depth": commit_depth,
            },
        ).result(timeout)
        return stream

    def _stream_op(self, sid: int, op: str, payload) -> Future:
        return self._send(
            "stream-op", "stream", None, {"stream": sid, "op": op, "payload": payload}
        )

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Say bye and tear the connection down; pending futures error out."""
        if self._closed:
            return
        self._closed = True
        with self._co_cond:
            self._co_cond.notify_all()
        try:
            with self._write_lock:
                self._sock.sendall(protocol.encode_frame({"kind": "bye"}))
        except (ConnectionError, OSError):
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(1.0)
        if self._flusher is not None:
            self._flusher.join(1.0)
        self._fail_all(ConnectionError("client closed"))

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _converted(future: Future, convert) -> Future:
    """A future resolving to ``convert(future.result())`` (errors pass through)."""
    converted: Future = Future()

    def relay(done: Future) -> None:
        try:
            converted.set_result(convert(done.result()))
        except BaseException as exc:
            converted.set_exception(exc)

    future.add_done_callback(relay)
    return converted


class NetStream:
    """Client-side handle of one streaming session.

    The future-returning surface matches
    :class:`repro.service.service.ServiceStream`: ``begin`` resolves to
    ``None``, ``push_round`` to the round's cost ``Counter``, ``finalize`` to
    the stream's :class:`~repro.api.DecodeOutcome` (rebuilt from its wire
    form, like a single-shot response's outcome).
    """

    def __init__(self, client: NetClient, sid: int) -> None:
        self._client = client
        self._sid = sid

    def begin(self, rounds_hint: int | None = None) -> Future:
        return self._client._stream_op(self._sid, "begin", rounds_hint)

    def push_round(self, defects) -> Future:
        return _converted(
            self._client._stream_op(self._sid, "push", list(defects)),
            lambda result: load(Counter, result["counters"], "counters"),
        )

    def finalize(self) -> Future:
        return _converted(
            self._client._stream_op(self._sid, "finalize", None),
            lambda result: DecodeOutcome.from_dict(result["outcome"]),
        )

    def decode_rounds(self, rounds, timeout: float | None = None) -> DecodeOutcome:
        """Blocking convenience: begin, push every round, finalize."""
        self.begin().result(timeout)
        for defects in rounds:
            self.push_round(defects).result(timeout)
        return self.finalize().result(timeout)
