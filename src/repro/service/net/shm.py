"""Shared-memory transport of immutable graphs and hot syndrome bytes.

Two pieces of the network server's data plane live in
:mod:`multiprocessing.shared_memory` segments mapped into every worker
process:

* :class:`SharedGraphPack` — the immutable decoding-graph arrays, packed
  once by the server (vertex coordinates, edge endpoints/weights/
  probabilities/kinds as typed arrays plus a JSON header) and mapped
  read-only by each worker.  A worker reconstructs its
  :class:`~repro.graphs.decoding_graph.DecodingGraph` *objects* from the
  mapped arrays on first use — the bytes are shared and never re-sent per
  process; only the lightweight object wrappers are per-worker (CPython
  objects cannot themselves live in shared memory).
* :class:`SyndromeSlab` — a slot-granular scratch region for the per-request
  defect lists.  The front end writes a request's defect indices straight
  into a free slot and passes ``(slot, count)`` down the worker pipe instead
  of serialising the syndrome into JSON; the worker reads the integers back
  out of the mapping.  Slots are owned by the server: it allocates on
  submit, frees on response (or worker death), and falls back to inline JSON
  when the slab is exhausted or a defect list exceeds the slot capacity —
  the fallback changes bytes moved, never outcomes.
"""

from __future__ import annotations

import json
import struct
import threading
from multiprocessing import shared_memory

import numpy as np

from ...graphs.decoding_graph import DecodingGraph, Edge, Vertex

_HEADER_LENGTH = struct.Struct(">Q")

#: Array item codes used by the pack (fixed, so reader and writer agree).
_INT = "q"  # signed 64-bit
_FLOAT = "d"  # IEEE double
_BYTE = "B"  # unsigned 8-bit (bools, kind-vocabulary indices)

_ITEM_SIZE = {_INT: 8, _FLOAT: 8, _BYTE: 1}


def _aligned(offset: int, code: str) -> int:
    size = _ITEM_SIZE[code]
    return (offset + size - 1) // size * size


class SharedGraphPack:
    """Decoding graphs packed into one shared-memory segment.

    Created by the server (:meth:`create`), attached by name in each worker
    (:meth:`attach`).  Attached segments are never unlinked by workers — the
    creating server owns the segment lifetime.
    """

    def __init__(self, shm: shared_memory.SharedMemory, header: dict, owner: bool) -> None:
        self._shm = shm
        self._header = header
        self._owner = owner
        self._graphs: dict[str, DecodingGraph] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, graphs: dict[str, DecodingGraph]) -> "SharedGraphPack":
        """Pack ``{graph key -> graph}`` into a fresh shared segment."""
        header: dict = {"graphs": {}}
        chunks: list[bytes] = []
        offset = 0

        def put(values, code: str) -> dict:
            nonlocal offset
            data = struct.pack(f"<{len(values)}{code}", *values)
            aligned = _aligned(offset, code)
            if aligned != offset:
                chunks.append(b"\x00" * (aligned - offset))
                offset = aligned
            entry = {"offset": offset, "count": len(values), "code": code}
            chunks.append(data)
            offset += len(data)
            return entry

        for key, graph in graphs.items():
            kinds: list[str] = []
            kind_index: dict[str, int] = {}
            for edge in graph.edges:
                if edge.kind not in kind_index:
                    kind_index[edge.kind] = len(kinds)
                    kinds.append(edge.kind)
            header["graphs"][key] = {
                "metadata": graph.metadata,
                "kinds": kinds,
                "vertex_layer": put([v.layer for v in graph.vertices], _INT),
                "vertex_row": put([v.row for v in graph.vertices], _INT),
                "vertex_col": put([v.col for v in graph.vertices], _INT),
                "vertex_virtual": put([int(v.is_virtual) for v in graph.vertices], _BYTE),
                "edge_u": put([e.u for e in graph.edges], _INT),
                "edge_v": put([e.v for e in graph.edges], _INT),
                "edge_weight": put([e.weight for e in graph.edges], _INT),
                "edge_probability": put([e.probability for e in graph.edges], _FLOAT),
                "edge_observable": put([int(e.observable) for e in graph.edges], _BYTE),
                "edge_kind": put([kind_index[e.kind] for e in graph.edges], _BYTE),
            }
        payload = b"".join(chunks)
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        total = _HEADER_LENGTH.size + len(header_bytes) + len(payload)
        # Payload offsets are relative to the payload start; record where
        # that is so attach() can rebase without re-parsing lengths.
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        shm.buf[: _HEADER_LENGTH.size] = _HEADER_LENGTH.pack(len(header_bytes))
        shm.buf[_HEADER_LENGTH.size : _HEADER_LENGTH.size + len(header_bytes)] = header_bytes
        base = _HEADER_LENGTH.size + len(header_bytes)
        shm.buf[base : base + len(payload)] = payload
        header["payload_base"] = base
        return cls(shm, header, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedGraphPack":
        """Map an existing pack by segment name (worker side)."""
        shm = shared_memory.SharedMemory(name=name)
        (header_length,) = _HEADER_LENGTH.unpack_from(shm.buf, 0)
        header_end = _HEADER_LENGTH.size + header_length
        header = json.loads(bytes(shm.buf[_HEADER_LENGTH.size : header_end]))
        header["payload_base"] = _HEADER_LENGTH.size + header_length
        return cls(shm, header, owner=False)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._shm.name

    def keys(self) -> list[str]:
        """The graph keys packed into this segment."""
        return sorted(self._header["graphs"])

    def _read(self, entry: dict) -> list:
        base = self._header["payload_base"] + entry["offset"]
        code = entry["code"]
        return list(
            struct.unpack_from(f"<{entry['count']}{code}", self._shm.buf, base)
        )

    def graph(self, key: str) -> DecodingGraph:
        """Reconstruct (and memoise) the graph stored under ``key``."""
        if key in self._graphs:
            return self._graphs[key]
        entry = self._header["graphs"][key]
        layers = self._read(entry["vertex_layer"])
        rows = self._read(entry["vertex_row"])
        cols = self._read(entry["vertex_col"])
        virtual = self._read(entry["vertex_virtual"])
        vertices = [
            Vertex(index=i, layer=layers[i], row=rows[i], col=cols[i], is_virtual=bool(virtual[i]))
            for i in range(len(layers))
        ]
        us = self._read(entry["edge_u"])
        vs = self._read(entry["edge_v"])
        weights = self._read(entry["edge_weight"])
        probabilities = self._read(entry["edge_probability"])
        observables = self._read(entry["edge_observable"])
        kind_codes = self._read(entry["edge_kind"])
        kinds = entry["kinds"]
        edges = [
            Edge(
                index=i,
                u=us[i],
                v=vs[i],
                weight=weights[i],
                probability=probabilities[i],
                observable=bool(observables[i]),
                kind=kinds[kind_codes[i]],
            )
            for i in range(len(us))
        ]
        graph = DecodingGraph(vertices, edges, metadata=entry["metadata"])
        self._graphs[key] = graph
        return graph

    # ------------------------------------------------------------------
    # lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap this process's view; the owner also unlinks the segment."""
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass


class SyndromeSlab:
    """A slot-granular shared scratch region for per-request defect lists.

    ``slots`` fixed-capacity slots of ``slot_capacity`` int64 defect indices
    each.  The server is the only writer and the only allocator; workers
    only read, so no cross-process locking is needed — a slot handed to a
    worker is immutable until the server frees it on response.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        slots: int,
        slot_capacity: int,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.slots = slots
        self.slot_capacity = slot_capacity
        self._owner = owner
        self._free: list[int] = list(range(slots)) if owner else []
        self._lock = threading.Lock()

    @classmethod
    def create(cls, slots: int = 256, slot_capacity: int = 512) -> "SyndromeSlab":
        if slots < 1 or slot_capacity < 1:
            raise ValueError("slots and slot_capacity must be >= 1")
        shm = shared_memory.SharedMemory(create=True, size=slots * slot_capacity * 8)
        return cls(shm, slots, slot_capacity, owner=True)

    @classmethod
    def attach(cls, name: str, slots: int, slot_capacity: int) -> "SyndromeSlab":
        shm = shared_memory.SharedMemory(name=name)
        return cls(shm, slots, slot_capacity, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def write(self, defects) -> int | None:
        """Write a defect list into a free slot; ``None`` → use the inline
        JSON fallback (slab exhausted or the list exceeds slot capacity)."""
        values = list(defects)
        if len(values) > self.slot_capacity:
            return None
        with self._lock:
            if not self._free:
                return None
            slot = self._free.pop()
        if values:
            try:
                struct.pack_into(
                    f"<{len(values)}q", self._shm.buf, slot * self.slot_capacity * 8, *values
                )
            except (struct.error, TypeError):
                # Unpackable defects (non-integers) are the caller's problem;
                # the slot must not leak with them.
                self.free(slot)
                raise
        return slot

    def _take_run(self, count: int) -> int | None:
        """Pop ``count`` consecutive slot numbers off the free list.

        Caller holds ``_lock``.  Returns the run's first slot, or ``None``
        when the free list holds no contiguous run that long (fragmented or
        simply too few slots).
        """
        if count > len(self._free):
            return None
        self._free.sort()
        run_start = 0
        for index in range(1, len(self._free) + 1):
            if index == len(self._free) or self._free[index] != self._free[index - 1] + 1:
                if index - run_start >= count:
                    start = self._free[run_start]
                    del self._free[run_start : run_start + count]
                    return start
                run_start = index
        return None

    def write_batch(self, defect_lists) -> list[int | None]:
        """Write many defect lists at once; returns one slot (or ``None``,
        the inline fallback) per list.

        The batch path allocates one *contiguous* run of slots and lands
        every list with a single vectorized pack into the mapping — one
        numpy assignment instead of N ``struct.pack_into`` calls.  A lone
        list, or a batch with no contiguous run free (fragmentation) or a
        list over the slot capacity, goes through :meth:`write` list by
        list; the fallback changes bytes moved, never outcomes.
        """
        lists = [list(defects) for defects in defect_lists]
        slots: list[int | None] = [None] * len(lists)
        occupied = [index for index, values in enumerate(lists) if values]
        count = len(occupied)
        if count == 0:
            return slots
        start = None
        if count > 1 and all(len(lists[index]) <= self.slot_capacity for index in occupied):
            with self._lock:
                start = self._take_run(count)
        if start is None:
            try:
                for index in occupied:
                    slots[index] = self.write(lists[index])
            except Exception:
                # Same contract as the run path: a bad list frees every
                # slot the earlier lists of this batch already took.
                for slot in slots:
                    if slot is not None:
                        self.free(slot)
                raise
            return slots
        padded = np.zeros((count, self.slot_capacity), dtype=np.int64)
        try:
            for row, index in enumerate(occupied):
                values = lists[index]
                padded[row, : len(values)] = values
        except (ValueError, TypeError, OverflowError):
            # Unpackable defects (non-integers) are the caller's problem;
            # the run must not leak with them.
            with self._lock:
                self._free.extend(range(start, start + count))
            raise
        view = np.frombuffer(
            self._shm.buf,
            dtype=np.int64,
            count=count * self.slot_capacity,
            offset=start * self.slot_capacity * 8,
        ).reshape(count, self.slot_capacity)
        view[:] = padded
        for row, index in enumerate(occupied):
            slots[index] = start + row
        return slots

    def free(self, slot: int) -> None:
        """Return a slot to the free list once its response arrived."""
        with self._lock:
            self._free.append(slot)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def read(self, slot: int, count: int) -> tuple[int, ...]:
        """Read ``count`` defect indices back out of ``slot``."""
        if not 0 <= slot < self.slots or not 0 <= count <= self.slot_capacity:
            raise ValueError(f"slot {slot} / count {count} out of slab bounds")
        if count == 0:
            return ()
        return struct.unpack_from(f"<{count}q", self._shm.buf, slot * self.slot_capacity * 8)

    def close(self) -> None:
        """Unmap this process's view; the owner also unlinks the segment."""
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass
