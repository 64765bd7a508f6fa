"""Consistent-hash routing of session keys to worker processes.

Each worker process hosts its own :class:`~repro.service.DecodeService` with
its own session LRU and outcome cache.  Routing a
:class:`~repro.service.SessionKey` by consistent hashing keeps those caches
hot: the same key always lands on the same worker (so its decoder session is
built once, not per request), and when a worker dies only the keys that lived
on *its* arc re-route — every other key keeps its warm cache.

The ring is a pure function of the worker-id set: points are derived with
:func:`repro.api.hashing.content_hash`, so every server replica routes a key
to the same worker — no coordination, no state to replicate.

>>> ring = HashRing([0, 1, 2, 3])
>>> ring.route("a1b2c3d4e5f60718") in (0, 1, 2, 3)
True
>>> before = ring.route("a1b2c3d4e5f60718")
>>> ring.remove(9 if before == 0 else 0)  # removing another worker's arc...
>>> ring.route("a1b2c3d4e5f60718") == before  # ...never moves this key
True
"""

from __future__ import annotations

from bisect import bisect_right

from ...api.hashing import content_hash

#: Virtual nodes per worker.  More vnodes → smoother key distribution and
#: smaller re-routed fraction on worker death, at O(workers × vnodes) ring
#: build cost (a few microseconds here).
DEFAULT_VNODES = 64


class HashRing:
    """A consistent-hash ring over integer worker ids.

    ``route(key_hash)`` maps a 16-hex-digit content hash (what
    :meth:`repro.service.SessionKey.key_hash` returns) to the worker owning
    the first ring point at or after the key's point, wrapping around.
    """

    def __init__(self, worker_ids, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self._vnodes = vnodes
        self._points: list[int] = []
        self._owners: list[int] = []
        self._workers: set[int] = set()
        for worker_id in worker_ids:
            self.add(worker_id)
        if not self._workers:
            raise ValueError("ring needs at least one worker")

    def __len__(self) -> int:
        return len(self._workers)

    def _worker_points(self, worker_id: int) -> list[int]:
        return [
            int(content_hash(f"worker={worker_id}/vnode={v}"), 16) for v in range(self._vnodes)
        ]

    def add(self, worker_id: int) -> None:
        """Add a worker's virtual nodes to the ring (idempotent)."""
        if worker_id in self._workers:
            return
        self._workers.add(worker_id)
        merged = sorted(
            set(zip(self._points, self._owners, strict=True))
            | {(point, worker_id) for point in self._worker_points(worker_id)}
        )
        self._points = [point for point, _ in merged]
        self._owners = [owner for _, owner in merged]

    def remove(self, worker_id: int) -> None:
        """Remove a dead worker; its keys re-route to ring neighbours."""
        if worker_id not in self._workers:
            return
        self._workers.discard(worker_id)
        kept = [
            (point, owner)
            for point, owner in zip(self._points, self._owners, strict=True)
            if owner != worker_id
        ]
        self._points = [point for point, _ in kept]
        self._owners = [owner for _, owner in kept]

    def route(self, key_hash: str) -> int:
        """The worker id owning ``key_hash`` (a hex content-hash string).

        Raises :class:`LookupError` once every worker has been removed —
        callers turn that into isolated per-request errors, never a hang.
        """
        if not self._points:
            raise LookupError("no live workers on the ring")
        point = int(key_hash, 16)
        index = bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def assignment(self, key_hashes) -> dict[int, list[str]]:
        """Worker → keys mapping for a batch of key hashes (diagnostics)."""
        assigned: dict[int, list[str]] = {worker_id: [] for worker_id in self._workers}
        for key_hash in key_hashes:
            assigned[self.route(key_hash)].append(key_hash)
        return assigned
