"""Dynamic micro-batching core: coalesce requests, flush on size or deadline.

The batcher is the pLUTo-style amortisation point of the service (see
PAPERS.md): many small independent requests are coalesced into one batch per
session key so the per-batch costs — session lookup, lock acquisition,
worker dispatch — are paid once per batch instead of once per request, and
the cached session decodes the whole batch back to back.

A batch flushes on whichever of two events comes first:

* *size* — the batch reached ``max_batch_size`` requests (returned to the
  caller straight from :meth:`add`);
* *deadline* — ``max_wait_seconds`` elapsed since the batch's first request
  arrived (collected via :meth:`due`).  The deadline is set by the *first*
  request of a batch and never extended, so under light load no request ever
  waits more than ``max_wait_seconds`` in the batcher.

It coalesces requests admitted one at a time
(:meth:`~repro.service.DecodeService.submit`).  A group its caller already
coalesced (:meth:`~repro.service.DecodeService.decode_group`, every network
pipe batch) never enters it: the service cuts that group into batches itself.

The class is deliberately **pure**: every method takes ``now`` explicitly and
nothing ever sleeps or spawns threads, so deadline semantics are unit-testable
with a fake clock (the :class:`~repro.service.service.DecodeService`
dispatcher drives it with the real one).

>>> batcher = MicroBatcher(max_batch_size=2, max_wait_seconds=0.5)
>>> batcher.add("k", "r1", now=10.0) is None       # opens the batch
True
>>> batcher.add("k", "r2", now=10.1).items         # size bound -> flushed
['r1', 'r2']
>>> batcher.add("k", "r3", now=10.2) is None
True
>>> batcher.next_deadline()
10.7
>>> [batch.items for batch in batcher.due(now=10.8)]
[['r3']]
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Batch:
    """One coalesced batch of requests sharing a session key."""

    key: object
    opened_seconds: float
    deadline_seconds: float
    items: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.items)


class MicroBatcher:
    """Clock-agnostic dynamic micro-batcher (flush on size or deadline)."""

    def __init__(self, max_batch_size: int = 32, max_wait_seconds: float = 0.002):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be non-negative")
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_seconds
        self._pending: dict[object, Batch] = {}

    def add(self, key, item, now: float) -> Batch | None:
        """Append ``item`` to the batch of ``key``; return it if now full.

        A returned batch has been removed from the batcher (the caller owns
        dispatching it); ``None`` means the item is waiting for either more
        requests or its deadline.  Other keys' batches are never touched.
        """
        batch = self._pending.get(key)
        if batch is None:
            batch = Batch(
                key=key,
                opened_seconds=now,
                deadline_seconds=now + self.max_wait_seconds,
            )
            self._pending[key] = batch
        batch.items.append(item)
        if batch.size >= self.max_batch_size:
            del self._pending[key]
            return batch
        return None

    def next_deadline(self) -> float | None:
        """The earliest pending deadline, or ``None`` when nothing waits."""
        if not self._pending:
            return None
        return min(batch.deadline_seconds for batch in self._pending.values())

    def due(self, now: float) -> list[Batch]:
        """Remove and return every batch whose deadline has passed."""
        ready = [k for k, batch in self._pending.items() if batch.deadline_seconds <= now]
        flushed = [self._pending.pop(key) for key in ready]
        flushed.sort(key=lambda batch: batch.deadline_seconds)
        return flushed

    def drain(self) -> list[Batch]:
        """Remove and return every pending batch (service shutdown path)."""
        flushed = sorted(self._pending.values(), key=lambda batch: batch.deadline_seconds)
        self._pending.clear()
        return flushed

    @property
    def pending_requests(self) -> int:
        """Requests currently waiting in open batches."""
        return sum(batch.size for batch in self._pending.values())

    @property
    def pending_batches(self) -> int:
        """Open (not yet flushed) batches."""
        return len(self._pending)
