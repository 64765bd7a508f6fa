"""LRU cache of reusable decoder sessions.

Building a decoder is the expensive part of serving a request: the decoding
graph, the accelerator model, the primal module and the dual engine all have
to be constructed before the first syndrome can be decoded.  PR 1
established that *reusing* those engines across shots is bit-identical to
rebuilding them, which is exactly what a :class:`repro.api.DecoderSession`
does — so the service keeps one session per distinct
:class:`~repro.service.request.SessionKey` in a bounded LRU and routes every
micro-batch to its cached session.

Concurrency contract: the cache itself is guarded by one lock (lookups and
evictions are cheap); each entry carries its *own* lock that a worker holds
for the duration of a batch, serialising decodes on the underlying stateful
decoder.  An entry evicted while a batch is still running simply drops out
of the map — the in-flight batch keeps its reference and finishes normally;
the next request for that key builds a fresh session.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from ..api.session import DecoderSession
from ..api.wireform import WireForm
from .request import SessionKey

#: Builds the session of a key; injectable so tests can count/fake builds.
SessionFactory = Callable[[SessionKey], DecoderSession]


def build_session(key: SessionKey) -> DecoderSession:
    """The default session factory: build the key's graph and bind a decoder.

    >>> from repro.service import CodeSpec, SessionKey
    >>> session = build_session(SessionKey(CodeSpec(3), "union-find"))
    >>> session.name
    'union-find'
    """
    graph = key.code.build_graph()
    return DecoderSession(graph, key.decoder, key.config)


@dataclass
class SessionCacheStats(WireForm):
    """Hit/miss/eviction counters of a :class:`SessionCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class SessionEntry:
    """One cached session plus the lock that serialises decodes on it."""

    __slots__ = ("key", "session", "lock")

    def __init__(self, key: SessionKey, session: DecoderSession) -> None:
        self.key = key
        self.session = session
        self.lock = threading.Lock()


class SessionCache:
    """Bounded LRU of :class:`repro.api.DecoderSession`, keyed by session key.

    ``max_sessions`` bounds live sessions; acquiring a key past the bound
    evicts the least-recently-used entry.  Thread-safe.

    >>> from repro.service import CodeSpec, SessionKey
    >>> cache = SessionCache(max_sessions=2)
    >>> entry = cache.acquire(SessionKey(CodeSpec(3), "union-find"))
    >>> _ = cache.acquire(SessionKey(CodeSpec(3), "union-find"))
    >>> (cache.stats.hits, cache.stats.misses)
    (1, 1)
    """

    def __init__(
        self,
        max_sessions: int = 8,
        session_factory: SessionFactory = build_session,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self._factory = session_factory
        self._entries: OrderedDict[SessionKey, SessionEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = SessionCacheStats()

    def acquire(self, key: SessionKey) -> SessionEntry:
        """Return the entry of ``key``, building (and possibly evicting).

        The returned entry's ``lock`` must be held while decoding on its
        session.  Building the session happens *outside* the cache lock, so
        slow graph construction never blocks lookups of other keys; if two
        threads race to build the same key the first registration wins and
        the loser's session is discarded.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
        session = self._factory(key)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:  # lost a build race; reuse the winner
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
            self.stats.misses += 1
            entry = SessionEntry(key, session)
            self._entries[key] = entry
            while len(self._entries) > self.max_sessions:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return entry

    def stats_snapshot(self) -> dict:
        """A consistent copy of the counters plus the live-entry count.

        Every counter mutation in :meth:`acquire` happens under the cache
        lock; taking the same lock here means a reader can never observe a
        torn combination (e.g. a hit counted but the entry not yet visible).
        :meth:`DecodeService.stats_snapshot` reads session statistics through
        this method only.
        """
        with self._lock:
            snapshot = self.stats.to_dict()
            snapshot["live"] = len(self._entries)
            return snapshot

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: SessionKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[SessionKey]:
        """Cached keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)
