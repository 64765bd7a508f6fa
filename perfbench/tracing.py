"""In-memory span recorder installed around public calls of the program.

The wrappers live in the benchmark, not in the program: :meth:`Tracer.install`
replaces a handful of public methods on their classes with timing shims and
:meth:`Tracer.uninstall` puts the originals back.  Each span records its
name, start and end (``perf_counter_ns``), the index of the span that was
open on the same thread when it started (its cause), and a request id so
that the spans of one request or shot can be joined.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

#: Accelerator instruction methods timed as ``core.accel.<name>``.
ACCEL_METHODS = (
    "load",
    "grow",
    "find_obstacle",
    "set_direction",
    "create_blossom",
    "expand_blossom",
    "prematched_pairs",
)


def traced_methods():
    """``(class, method, span name)`` for every public call that is timed."""
    from repro.api import DecoderSession
    from repro.core.accelerator import MicroBlossomAccelerator
    from repro.service import DecodeService
    from repro.service.net import NetClient

    targets = [(DecoderSession, "decode_detailed", "api.decode")]
    targets += [(MicroBlossomAccelerator, name, f"core.accel.{name}") for name in ACCEL_METHODS]
    targets += [
        (DecodeService, "submit", "service.submit"),
        (NetClient, "submit", "net.submit"),
    ]
    return targets


class Tracer:
    """Collects spans from timing shims around :func:`traced_methods`."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index, request_id]`` per span.
        self.spans: list[list] = []
        #: Request id of a syndrome object, so that a decode running on a
        #: service worker thread joins the request submitted for it.
        self.request_of: dict[int, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def set_request(self, request_id: int, syndrome=None) -> None:
        """Tag spans opened next on this thread (and ``syndrome``'s decode)."""
        self._local.request = request_id
        if syndrome is not None:
            self.request_of[id(syndrome)] = request_id

    def _shim(self, original, name: str):
        local = self._local
        spans = self.spans
        lock = self._lock
        request_of = self.request_of
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def shim(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            request = getattr(local, "request", -1)
            if name == "api.decode" and len(args) > 1:
                request = request_of.get(id(args[1]), request)
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0, parent, request]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return shim

    def install(self) -> None:
        if self._saved:
            return
        for cls, method, name in traced_methods():
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._shim(original, name))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved = []

    # ------------------------------------------------------------------
    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _name, start, end, _parent, _request in self.spans]
        for _name, start, end, parent, _request in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str, header: dict) -> None:
        """Write every span as JSON lines (one header line, then spans)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
