"""Network serving of the decode service: asyncio front end, process workers.

The in-process :class:`~repro.service.DecodeService` scales across threads
but not across cores (the decoders are pure Python under the GIL).  This
package puts N *processes* behind one TCP endpoint without changing a single
decoded bit:

* :mod:`~repro.service.net.protocol` — the length-prefixed wire protocol
  (version-tagged; sync and asyncio framings) with two negotiated payload
  codecs: canonical JSON (codec 1) and the struct-packed binary format
  (codec 2) for the hot frame kinds, with batch frames.
* :mod:`~repro.service.net.server` — :class:`NetServer`, the asyncio front
  end: consistent-hash routing of session keys to worker processes,
  whole-batch forwarding of ``request-batch`` frames down the worker pipes,
  graceful drain on stop/SIGTERM, isolated errors on worker death.
* :mod:`~repro.service.net.worker` — the worker-process entry point; each
  worker hosts an ordinary in-process service on the prewarm graphs it
  inherited at fork.
* :mod:`~repro.service.net.client` — :class:`NetClient`, the synchronous
  pipelined client mirroring the ``DecodeService`` surface, with
  Nagle-style request coalescing and per-worker batch packing.
* :mod:`~repro.service.net.router` — :class:`HashRing`.
* :mod:`~repro.service.net.bench` — the process-scaling series and the
  v2-vs-v1 wire comparison of ``BENCH_service.json``, both load-engine
  replays through a :class:`NetClient`.
"""

from .bench import scaling_bench, wire_comparison
from .client import NetClient, NetStream, ServerDrainingError
from .protocol import (
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    negotiate_codec,
)
from .router import HashRing
from .server import NetServer

__all__ = [
    "CODEC_BINARY",
    "CODEC_JSON",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "HashRing",
    "NetClient",
    "NetServer",
    "NetStream",
    "ProtocolError",
    "ServerDrainingError",
    "negotiate_codec",
    "scaling_bench",
    "wire_comparison",
]
