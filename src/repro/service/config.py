"""The consolidated configuration of a :class:`~repro.service.DecodeService`.

:class:`ServiceConfig` replaces the 10 sizing/policy keyword arguments that
used to be threaded one by one through ``DecodeService``, the load engine and
the CLI.  It is frozen (safe to share across threads and to fork into worker
processes), serialisable (``to_dict``/``from_dict``/``from_file`` — the
network server's config-file format), and content-addressed
(:meth:`ServiceConfig.config_hash` via :mod:`repro.api.hashing`), so two
services configured equally hash equally on every machine.

Runtime injection points — ``clock``, ``session_factory``, ``sleep`` — are
*not* configuration: they are non-serialisable callables and stay keyword
arguments of ``DecodeService`` itself.

>>> config = ServiceConfig(workers=4, overload_policy="shed")
>>> ServiceConfig.from_dict(config.to_dict()) == config
True
>>> config.config_hash() == config.replace().config_hash()
True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..api.hashing import content_hash
from ..api.wireform import WireForm
from .faults import FaultPlan

#: Overload policies of the bounded admission queue.
OVERLOAD_POLICIES = ("block", "shed")


@dataclass(frozen=True)
class ServiceConfig(WireForm):
    """Sizing and policy of one decode-service instance.

    The defaults reproduce ``DecodeService()``'s historical behaviour
    exactly; validation happens here (at construction) so a bad config fails
    before any thread or process is spawned.
    """

    #: Flush a session's batch at this many coalesced requests.
    max_batch_size: int = 32
    #: ... or once its oldest request waited this long, whichever first.
    #: Bounds only requests admitted one at a time: a ``decode_group``
    #: (every network pipe batch) never waits for it.
    max_wait_seconds: float = 0.002
    #: Bound of the admission queue (backpressure domain).
    queue_capacity: int = 1024
    #: Decoder worker threads of this service instance.
    workers: int = 2
    #: Capacity of the LRU of reusable decoder sessions.
    max_sessions: int = 8
    #: ``"block"`` (wait at a full queue) or ``"shed"`` (answer STATUS_SHED).
    overload_policy: str = "block"
    #: Budget of the content-addressed outcome cache; ``None``/0 disables it.
    outcome_cache_bytes: int | None = None
    #: Deterministic fault injection; ``None`` (or an inactive plan) is free.
    fault_plan: FaultPlan | None = None
    #: Session-build crash retries before a batch fails with STATUS_ERROR.
    session_build_retries: int = 0
    #: Linear backoff between session-build retries (seconds × attempt).
    session_build_backoff_seconds: float = 0.0
    #: Client-side request coalescer: flush a pending batch at this many
    #: buffered frame bytes...
    coalesce_max_bytes: int = 65536
    #: ... or once its oldest request waited this long, whichever first.
    #: The server advertises both knobs in its ``welcome`` frame.
    coalesce_max_delay_seconds: float = 0.0005

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_seconds < 0:
            raise ValueError("max_wait_seconds must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload_policy must be one of {OVERLOAD_POLICIES}, "
                f"got {self.overload_policy!r}"
            )
        if self.session_build_retries < 0:
            raise ValueError("session_build_retries must be >= 0")
        if self.session_build_backoff_seconds < 0:
            raise ValueError("session_build_backoff_seconds must be non-negative")
        if self.coalesce_max_bytes < 1:
            raise ValueError("coalesce_max_bytes must be >= 1")
        if self.coalesce_max_delay_seconds < 0:
            raise ValueError("coalesce_max_delay_seconds must be non-negative")

    def replace(self, **changes) -> "ServiceConfig":
        """Return a copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # serialisation (network server config file, bench artifact embedding)
    # ------------------------------------------------------------------
    def config_hash(self) -> str:
        """Stable 16-hex-digit content hash of this configuration.

        Stable across processes (unlike ``hash(config)``); the network
        server's handshake echoes it so clients can confirm what they are
        talking to.

        >>> ServiceConfig().config_hash() == ServiceConfig().config_hash()
        True
        >>> ServiceConfig(workers=4).config_hash() != ServiceConfig().config_hash()
        True
        """
        return content_hash({"service_config": self.to_dict()})
