"""Deterministic fault injection for the decode service.

The service's isolation claims — a poisoned request cannot take its batch
down, a crashing session build cannot take the dispatcher down, a straggling
worker cannot corrupt outcomes — are only claims until something injects
those faults on purpose.  This module makes the injection *declarative and
seed-stable*: a :class:`FaultPlan` names the faults, and every selection
(which request is poisoned, which session key's build crashes) is a pure
function of ``(plan.seed, stable identifier)`` through
:func:`repro.api.hashing.stable_seed` — the same machinery trace expansion
uses — so a replayed hostile benchmark injects *bit-identical* faults on
every machine.

Three fault families are modelled after what production traffic actually
does to a service:

* **Worker stragglers** — the first ``straggler_workers`` threads of the
  service pool sleep ``straggler_delay_seconds`` before decoding each batch.
  Timing-only: outcomes must stay bit-identical, latency tails move.
* **Session-build crashes** — building the session of a selected key raises
  :class:`InjectedFault` for its first ``session_crash_attempts`` attempts.
  The service retries with bounded backoff
  (``ServiceConfig(session_build_retries=...)``); a transient crash is
  invisible in outcomes, an exhausted retry budget resolves the batch with
  :data:`~repro.service.request.STATUS_ERROR` responses.
* **Poisoned requests** — selected trace requests carry a malformed
  syndrome (a defect index no decoding graph has).  The decoder raises, the
  service answers *that* future with ``STATUS_ERROR``, and every other
  request in the same micro-batch completes bit-identically — the isolation
  property ``repro serve-bench --hostile-smoke`` gates in CI.

>>> plan = FaultPlan(seed=7, poison_rate=0.25)
>>> plan.poisons(3) == FaultPlan.from_dict(plan.to_dict()).poisons(3)
True
>>> FaultPlan(seed=7).is_active()
False
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..api.hashing import content_hash, stable_seed
from ..api.wireform import WireForm
from ..graphs.syndrome import Syndrome


class InjectedFault(RuntimeError):
    """Raised by fault-injection hooks (never by real service code paths)."""


def _stable_fraction(seed: int, key: str) -> float:
    """A deterministic uniform draw in [0, 1) from ``(seed, key)``."""
    return stable_seed(seed, key) / float(2**63)


@dataclass(frozen=True)
class FaultPlan(WireForm):
    """Declarative, seed-stable description of the faults to inject.

    All selections derive from ``seed`` alone, so two replays of the same
    plan against the same trace inject identical faults.  A default-valued
    plan injects nothing (:meth:`is_active` is False) — services constructed
    without a plan pay zero overhead.
    """

    name: str = "faults"
    seed: int = 0
    #: The first N worker threads of the service pool are stragglers.
    straggler_workers: int = 0
    #: Sleep inserted by a straggler before decoding each batch (seconds).
    straggler_delay_seconds: float = 0.0
    #: Probability (per distinct session key) that its builds crash.
    session_crash_rate: float = 0.0
    #: How many consecutive build attempts of a selected key crash before
    #: the build succeeds — keep it <= the service's retry budget to model
    #: transient faults, above it to model a hard-down session.
    session_crash_attempts: int = 1
    #: Probability (per trace request index) that the request is poisoned.
    poison_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("fault plan needs a non-empty name")
        if self.straggler_workers < 0:
            raise ValueError("straggler_workers must be >= 0")
        if self.straggler_delay_seconds < 0:
            raise ValueError("straggler_delay_seconds must be non-negative")
        if not 0.0 <= self.session_crash_rate <= 1.0:
            raise ValueError("session_crash_rate must lie in [0, 1]")
        if self.session_crash_attempts < 1:
            raise ValueError("session_crash_attempts must be >= 1")
        if not 0.0 <= self.poison_rate <= 1.0:
            raise ValueError("poison_rate must lie in [0, 1]")

    # ------------------------------------------------------------------
    # deterministic selection predicates
    # ------------------------------------------------------------------
    def is_active(self) -> bool:
        """Whether the plan injects anything at all."""
        return (
            (self.straggler_workers > 0 and self.straggler_delay_seconds > 0)
            or self.session_crash_rate > 0
            or self.poison_rate > 0
        )

    def poisons(self, request_index: int) -> bool:
        """Whether trace request ``request_index`` carries a poisoned syndrome."""
        if self.poison_rate <= 0:
            return False
        return _stable_fraction(self.seed, f"poison:req={request_index}") < self.poison_rate

    def crashes_build(self, key_hash: str, attempt: int) -> bool:
        """Whether build ``attempt`` (0-based) of session ``key_hash`` crashes."""
        if self.session_crash_rate <= 0 or attempt >= self.session_crash_attempts:
            return False
        return _stable_fraction(self.seed, f"session-crash:{key_hash}") < self.session_crash_rate

    def straggles(self, worker_index: int) -> bool:
        """Whether worker thread ``worker_index`` is a straggler."""
        return worker_index < self.straggler_workers and self.straggler_delay_seconds > 0

    # ------------------------------------------------------------------
    # serialisation (CLI --fault-plan input, BENCH_service.json embedding)
    # ------------------------------------------------------------------
    def plan_hash(self) -> str:
        """16-hex-digit content hash of the fault-determining fields."""
        payload = self.to_dict()
        payload.pop("name")  # renaming a plan keeps its identity
        return content_hash(payload)


def poisoned_syndrome(num_vertices: int, request_index: int) -> Syndrome:
    """A malformed syndrome: one defect index no graph of this size has.

    Decoders index their vertex tables with it and raise; the service must
    convert that failure into a ``STATUS_ERROR`` response for *this* request
    only.  The index encodes the request index so two poisoned requests never
    alias in the outcome cache.
    """
    return Syndrome(defects=(num_vertices + 1 + request_index,))


class FaultInjector:
    """Runtime hooks of one :class:`FaultPlan` inside a service instance.

    Tracks per-key build attempts (so ``session_crash_attempts`` counts
    *consecutive* crashes of one key) and totals of every injected fault;
    :meth:`stats_snapshot` is folded into
    :meth:`repro.service.DecodeService.stats_snapshot`.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._build_attempts: dict[str, int] = {}
        self.injected_crashes = 0
        self.injected_delays = 0

    # ------------------------------------------------------------------
    # session-build crashes
    # ------------------------------------------------------------------
    def wrap_factory(self, factory):
        """Wrap a session factory so selected keys' first builds crash."""
        if self.plan.session_crash_rate <= 0:
            return factory

        def faulty_factory(key):
            key_hash = key.key_hash()
            with self._lock:
                attempt = self._build_attempts.get(key_hash, 0)
                self._build_attempts[key_hash] = attempt + 1
            if self.plan.crashes_build(key_hash, attempt):
                with self._lock:
                    self.injected_crashes += 1
                raise InjectedFault(
                    f"injected session-build crash (key={key_hash}, attempt={attempt})"
                )
            return factory(key)

        return faulty_factory

    # ------------------------------------------------------------------
    # worker stragglers
    # ------------------------------------------------------------------
    def worker_delay(self) -> float:
        """Straggler delay owed by the *current* worker thread (0.0 if none).

        Worker identity is the pool thread's index, parsed from the
        ``repro-service_<n>`` name :class:`~concurrent.futures.ThreadPoolExecutor`
        assigns — stable for the lifetime of the pool.
        """
        name = threading.current_thread().name
        _, _, suffix = name.rpartition("_")
        if not suffix.isdigit():
            return 0.0
        if not self.plan.straggles(int(suffix)):
            return 0.0
        with self._lock:
            self.injected_delays += 1
        return self.plan.straggler_delay_seconds

    def stats_snapshot(self) -> dict:
        with self._lock:
            return {
                "plan": self.plan.name,
                "plan_hash": self.plan.plan_hash(),
                "injected_crashes": self.injected_crashes,
                "injected_delays": self.injected_delays,
            }


#: Pinned fault plan of the CI hostile smoke (``repro serve-bench
#: --hostile-smoke``): one straggling worker, transient session-build
#: crashes (covered by the smoke's retry budget of 2), and ~2% poisoned
#: requests.  Selections are pure functions of the seed, so the injected
#: faults — and therefore the healthy-request digests the gate compares —
#: are identical on every machine.
HOSTILE_SMOKE_PLAN = FaultPlan(
    name="hostile-smoke",
    seed=2026,
    straggler_workers=1,
    straggler_delay_seconds=0.002,
    session_crash_rate=0.4,
    session_crash_attempts=1,
    poison_rate=0.02,
)
