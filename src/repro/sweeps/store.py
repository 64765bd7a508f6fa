"""On-disk result store that makes sweeps resumable.

The store is a JSON-lines file with two record types:

* ``spec`` records — the full :class:`~repro.sweeps.spec.SweepSpec` under its
  content hash, written once per sweep so ``repro sweep resume`` and
  ``repro sweep report`` need nothing but the store file;
* ``point`` records — one completed :class:`PointResult`, keyed by
  ``(spec_hash, point.key)``.  The key encodes every result-determining
  parameter (distance, noise, error rate, decoder, shots, seed, shard size,
  early-stopping target), so a lookup hit is guaranteed to be the exact run
  that would otherwise be recomputed.

Records separate the **deterministic result** (shots, errors, latency
histogram summary — a pure function of the point parameters) from
**timing metadata** (elapsed wall-clock, shots/sec — different on every
machine).  :meth:`ResultStore.fingerprint` hashes only the deterministic
part, which is the store's bit-identity contract: an interrupted-and-resumed
sweep produces the same fingerprint as an uninterrupted one, for any worker
count.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..api.wireform import WireForm
from ..evaluation.engine import LatencyHistogram, RateEstimate
from .spec import SweepPoint, SweepSpec

#: Version of the on-disk record layout.
STORE_FORMAT = 1


@dataclass(frozen=True)
class LatencySummary(WireForm):
    """Deterministic summary of a point's latency histogram."""

    count: int
    mean_seconds: float
    p50_seconds: float
    p99_seconds: float
    min_seconds: float
    max_seconds: float

    @classmethod
    def from_histogram(cls, histogram: LatencyHistogram) -> "LatencySummary":
        if histogram.count == 0:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=histogram.count,
            mean_seconds=histogram.mean,
            p50_seconds=histogram.percentile(50),
            p99_seconds=histogram.percentile(99),
            min_seconds=histogram.min_seconds,
            max_seconds=histogram.max_seconds,
        )


@dataclass(frozen=True)
class LUTStats(WireForm):
    """Deterministic LUT hit/miss statistics of one ``lut+<fallback>`` point.

    ``hits``/``misses`` count decoded (defect-carrying) shots resolved by /
    falling through the lookup table; ``zero_defect_hits`` counts the shots
    the Monte-Carlo engine never decoded at all — the LUT's dedicated
    zero-defect fast path answers those in O(1) by construction, so they are
    table hits for rate purposes.
    """

    hits: int
    misses: int
    zero_defect_hits: int

    @property
    def hit_rate(self) -> float:
        """Table hits (incl. zero-defect shots) over all shots."""
        total = self.hits + self.misses + self.zero_defect_hits
        if not total:
            return 0.0
        return (self.hits + self.zero_defect_hits) / total


@dataclass(frozen=True)
class PointResult(RateEstimate):
    """Completed Monte-Carlo result of one sweep point."""

    point: SweepPoint
    shots: int
    errors: int
    decoded_shots: int
    defects: int
    stopped_early: bool
    latency: LatencySummary | None = None
    #: LUT hit/miss statistics — only ``lut+<fallback>`` points carry one.
    #: Serialized *only when present* so stores written before the LUT
    #: subsystem existed keep their fingerprints byte for byte.
    lut: LUTStats | None = None
    #: Heralded erasure flags observed across all shots — non-zero only for
    #: the ``erasure`` noise family.  Serialized *only when non-zero* (same
    #: contract as ``lut``) so pre-erasure stores keep their fingerprints.
    erased: int = 0
    #: Wall-clock seconds of the run (machine-dependent; excluded from the
    #: store's determinism contract).  Cache hits restore the value the
    #: original run recorded, so throughput columns reflect that machine.
    elapsed_seconds: float = 0.0
    #: True when this result came out of the store instead of being re-run.
    cached: bool = False

    @property
    def mean_defects(self) -> float:
        return self.defects / self.shots if self.shots else 0.0

    @property
    def shots_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.shots / self.elapsed_seconds

    def result_dict(self) -> dict:
        """The deterministic payload stored on disk."""
        payload = {
            "shots": self.shots,
            "errors": self.errors,
            "decoded_shots": self.decoded_shots,
            "defects": self.defects,
            "stopped_early": self.stopped_early,
            "latency": self.latency.to_dict() if self.latency else None,
        }
        if self.lut is not None:
            payload["lut"] = self.lut.to_dict()
        if self.erased:
            payload["erased"] = self.erased
        return payload


class StoreError(RuntimeError):
    """Raised on malformed store files or incompatible formats."""


class ResultStore:
    """Append-only JSON-lines store of sweep specs and point results.

    ``path=None`` keeps the store in memory (used by the experiment runners
    when no persistence was requested); every record still round-trips
    through its JSON line, so the in-memory and on-disk behaviours are
    identical.

    >>> from repro.sweeps import SweepSpec
    >>> store = ResultStore(None)                      # in-memory
    >>> spec = SweepSpec("s", (3,), (0.02,), ("union-find",), shots=8)
    >>> spec_hash = store.ensure_spec(spec)
    >>> len(store), spec_hash == spec.spec_hash()
    (0, True)
    >>> len(store.fingerprint())
    64
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._lines: list[str] = []
        self._specs: dict[str, dict] = {}
        self._points: dict[tuple[str, str], dict] = {}
        self._trailing_newline_missing = False
        if self.path is not None and self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    # loading / indexing
    # ------------------------------------------------------------------
    def _index(self, line: str) -> None:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StoreError(f"malformed store line: {line[:80]!r}") from exc
        if record.get("format") != STORE_FORMAT:
            raise StoreError(
                f"unsupported store format {record.get('format')!r} "
                f"(this build reads format {STORE_FORMAT})"
            )
        kind = record.get("type")
        if kind == "spec":
            self._specs[record["spec_hash"]] = record["spec"]
        elif kind == "point":
            self._points[(record["spec_hash"], record["key"])] = record
        else:
            raise StoreError(f"unknown store record type {kind!r}")

    def _load(self) -> None:
        raw = self.path.read_text(encoding="utf-8")
        *complete, tail = raw.split("\n")  # tail == "" when newline-terminated
        for line in complete:
            line = line.strip()
            if not line:
                continue
            self._lines.append(line)
            self._index(line)  # a malformed *terminated* line is corruption
        if not tail.strip():
            return
        # The final line lost its newline — a write torn by SIGKILL / power
        # loss / full disk.  If the JSON still parses the record is complete
        # (only the terminator is missing): keep it and restore the newline
        # on the next append.  Otherwise drop the partial record by
        # truncating the file, so the sweep loses at most the point in
        # flight and the store stays appendable — the documented
        # crash-resume contract.
        try:
            json.loads(tail)
        except json.JSONDecodeError:
            keep_bytes = len(raw.encode("utf-8")) - len(tail.encode("utf-8"))
            with open(self.path, "r+b") as handle:
                handle.truncate(keep_bytes)
            return
        self._lines.append(tail)
        self._index(tail)
        self._trailing_newline_missing = True

    def _append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._lines.append(line)
        self._index(line)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                if self._trailing_newline_missing:
                    handle.write("\n")
                    self._trailing_newline_missing = False
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def ensure_spec(self, spec: SweepSpec) -> str:
        """Record the spec (once) and return its content hash."""
        spec_hash = spec.spec_hash()
        if spec_hash not in self._specs:
            self._append(
                {
                    "type": "spec",
                    "format": STORE_FORMAT,
                    "spec_hash": spec_hash,
                    "spec": spec.to_dict(),
                }
            )
        return spec_hash

    def put(self, spec_hash: str, result: PointResult) -> None:
        """Append one completed point (idempotent per ``(spec_hash, key)``)."""
        key = result.point.key
        if (spec_hash, key) in self._points:
            return
        self._append(
            {
                "type": "point",
                "format": STORE_FORMAT,
                "spec_hash": spec_hash,
                "key": key,
                "point": result.point.to_dict(),
                "result": result.result_dict(),
                "timing": {
                    "elapsed_seconds": result.elapsed_seconds,
                    "shots_per_second": result.shots_per_second,
                },
            }
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @staticmethod
    def _result_from_record(record: dict, cached: bool) -> PointResult:
        result = record["result"]
        latency = result.get("latency")
        lut = result.get("lut")
        timing = record.get("timing") or {}
        return PointResult(
            point=SweepPoint.from_dict(record["point"]),
            shots=int(result["shots"]),
            errors=int(result["errors"]),
            decoded_shots=int(result["decoded_shots"]),
            defects=int(result["defects"]),
            stopped_early=bool(result["stopped_early"]),
            latency=LatencySummary.from_dict(latency) if latency else None,
            lut=LUTStats.from_dict(lut) if lut else None,
            erased=int(result.get("erased", 0)),
            elapsed_seconds=float(timing.get("elapsed_seconds", 0.0)),
            cached=cached,
        )

    def get(self, spec_hash: str, point: SweepPoint) -> PointResult | None:
        """The cached result of ``point``, or ``None`` when absent."""
        record = self._points.get((spec_hash, point.key))
        if record is None:
            return None
        return self._result_from_record(record, cached=True)

    def __contains__(self, key: tuple[str, SweepPoint]) -> bool:
        spec_hash, point = key
        return (spec_hash, point.key) in self._points

    def __len__(self) -> int:
        return len(self._points)

    @property
    def specs(self) -> dict[str, SweepSpec]:
        """All specs recorded in the store, by content hash (insertion order)."""
        return {h: SweepSpec.from_dict(d) for h, d in self._specs.items()}

    def results(self, spec_hash: str | None = None) -> list[PointResult]:
        """All stored point results (optionally one sweep's), in write order."""
        out: list[PointResult] = []
        for (stored_hash, _key), record in self._points.items():
            if spec_hash is not None and stored_hash != spec_hash:
                continue
            out.append(self._result_from_record(record, cached=True))
        return out

    # ------------------------------------------------------------------
    # determinism contract
    # ------------------------------------------------------------------
    def canonical_lines(self) -> list[str]:
        """The store's records with machine-dependent timing stripped."""
        canonical: list[str] = []
        for line in self._lines:
            record = json.loads(line)
            record.pop("timing", None)
            canonical.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        return canonical

    def fingerprint(self) -> str:
        """SHA-256 over the canonical records — equal fingerprints mean the
        stores hold bit-identical sweep results (independent of wall-clock
        timing, interruption points, and worker counts)."""
        digest = hashlib.sha256()
        for line in self.canonical_lines():
            digest.update(line.encode())
            digest.update(b"\n")
        return digest.hexdigest()
