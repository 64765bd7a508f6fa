"""Wall-clock time per non-trivial shot of a blossom decoder, by phase.

Samples shots of one surface-code configuration, decodes every non-trivial
one once untimed (so that the lazily built distance rows and graph caches
are in place), then decodes them again ``--passes`` times with timing shims
around the dual engine's instructions.  Each shot's decode time is split
into phases, and the table reports microseconds per shot for every
defect-count class:

* ``reset``, ``load``, ``grow``: those dual instructions;
* ``find:Conflict``, ``find:GrowLength``, ``find:Finished``: ``find
  obstacle`` calls, by the kind of answer;
* ``other_dual``: ``set direction``, blossom changes and the final
  pre-match read;
* ``bookkeeping``: the decoder's counter snapshots (the engines count one
  shot, so a decode reads them as they are);
* ``primal``: the rest of the decode (the primal module and decoder glue).

The shims cost about a microsecond per timed call, charged to the phase they
wrap; the ``total`` column is measured around the whole decode.  Only
``micro-blossom``, ``micro-blossom-batch`` and ``parity-blossom`` (and their
``lut+`` forms) run on the dual engine; other decoders report ``primal``
only.

Usage::

    python tools/core_phases.py --decoder micro-blossom-batch --distance 9 --p 0.001
    python tools/core_phases.py --decoder micro-blossom --distance 5 --p 0.005 --shots 2000
"""

from __future__ import annotations

import argparse
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Dual-engine instructions timed on their own, and the phase they fall in.
DUAL_PHASES = {
    "reset": "reset",
    "load": "load",
    "grow": "grow",
    "set_direction": "other_dual",
    "create_blossom": "other_dual",
    "expand_blossom": "other_dual",
    "prematched_pairs": "other_dual",
}
#: Counter bookkeeping timed as ``bookkeeping``, per decoder module.  Every
#: name must exist: a renamed one would read 0 instead of failing.
BOOKKEEPING = {
    "repro.core.decoder": ("_snapshot",),
    "repro.parity.decoder": ("_snapshot",),
}
FIND_PHASES = ("find:Conflict", "find:GrowLength", "find:Finished")
PHASES = ("reset", "load", *FIND_PHASES, "grow", "other_dual", "bookkeeping", "primal")
#: Defect counts reported on their own; larger ones share the last row.
CLASSES = 6


class PhaseClock:
    """Timing shims around the dual engines' instructions and the decoder's
    counter bookkeeping; ``spent`` accumulates seconds per phase."""

    def __init__(self) -> None:
        self.spent: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self._depth = 0

    def _shim(self, original, phase):
        clock = time.perf_counter

        def shim(*args, **kwargs):
            if self._depth:
                return original(*args, **kwargs)
            self._depth += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                self._depth -= 1
            name = phase if phase != "find" else f"find:{type(result).__name__}"
            self.spent[name] += clock() - start
            return result

        return shim

    def _patch(self, owner, name: str, phase: str) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, self._shim(original, phase))

    def install(self) -> None:
        from repro.core.accelerator import MicroBlossomAccelerator
        from repro.parity.decoder import SerialDualPhase

        modules = {name: importlib.import_module(name) for name in BOOKKEEPING}
        for name, targets in BOOKKEEPING.items():
            missing = [target for target in targets if target not in vars(modules[name])]
            if missing:
                raise AttributeError(f"{name} has no {', '.join(missing)} to time")
        for engine in (MicroBlossomAccelerator, SerialDualPhase):
            for name, phase in DUAL_PHASES.items():
                if hasattr(engine, name):
                    self._patch(engine, name, phase)
            self._patch(engine, "find_obstacle", "find")
        for name, targets in BOOKKEEPING.items():
            for target in targets:
                self._patch(modules[name], target, "bookkeeping")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved = []


def measure(decoder_name: str, distance: int, p: float, shots: int, seed: int, passes: int) -> dict:
    """Per non-trivial shot: its defect count, total and per-phase seconds
    (summed over ``passes``), keyed ``"shots"``."""
    from repro.api import get_decoder
    from repro.graphs import SyndromeSampler, circuit_level_noise, surface_code_decoding_graph

    graph = surface_code_decoding_graph(distance, circuit_level_noise(p))
    decoder = get_decoder(decoder_name, graph)
    batch = [s for s in SyndromeSampler(graph, seed=seed).sample_batch(shots) if s.defects]
    for syndrome in batch:
        decoder.decode_detailed(syndrome)
    records = [
        {"defects": s.defect_count, "total": 0.0, **dict.fromkeys(PHASES, 0.0)} for s in batch
    ]
    clock = PhaseClock()
    clock.install()
    try:
        for _ in range(passes):
            for record, syndrome in zip(records, batch):
                clock.spent.clear()
                start = time.perf_counter()
                decoder.decode_detailed(syndrome)
                total = time.perf_counter() - start
                record["total"] += total
                for phase, seconds in clock.spent.items():
                    record[phase] += seconds
                record["primal"] += total - sum(clock.spent.values())
    finally:
        clock.uninstall()
    return {"shots": records, "passes": passes}


def table(measured: dict) -> list[dict]:
    """Rows of µs per shot: one per defect-count class, then all shots."""
    passes = measured["passes"]
    groups: dict[str, list[dict]] = defaultdict(list)
    for record in measured["shots"]:
        count = record["defects"]
        groups[str(count) if count < CLASSES else f">={CLASSES}"].append(record)
    order = sorted(groups, key=lambda key: (key.startswith(">"), int(key.lstrip(">="))))
    rows = []
    for key, records in [*((key, groups[key]) for key in order), ("all", measured["shots"])]:
        scale = 1e6 / (passes * len(records))
        row = {"defects": key, "shots": len(records)}
        row["total"] = round(sum(r["total"] for r in records) * scale, 1)
        for phase in PHASES:
            row[phase] = round(sum(r[phase] for r in records) * scale, 1)
        rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--decoder", default="micro-blossom-batch")
    parser.add_argument("--distance", type=int, default=9)
    parser.add_argument("--p", type=float, default=0.001, help="circuit-level error rate")
    parser.add_argument(
        "--shots", type=int, default=3000, help="shots sampled (trivial ones skipped)"
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--passes", type=int, default=2, help="timed passes over the shots")
    args = parser.parse_args(argv)
    measured = measure(args.decoder, args.distance, args.p, args.shots, args.seed, args.passes)
    totals = sorted(r["total"] / args.passes * 1e6 for r in measured["shots"])
    if not totals:
        print("no non-trivial shot sampled")
        return 1
    quantiles = statistics.quantiles(totals, n=100) if len(totals) > 1 else totals * 99
    print(
        f"{args.decoder} d={args.distance} p={args.p} circuit-level, seed {args.seed}: "
        f"{len(totals)} non-trivial shots x {args.passes} passes, {os.cpu_count()} CPUs; "
        f"per-shot p50 {quantiles[49]:.0f} us, p90 {quantiles[89]:.0f} us, "
        f"p99 {quantiles[98]:.0f} us"
    )
    columns = ["defects", "shots", "total", *PHASES]
    rows = [[str(row[column]) for column in columns] for row in table(measured)]
    widths = [max(len(cell) for cell in column) for column in zip(columns, *rows)]
    for line in [columns, *rows]:
        print("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
