"""Smoke test of the per-phase timing tool (``tools/core_phases.py``)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.accelerator import MicroBlossomAccelerator

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import core_phases  # noqa: E402


@pytest.mark.parametrize("decoder", ["micro-blossom", "micro-blossom-batch", "parity-blossom"])
def test_phases_add_up_to_each_decode(decoder):
    measured = core_phases.measure(decoder, 3, 0.02, shots=40, seed=5, passes=1)
    assert measured["shots"]
    for record in measured["shots"]:
        assert record["total"] > 0
        assert sum(record[phase] for phase in core_phases.PHASES) == pytest.approx(record["total"])
        assert all(record[phase] >= 0 for phase in core_phases.PHASES if phase != "primal")
    finds = sum(record[phase] for record in measured["shots"] for phase in core_phases.FIND_PHASES)
    assert finds > 0
    assert sum(record["bookkeeping"] for record in measured["shots"]) > 0


def test_a_missing_bookkeeping_target_fails_loudly(monkeypatch):
    import repro.parity.decoder as parity_decoder

    monkeypatch.delattr(parity_decoder, "_snapshot")
    before = dict(vars(MicroBlossomAccelerator))
    with pytest.raises(AttributeError, match="_snapshot"):
        core_phases.PhaseClock().install()
    assert dict(vars(MicroBlossomAccelerator)) == before


def test_shims_are_removed_after_a_run():
    before = dict(vars(MicroBlossomAccelerator))
    core_phases.measure("micro-blossom-batch", 3, 0.02, shots=10, seed=1, passes=1)
    assert dict(vars(MicroBlossomAccelerator)) == before


def test_main_prints_one_row_per_defect_class(capsys):
    argv = ["--distance", "3", "--p", "0.02", "--shots", "40", "--passes", "1"]
    assert core_phases.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "non-trivial shots" in lines[0]
    header = lines[1].split()
    assert header[:3] == ["defects", "shots", "total"]
    assert header[3:] == list(core_phases.PHASES)
    assert lines[-1].split()[0] == "all"
