"""Scaling fits used to extrapolate Monte-Carlo results (Figure 11 support).

The effective-accuracy grid of the paper spans code distances up to 15 and
physical error rates down to 0.01%, where logical error rates fall below
10⁻¹⁰ — far outside what direct Monte Carlo can sample.  Like standard surface
code analyses we fit the familiar scaling law

    p_L(d, p) = A * (p / p_th) ** ((d + 1) / 2)

to logical error rates measured at feasible ``(d, p)`` and extrapolate.  The
relative accuracy of the Union-Find decoder is handled the same way: the ratio
``p_L^UF / p_L^MWPM`` is measured where it can be and extrapolated as an
exponential trend in the code distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LogicalErrorScaling:
    """Fitted parameters of ``p_L = A (p / p_th)^((d+1)/2)``.

    >>> law = LogicalErrorScaling(amplitude=0.1, threshold=0.01)
    >>> points = [(d, p, law.predict(d, p)) for d in (3, 5) for p in (0.001, 0.002)]
    >>> fitted = fit_logical_error_scaling(points)
    >>> round(fitted.amplitude, 6), round(fitted.threshold, 6)
    (0.1, 0.01)
    >>> law.predict(3, 0.05)  # clamped at probability one
    1.0
    """

    amplitude: float
    threshold: float

    def predict(self, distance: int, physical_error_rate: float) -> float:
        exponent = (distance + 1) / 2.0
        value = self.amplitude * (physical_error_rate / self.threshold) ** exponent
        return float(min(value, 1.0))


def fit_logical_error_scaling(
    points: Sequence[tuple[int, float, float]],
) -> LogicalErrorScaling:
    """Fit the scaling law to ``(distance, physical_error_rate, p_L)`` points.

    The fit is linear in log-space:
    ``log p_L = log A + ((d+1)/2) (log p - log p_th)``.
    Points with ``p_L <= 0`` (no observed errors) are ignored.
    """
    rows = []
    targets = []
    for distance, physical, logical in points:
        if logical <= 0.0 or physical <= 0.0:
            continue
        exponent = (distance + 1) / 2.0
        rows.append([1.0, exponent])
        targets.append(math.log(logical) - exponent * math.log(physical))
    if len(rows) < 2:
        raise ValueError("need at least two positive points to fit the scaling law")
    matrix = np.asarray(rows, dtype=float)
    vector = np.asarray(targets, dtype=float)
    solution, *_ = np.linalg.lstsq(matrix, vector, rcond=None)
    log_amplitude, negative_log_threshold = solution
    amplitude = float(math.exp(log_amplitude))
    threshold = float(math.exp(-negative_log_threshold))
    return LogicalErrorScaling(amplitude=amplitude, threshold=threshold)


@dataclass(frozen=True)
class AccuracyRatioTrend:
    """Exponential-in-distance trend of an accuracy penalty ratio (>= 1)."""

    base: float
    growth_per_distance: float

    def predict(self, distance: int) -> float:
        return float(max(1.0, self.base * self.growth_per_distance**distance))


def fit_accuracy_ratio_trend(
    points: Sequence[tuple[int, float]],
) -> AccuracyRatioTrend:
    """Fit ``ratio(d) = base * growth**d`` through measured ratio points.

    Ratios below 1 (sampling noise) are clamped to 1 before fitting.
    """
    usable = [(d, max(1.0, r)) for d, r in points if r > 0]
    if not usable:
        raise ValueError("no usable ratio points")
    if len(usable) == 1:
        distance, ratio = usable[0]
        return AccuracyRatioTrend(base=ratio, growth_per_distance=1.0)
    xs = np.array([d for d, _ in usable], dtype=float)
    ys = np.log(np.array([r for _, r in usable], dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    return AccuracyRatioTrend(
        base=float(math.exp(intercept)),
        growth_per_distance=float(math.exp(slope)),
    )


#: Default scaling law used when no Monte-Carlo calibration data is supplied.
#: The threshold (~1%) and amplitude are typical circuit-level surface code
#: values and give logical error rates of the same order as the paper's quoted
#: p_L = 4.1e-6 at d = 9, p = 0.1%.
DEFAULT_MWPM_SCALING = LogicalErrorScaling(amplitude=0.08, threshold=0.009)

#: Default Union-Find accuracy penalty trend: ~1.15x at d = 3 growing to ~3x
#: at d = 15, matching the Helios-vs-MWPM gap discussed in §2 and §8.3.
DEFAULT_UNION_FIND_TREND = AccuracyRatioTrend(base=1.04, growth_per_distance=1.072)
