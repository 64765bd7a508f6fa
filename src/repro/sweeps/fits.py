"""Threshold / scaling fits over stored sweep results.

Thin adapters from :class:`~repro.sweeps.store.PointResult` lists onto the
fitting machinery of :mod:`repro.evaluation.scaling`.  Zero-failure points
are **never** fed into a fit: their maximum-likelihood rate is the degenerate
``0 ± 0`` (see :func:`repro.evaluation.engine.rule_of_three_upper_bound`), which
in log-space would pull the fit to ``-inf``.  Reports surface them as
one-sided upper bounds instead.
"""

from __future__ import annotations

from ..evaluation.scaling import LogicalErrorScaling, fit_logical_error_scaling
from .store import PointResult


def scaling_points(
    results: list[PointResult],
    *,
    noise: str | None = None,
    decoder: str | None = None,
) -> list[tuple[int, float, float]]:
    """``(distance, physical_error_rate, rate)`` tuples usable by a fit.

    Zero-failure (degenerate) points are excluded; optional ``noise`` /
    ``decoder`` filters restrict to one grid slice.  Streaming points are
    excluded too: they decode the same seeded syndromes as their batch
    counterparts (streaming is exactness-preserving), so keeping both would
    double-count every cell.
    """
    out: list[tuple[int, float, float]] = []
    for result in results:
        point = result.point
        if noise is not None and point.noise != noise:
            continue
        if decoder is not None and point.decoder != decoder:
            continue
        if result.zero_failures or point.streaming:
            continue
        out.append((point.distance, point.physical_error_rate, result.rate))
    return out


def fit_sweep_scaling(
    results: list[PointResult],
    *,
    noise: str | None = None,
    decoder: str | None = None,
) -> LogicalErrorScaling:
    """Fit ``p_L = A (p / p_th)^((d+1)/2)`` to one slice of sweep results.

    Raises ``ValueError`` when fewer than two non-degenerate points remain.
    """
    return fit_logical_error_scaling(
        scaling_points(results, noise=noise, decoder=decoder)
    )


def report_rows(results: list[PointResult]) -> list[dict]:
    """Rows for ``format_rows`` — one per point, upper bounds where needed.

    Zero-failure points report ``logical_error_rate`` as the one-sided
    ``<= rule-of-three`` bound rather than the degenerate ``0 ± 0``.
    """
    rows: list[dict] = []
    for result in results:
        point = result.point
        if result.zero_failures:
            rate_display = f"<={result.upper_bound:.3g}"
        else:
            rate_display = f"{result.rate:.4g}"
        row = {
            "distance": point.distance,
            "noise": point.noise,
            "physical_error_rate": point.physical_error_rate,
            "decoder": point.decoder,
            "mode": "stream" if point.streaming else "batch",
            "shots": result.shots,
            "errors": result.errors,
            "logical_error_rate": rate_display,
            "standard_error": result.standard_error,
            "upper_bound": result.upper_bound,
            "shots_per_sec": result.shots_per_second,
            "cached": "yes" if result.cached else "no",
        }
        if result.latency is not None and result.latency.count:
            row["latency_p99_us"] = result.latency.p99_seconds * 1e6
        rows.append(row)
    return rows
