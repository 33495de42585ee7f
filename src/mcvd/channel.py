"""Closed-form first-hitting channel models and the SIR metric.

The point-transmitter hitting fraction is

    F(t) = r_rx / (d + r_rx) * erfc(d / sqrt(4 D t)),

the primitive model scales it by b1, and the enhanced model generalizes the
denominator to (4D)^b2 * t^b3. erfc is the C library's, mapped over arrays
element by element.
"""
from __future__ import annotations

import math

import numpy as np

from .types import (
    ModelKind,
    ModelParams,
    ReceivedSignal,
    SystemParams,
    TimeGrid,
    ValidationError,
)

__all__ = [
    "erfc",
    "point_hit_fraction",
    "sample_model",
    "sir_curve",
]


def erfc(x):
    """Complementary error function: stdlib ``math.erfc`` (libm) per element.

    A scalar in gives a float out; an ndarray in gives the same shape out.
    NaN propagates.
    """
    arr = np.asarray(x, dtype=float)
    out = np.fromiter(map(math.erfc, arr.ravel().tolist()), float, count=arr.size)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _amplitude(p: SystemParams) -> float:
    return p.r_rx / (p.d + p.r_rx)


def _point_curve(p: SystemParams, times: np.ndarray) -> np.ndarray:
    """Point-transmitter fraction at an array of times; t == 0 maps to 0.

    The argument is written as (4D)^0.5 * t^0.5 rather than sqrt(4 D t) so
    that the enhanced model with b2 = b3 = 0.5 reduces to this expression
    bit for bit, not merely to rounding error.
    """
    times = np.asarray(times, dtype=float)
    out = np.zeros_like(times)
    pos = times > 0.0
    z = p.d / ((4.0 * p.diff_coeff) ** 0.5 * times[pos] ** 0.5)
    out[pos] = _amplitude(p) * erfc(z)
    return out


def _model_curve(p: SystemParams, m: ModelParams, times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if m.kind is ModelKind.PRIMITIVE:
        return m.b1 * _point_curve(p, times)
    out = np.zeros_like(times)
    pos = times > 0.0
    z = p.d / ((4.0 * p.diff_coeff) ** m.b2 * times[pos] ** m.b3)
    out[pos] = m.b1 * _amplitude(p) * erfc(z)
    return out


def point_hit_fraction(p: SystemParams, t: float) -> float:
    """Fraction of emitted molecules absorbed by time t, point transmitter."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    return float(_point_curve(p, np.array([t]))[0])


def sample_model(p: SystemParams, m: ModelParams, grid: TimeGrid) -> ReceivedSignal:
    """Evaluate a model at the grid's bin-end times."""
    return ReceivedSignal(grid, _model_curve(p, m, grid.times()))


def sample_point_formula(p: SystemParams, grid: TimeGrid) -> ReceivedSignal:
    """Evaluate the point-transmitter formula at the grid's bin-end times."""
    return ReceivedSignal(grid, _point_curve(p, grid.times()))


def sir_curve(sig: ReceivedSignal, reference_end: float | None = None) -> np.ndarray:
    """Signal-to-interference ratio per bin: F(t) / (F_ref - F(t)).

    F_ref is the signal's own final value F(t_end) unless ``reference_end``
    gives another curve's final value. Bins whose denominator is not positive
    get +inf (no interference left). F_ref must be > 0: with no received
    molecules there is no ratio.
    """
    f = sig.cumulative_fraction
    f_ref = float(f[-1]) if reference_end is None else float(reference_end)
    if not f_ref > 0.0:
        raise ValidationError(f"sir_curve requires a reference end value > 0, got {f_ref}")
    denom = f_ref - f
    out = np.full_like(f, np.inf)
    ok = denom > 0.0
    out[ok] = f[ok] / denom[ok]
    return out
