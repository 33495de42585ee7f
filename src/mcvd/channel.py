"""Closed-form first-hitting channel models and the SIR metric.

Every model is one curve,

    F(t) = b1 * r_rx / (d + r_rx) * erfc(d / ((4D)^b2 * t^b3)).

The enhanced model fits all three coefficients. The primitive model fits b1
at (b2, b3) = (1/2, 1/2), and the point-transmitter formula is the curve at
(1, 1/2, 1/2), where the argument is d / sqrt(4 D t). erfc is the C
library's, mapped over arrays element by element.
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


# (b2, b3) of the primitive model and of the point-transmitter formula
POINT_EXPONENTS = (0.5, 0.5)
POINT_FORMULA = ModelParams(ModelKind.PRIMITIVE, 1.0)


def _amplitude(p: SystemParams) -> float:
    return p.r_rx / (p.d + p.r_rx)


def _erfc_argument(p: SystemParams, b2: float, b3: float, times: np.ndarray) -> np.ndarray:
    return p.d / ((4.0 * p.diff_coeff) ** b2 * times ** b3)


def _model_curve(p: SystemParams, m: ModelParams, times: np.ndarray) -> np.ndarray:
    """Model values at an array of times; t == 0 maps to 0."""
    times = np.asarray(times, dtype=float)
    b2, b3 = POINT_EXPONENTS if m.kind is ModelKind.PRIMITIVE else (m.b2, m.b3)
    out = np.zeros_like(times)
    pos = times > 0.0
    out[pos] = m.b1 * _amplitude(p) * erfc(_erfc_argument(p, b2, b3, times[pos]))
    return out


def point_hit_fraction(p: SystemParams, t: float) -> float:
    """Fraction of emitted molecules absorbed by time t, point transmitter."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    return float(_model_curve(p, POINT_FORMULA, np.array([t]))[0])


def sample_model(p: SystemParams, m: ModelParams, grid: TimeGrid) -> ReceivedSignal:
    """Evaluate a model at the grid's bin-end times."""
    return ReceivedSignal(grid, _model_curve(p, m, grid.times()))


def sample_point_formula(p: SystemParams, grid: TimeGrid) -> ReceivedSignal:
    """Evaluate the point-transmitter formula at the grid's bin-end times."""
    return ReceivedSignal(grid, _model_curve(p, POINT_FORMULA, grid.times()))


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
