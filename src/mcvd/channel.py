"""Closed-form first-hitting channel models and the SIR metric.

Every model is one curve,

    F(t) = b1 * r_rx / (d + r_rx) * erfc(d / ((4D)^b2 * t^b3)).

The enhanced model fits all three coefficients. The primitive model fits b1
at (b2, b3) = (1/2, 1/2), and the point-transmitter formula is the curve at
(1, 1/2, 1/2), where the argument is d / sqrt(4 D t).

erfc is tabulated: a Taylor expansion of order 10 about every node k/256 on
[0, 27], built once at import from the C library's ``math.erfc`` and the
Hermite form of its derivatives, and evaluated about the nearest node. It is
within 8 ulp of ``math.erfc`` wherever that is a normal float, and within
1e-300 below that.
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
    "sample_point_formula",
    "sir_curve",
]


ERFC_STEP = 256          # nodes per unit of x
ERFC_MAX = 27.0          # erfc(27) is 5.2e-319; the table gives 0 beyond
ERFC_ORDER = 10


def _erfc_taylor_table() -> np.ndarray:
    """Taylor coefficients of erfc about each node x0 = k / ERFC_STEP on
    [0, ERFC_MAX], highest power first: row ERFC_ORDER - n holds
    erfc^(n)(x0) / n!, which for n >= 1 is
    -(2/sqrt(pi)) e^(-x0^2) (-1)^(n-1) H_(n-1)(x0) / n!, H the physicists'
    Hermite polynomials."""
    nodes = np.arange(round(ERFC_MAX * ERFC_STEP) + 1) / ERFC_STEP
    table = np.empty((ERFC_ORDER + 1, nodes.size))
    table[ERFC_ORDER] = [math.erfc(x0) for x0 in nodes]
    scale = -2.0 / math.sqrt(math.pi) * np.exp(-nodes * nodes)
    herm_prev, herm = np.zeros_like(nodes), np.ones_like(nodes)     # H_(-1), H_0
    for n in range(1, ERFC_ORDER + 1):
        table[ERFC_ORDER - n] = scale * (-1.0) ** (n - 1) * herm / math.factorial(n)
        herm_prev, herm = herm, 2.0 * nodes * herm - 2.0 * (n - 1) * herm_prev
    return table


_ERFC_TAYLOR = _erfc_taylor_table()


def erfc(x):
    """Complementary error function, from the Taylor table about the
    nearest node.

    A scalar in gives a float out; an ndarray in gives the same shape out.
    NaN propagates, |x| > 27 gives 0 and x < 0 gives 2 - erfc(-x).
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    a = np.abs(flat)
    # fmin takes NaN to the last node, minimum keeps it NaN; beyond the last
    # node h is 0, so no power of h overflows
    node = np.rint(np.fmin(a, ERFC_MAX) * ERFC_STEP)
    h = np.minimum(a, ERFC_MAX) - node / ERFC_STEP
    coeffs = np.take(_ERFC_TAYLOR, node.astype(np.intp), axis=1)
    out = coeffs[0]
    for row in coeffs[1:]:
        out *= h
        out += row
    out[a > ERFC_MAX] = 0.0
    np.subtract(2.0, out, out=out, where=flat < 0.0)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# (b2, b3) of the primitive model and of the point-transmitter formula
POINT_EXPONENTS = (0.5, 0.5)
POINT_FORMULA = ModelParams(ModelKind.PRIMITIVE, 1.0)


def _amplitude(p: SystemParams) -> float:
    return p.r_rx / (p.d + p.r_rx)


def _erfc_argument(p: SystemParams, b2: float, b3: float, times: np.ndarray) -> np.ndarray:
    return p.d / ((4.0 * p.diff_coeff) ** b2 * times ** b3)


def _model_curve(p: SystemParams, m: ModelParams, times: np.ndarray) -> np.ndarray:
    """Model values at an array of times t > 0."""
    b2, b3 = POINT_EXPONENTS if m.kind is ModelKind.PRIMITIVE else (m.b2, m.b3)
    return m.b1 * _amplitude(p) * erfc(_erfc_argument(p, b2, b3, times))


def point_hit_fraction(p: SystemParams, t: float) -> float:
    """Fraction of emitted molecules absorbed by time t, point transmitter."""
    if not t >= 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
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
    return np.divide(f, denom, out=np.full_like(f, np.inf), where=denom > 0.0)
