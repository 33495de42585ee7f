"""Checks the tests run against the package: derivative checks of the
fitter's and the network's analytic Jacobians, the Spearman rank correlation
of acceptance criterion 6, and the channel models at a single time.

The program never calls these, so they live here rather than in ``mcvd``.
"""
import numpy as np

from mcvd.channel import _model_curve
from mcvd.fitting import _curve_and_jacobian
from mcvd.network import _forward_scaled, _layers, _output_jacobian, _params_as_row, _scale
from mcvd.types import ModelKind, ValidationError


def model_hit_fraction(p, m, t: float) -> float:
    """Primitive or enhanced model value at time t (0 at t = 0)."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
    return float(_model_curve(p, m, np.array([t]))[0])


def _masked_relative_deviation(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max relative deviation over the entries above 1e-3 of the overall
    scale: below that the central difference is dominated by rounding
    (eps * f / h ~ 1e-10 absolute), while such entries carry under 1e-6
    relative weight in the normal equations. Genuine defects show up at full
    scale."""
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-300)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    mask = denom > 1e-3 * scale
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(analytic[mask] - numeric[mask]) / denom[mask]))


def jacobian_check(p, kind: ModelKind, coeffs, times: np.ndarray | None = None) -> float:
    """Masked relative deviation of the fitter's analytic Jacobian from
    central finite differences with step 1e-6 * max(1, |b_i|)."""
    coeffs = np.asarray(coeffs, dtype=float)
    kind = ModelKind(kind)
    if times is None:
        times = np.arange(1, 1001) * 1e-3
    _, analytic = _curve_and_jacobian(p, kind, coeffs, times)
    numeric = np.empty_like(analytic)
    for i in range(coeffs.size):
        h = 1e-6 * max(1.0, abs(coeffs[i]))
        up = coeffs.copy()
        up[i] += h
        dn = coeffs.copy()
        dn[i] -= h
        f_up, _ = _curve_and_jacobian(p, kind, up, times)
        f_dn, _ = _curve_and_jacobian(p, kind, dn, times)
        numeric[:, i] = (f_up - f_dn) / (2.0 * h)
    return _masked_relative_deviation(analytic, numeric)


def gradient_check(net, record) -> float:
    """Masked relative deviation between the analytic Jacobian of the
    normalized network outputs w.r.t. the weights and central finite
    differences with step 1e-6, at the record's input."""
    x = _params_as_row(record.input, net.kind)
    return gradient_check_scaled(net, _scale(x[None, :], net.in_min, net.in_max))


def gradient_check_scaled(net, x_scaled: np.ndarray) -> float:
    """``gradient_check`` at inputs already normalized to the network's range."""
    analytic = _output_jacobian(x_scaled, net.w1, net.b1, net.w2, net.b2)
    w0 = np.concatenate([net.w1.ravel(), net.b1, net.w2.ravel(), net.b2])
    n_in, out = net.w1.shape[1], net.w2.shape[0]
    numeric = np.empty_like(analytic)
    h = 1e-6
    for i in range(w0.size):
        wp = w0.copy(); wp[i] += h
        wm = w0.copy(); wm[i] -= h
        y_up = _forward_scaled(x_scaled, *_layers(wp, n_in, out)).ravel()
        y_dn = _forward_scaled(x_scaled, *_layers(wm, n_in, out)).ravel()
        numeric[:, i] = (y_up - y_dn) / (2.0 * h)
    return _masked_relative_deviation(analytic, numeric)


def spearman(x, y) -> float:
    """Spearman rank correlation with average ranks for ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValidationError("spearman needs two equal-length sequences, n >= 2")

    def ranks(v: np.ndarray) -> np.ndarray:
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size)
        r[order] = np.arange(1, v.size + 1, dtype=float)
        for val in np.unique(v):
            mask = v == val
            if np.count_nonzero(mask) > 1:
                r[mask] = r[mask].mean()
        return r

    rx = ranks(x)
    ry = ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx @ rx) * (ry @ ry))
    if denom == 0:
        return 0.0
    return float((rx @ ry) / denom)
