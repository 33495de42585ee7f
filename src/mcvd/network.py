"""Feedforward network mapping system parameters to channel-model
coefficients, trained by Levenberg-Marquardt under Bayesian regularization.

Architecture: inputs -> H tanh units -> linear outputs. The primitive
network maps the four parameters (d, r_tx, r_rx, D) to b1. The enhanced
network works in the diffusion equation's similarity coordinates: the hit
fraction depends on D and t only through Dt and on lengths only through their
ratios, so its inputs are (d/r_rx, r_tx/r_rx, D/r_rx^2) and its targets
(b1, k, b3), where

    k = r_rx^(1 - 2 b3) * D^b3 / (4D)^b2

is the scale of the same curve written as erfc(k (d/r_rx) / (Dt/r_rx^2)^b3).
``forward`` converts k back to b2. Inputs and targets are scaled to [-1, 1]
by training-set min/max.

``train`` optimizes one flat weight vector ``w1|b1|w2|b2``, each matrix
row-major, which is also the column order of the output Jacobian; it reads
the four layers as views into that vector and builds its ``Network`` once,
after the last epoch. The training objective is

    F = beta * E_D + alpha * E_W,    E_D = sum of squared normalized errors,
                                     E_W = 0.5 * sum of squared weights,

with (alpha, beta) re-estimated each epoch from the evidence approximation:
gamma = k - alpha * tr(H^-1), alpha = gamma / (2 E_W),
beta = (N - gamma) / (2 E_D), H the Gauss-Newton approximation of the
objective Hessian at the settled weights.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import POINT_EXPONENTS
from .fitting import default_bounds
from .types import ModelKind, ModelParams, Provenance, SystemParams, ValidationError

__all__ = [
    "CaseRecord",
    "Network",
    "TrainReport",
    "train",
    "forward",
]

logger = logging.getLogger(__name__)

N_INPUTS = {ModelKind.PRIMITIVE: 4, ModelKind.ENHANCED: 3}
DEFAULT_HIDDEN = 10
MAX_EPOCHS = 300
OBJECTIVE_REL_TOL = 1e-9
INNER_MAX_STEPS = 60
LAMBDA_MIN = 1e-12
LAMBDA_MAX = 1e12
HYPER_MIN = 1e-12
HYPER_MAX = 1e12


@dataclass(frozen=True)
class CaseRecord:
    """One (system parameters -> model coefficients) pair."""

    input: SystemParams
    output: ModelParams
    provenance: Provenance

    def __post_init__(self) -> None:
        object.__setattr__(self, "provenance", Provenance(self.provenance))


@dataclass
class TrainReport:
    epochs: int
    e_d: float
    e_w: float
    alpha: float
    beta: float
    gamma: float
    degenerate_targets: bool = False


@dataclass
class Network:
    """Weights plus the normalization metadata needed to apply them. The kind
    fixes the input and output sizes and w1's rows the hidden size; weights
    of other shapes, and non-finite entries, are refused."""

    kind: ModelKind
    w1: np.ndarray            # (hidden, inputs)
    b1: np.ndarray            # (hidden,)
    w2: np.ndarray            # (out, hidden)
    b2: np.ndarray            # (out,)
    in_min: np.ndarray
    in_max: np.ndarray
    out_min: np.ndarray
    out_max: np.ndarray

    def __post_init__(self) -> None:
        self.kind = ModelKind(self.kind)
        h, i, o = self.w1.shape[0], N_INPUTS[self.kind], len(default_bounds(self.kind))
        arrays = (self.w1, self.b1, self.w2, self.b2,
                  self.in_min, self.in_max, self.out_min, self.out_max)
        shapes = [a.shape for a in arrays]
        if shapes != [(h, i), (h,), (o, h), (o,), (i,), (i,), (o,), (o,)]:
            raise ValidationError(f"inconsistent weight shapes for the {self.kind.value} "
                                  f"kind: {shapes}")
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValidationError("a network's weights and bounds must be finite")
        if np.any(self.in_min >= self.in_max) or np.any(self.out_min >= self.out_max):
            raise ValidationError("normalization mins must be strictly below maxes")


def _params_as_row(p: SystemParams, kind: ModelKind) -> np.ndarray:
    """The network inputs of a case: its parameters for the primitive kind,
    its similarity coordinates for the enhanced kind."""
    if kind is ModelKind.PRIMITIVE:
        return np.array([p.d, p.r_tx, p.r_rx, p.diff_coeff])
    return np.array([p.d / p.r_rx, p.r_tx / p.r_rx, p.diff_coeff / (p.r_rx * p.r_rx)])


def _targets(r: CaseRecord) -> np.ndarray:
    """The training targets of a record: b1, or (b1, k, b3)."""
    m, p = r.output, r.input
    if m.kind is ModelKind.PRIMITIVE:
        return np.array([m.b1])
    k = p.r_rx ** (1.0 - 2.0 * m.b3) * p.diff_coeff ** m.b3 / (4.0 * p.diff_coeff) ** m.b2
    return np.array([m.b1, k, m.b3])


def _b2_from_k(p: SystemParams, k: float, b3: float) -> float:
    """The b2 at which the enhanced curve of case ``p`` has scale k:
    ln(r_rx^(1 - 2 b3) D^b3 / k) / ln(4D). A k at or below 0 is taken as its
    limit 0+, which gives an infinite b2 for the clamp to bound. Where 4D = 1
    the curve does not depend on b2, which is then the point exponent."""
    log_4d = math.log(4.0 * p.diff_coeff)
    if log_4d == 0.0:
        return POINT_EXPONENTS[0]
    log_k = math.log(k) if k > 0.0 else -math.inf
    return ((1.0 - 2.0 * b3) * math.log(p.r_rx) + b3 * math.log(p.diff_coeff)
            - log_k) / log_4d


def _layers(w: np.ndarray, n_in: int, out: int) -> tuple[np.ndarray, ...]:
    """The layers (w1, b1, w2, b2) of a flat weight vector, as views into it."""
    h = (w.size - out) // (n_in + 1 + out)
    i, j = h * n_in, h * (n_in + 1)
    return (w[:i].reshape(h, n_in), w[i:j],
            w[j:j + out * h].reshape(out, h), w[j + out * h:])


def _forward_scaled(x_scaled: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    """Network map in normalized coordinates; x_scaled is (n, inputs)."""
    hidden = np.tanh(x_scaled @ w1.T + b1)
    return hidden @ w2.T + b2


def _output_jacobian(x_scaled: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    """d y[n, o] / d w for all records; rows ordered record-major, columns
    in the order of the flat weight vector.

    Same backward pass the trainer uses for its Gauss-Newton matrices.
    """
    n = x_scaled.shape[0]
    o = w2.shape[0]
    hid = np.tanh(x_scaled @ w1.T + b1)                         # (n, h)
    back = w2[None] * (1.0 - hid**2)[:, None]                   # (n, o, h)
    eye = np.eye(o)
    return np.concatenate([
        (back[..., None] * x_scaled[:, None, None, :]).reshape(n * o, -1),
        back.reshape(n * o, -1),
        (eye[None, :, :, None] * hid[:, None, None, :]).reshape(n * o, -1),
        np.tile(eye, (n, 1)),
    ], axis=1)


def _scale(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Values in [lo, hi] mapped affinely onto [-1, 1]."""
    return 2.0 * (raw - lo) / (hi - lo) - 1.0


def _normalization_bounds(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column min/max, widened by 1 on each side where a column is constant."""
    vmin = values.min(axis=0).astype(float)
    vmax = values.max(axis=0).astype(float)
    flat = vmax - vmin <= 0
    vmin[flat] -= 1.0
    vmax[flat] += 1.0
    return vmin, vmax


def train(dataset: list[CaseRecord], hidden: int = DEFAULT_HIDDEN,
          seed: int = 0) -> tuple[Network, TrainReport]:
    """Bayesian-regularized Levenberg-Marquardt training.

    Each epoch runs the damped Gauss-Newton inner loop to convergence at the
    current (alpha, beta), then re-estimates the hyperparameters from the
    evidence approximation. Training stops when an epoch's inner loop no
    longer improves the objective by more than 1e-9 relative, or after
    MAX_EPOCHS epochs. The output Jacobian is built once per weight vector,
    at the start and after each accepted step, and the re-estimate uses the
    one at the settled weights. Fully deterministic for a fixed seed.
    """
    if len(dataset) < 10:
        raise ValidationError("training requires at least 10 records")
    if hidden < 1 or seed < 0:
        raise ValidationError("training needs hidden >= 1 and seed >= 0")
    kinds = {r.output.kind for r in dataset}
    if len(kinds) != 1:
        raise ValidationError("dataset mixes model kinds")
    kind = kinds.pop()
    out_dim = len(default_bounds(kind))

    x_raw = np.array([_params_as_row(r.input, kind) for r in dataset])
    t_raw = np.array([_targets(r) for r in dataset])
    degenerate = bool(np.any(t_raw.max(axis=0) - t_raw.min(axis=0) <= 0))
    if degenerate:
        warnings.warn("constant target column(s): fit is degenerate in those outputs",
                      stacklevel=2)
    in_min, in_max = _normalization_bounds(x_raw)
    out_min, out_max = _normalization_bounds(t_raw)
    x = _scale(x_raw, in_min, in_max)
    t = _scale(t_raw, out_min, out_max)
    n_in = x.shape[1]
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-1.0, 1.0, (hidden, n_in)) / np.sqrt(n_in)
    w2 = rng.uniform(-1.0, 1.0, (out_dim, hidden)) / np.sqrt(hidden)
    w = np.concatenate([w1.ravel(), np.zeros(hidden), w2.ravel(), np.zeros(out_dim)])
    n_targets = t.size
    k = w.size
    eye = np.eye(k)

    def evaluate(wv: np.ndarray) -> tuple[np.ndarray, float, float]:
        r = (_forward_scaled(x, *_layers(wv, n_in, out_dim)) - t).ravel()
        return r, float(r @ r), 0.5 * float(wv @ wv)

    resid, e_d, e_w = evaluate(w)
    # the output Jacobian at w, built again only when a step moves w
    jac = _output_jacobian(x, *_layers(w, n_in, out_dim))
    alpha, beta = 0.0, 1.0
    gamma = float(k)
    lam = 1e-3
    epochs = 0
    for _ in range(MAX_EPOCHS):
        epochs += 1
        # anchor at this epoch's (alpha, beta): the stop test below compares
        # against the same hyperparameters, since the evidence re-estimate
        # renormalizes F to a constant and would otherwise mask progress
        f_anchor = beta * e_d + alpha * e_w
        # inner damped Gauss-Newton loop at fixed (alpha, beta)
        for _ in range(INNER_MAX_STEPS):
            f_cur = beta * e_d + alpha * e_w
            jtj = jac.T @ jac
            grad = 2.0 * beta * (jac.T @ resid) + alpha * w
            if np.max(np.abs(grad)) < 1e-12:
                break
            stepped = False
            while lam <= LAMBDA_MAX:
                try:
                    delta = np.linalg.solve(2.0 * beta * jtj + (alpha + lam) * eye, -grad)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                r_new, e_d_new, e_w_new = evaluate(w + delta)
                f_new = beta * e_d_new + alpha * e_w_new
                if np.isfinite(f_new) and f_new < f_cur:
                    w = w + delta
                    resid, e_d, e_w = r_new, e_d_new, e_w_new
                    jac = _output_jacobian(x, *_layers(w, n_in, out_dim))
                    lam = max(lam / 10.0, LAMBDA_MIN)
                    stepped = True
                    break
                lam *= 10.0
            if not stepped:
                lam = 1e-3
                break
            if (f_cur - (beta * e_d + alpha * e_w)) <= 1e-12 * max(f_cur, 1e-300):
                break
        f_after_inner = beta * e_d + alpha * e_w
        # evidence re-estimation at the settled weights, where jac was built
        hess = 2.0 * beta * (jac.T @ jac) + alpha * eye
        if alpha == 0.0:
            gamma = float(k)
        else:
            try:
                gamma = float(k - alpha * np.trace(np.linalg.inv(hess)))
            except np.linalg.LinAlgError:
                gamma = float(k)
        gamma = float(np.clip(gamma, 0.0, k))
        alpha = float(np.clip(gamma / max(2.0 * e_w, 1e-300), HYPER_MIN, HYPER_MAX))
        beta = float(np.clip(max(n_targets - gamma, 1e-3) / max(2.0 * e_d, 1e-300),
                             HYPER_MIN, HYPER_MAX))
        if epochs > 1 and \
                (f_anchor - f_after_inner) <= OBJECTIVE_REL_TOL * max(abs(f_anchor), 1e-300):
            break
    net = Network(kind, *_layers(w, n_in, out_dim), in_min, in_max, out_min, out_max)
    report = TrainReport(epochs=epochs, e_d=e_d, e_w=e_w, alpha=alpha, beta=beta,
                         gamma=gamma, degenerate_targets=degenerate)
    return net, report


# (lower, upper) fitter bounds per kind, the rows forward clamps predictions to
_CLAMP = {kind: np.array(default_bounds(kind)).T for kind in ModelKind}


def forward(net: Network, p: SystemParams) -> ModelParams:
    """Predict model coefficients for one case, clamped to the fitter bounds
    after the enhanced kind's k is converted back to b2.

    Inputs outside the training normalization range are allowed and logged:
    the standard validation grid probes radii below the training radii, so
    extrapolation is an expected use, not an error.
    """
    raw = _params_as_row(p, net.kind)
    if logger.isEnabledFor(logging.INFO) and \
            (np.any(raw < net.in_min) or np.any(raw > net.in_max)):
        logger.info("forward: input %s extrapolates beyond the training range", p)
    y = _forward_scaled(_scale(raw[None, :], net.in_min, net.in_max),
                        net.w1, net.b1, net.w2, net.b2)[0]
    out = net.out_min + (y + 1.0) * (net.out_max - net.out_min) / 2.0
    if net.kind is ModelKind.ENHANCED:
        out[1] = _b2_from_k(p, out[1], out[2])
    lo, hi = _CLAMP[net.kind]
    return ModelParams(net.kind, *np.clip(out, lo, hi).tolist())
