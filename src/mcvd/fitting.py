"""Nonlinear least-squares estimation of channel-model coefficients from a
simulated received signal, via damped Gauss-Newton (Levenberg-Marquardt).

The residual is F_model(t_k; b) - S(t_k) over the grid's bin-end times, with
analytic Jacobians for both model kinds. Every fit starts from the
point-transmitter identity, b1 = 1 (and b2 = b3 = 0.5 for the enhanced
model), which lies inside the fixed coefficient bounds. Steps are clipped to
the bounds and additionally capped per coordinate at a quarter of the bound
range per iteration; without that cap the solver can overshoot into a far
corner of the box and then crawl along a curved valley for hundreds of
iterations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import POINT_EXPONENTS, _amplitude, _erfc_argument, erfc
from .types import (
    ModelKind,
    ModelParams,
    NumericError,
    ReceivedSignal,
    SystemParams,
    ValidationError,
)

__all__ = [
    "FitProblem",
    "FitResult",
    "default_bounds",
    "fit",
]

_SQRT_PI = math.sqrt(math.pi)

# Per-coefficient closed intervals; chosen wide around the point-transmitter
# identity (1, 0.5, 0.5).
BOUNDS_B1 = (0.1, 5.0)
BOUNDS_B2 = (0.05, 1.5)
BOUNDS_B3 = (0.05, 1.5)
START_POINTS = {ModelKind.PRIMITIVE: (1.0,), ModelKind.ENHANCED: (1.0, *POINT_EXPONENTS)}

LAMBDA_INIT_FACTOR = 1e-3     # scaled by max diag of J^T J at the start
LAMBDA_MIN = 1e-12
LAMBDA_MAX = 1e12
MAX_ITERATIONS = 200
RSS_REL_TOL = 1e-10
GRAD_TOL = 1e-10
STEP_CAP_FRACTION = 0.25


def default_bounds(kind: ModelKind) -> tuple[tuple[float, float], ...]:
    if ModelKind(kind) is ModelKind.PRIMITIVE:
        return (BOUNDS_B1,)
    return (BOUNDS_B1, BOUNDS_B2, BOUNDS_B3)


@dataclass
class FitProblem:
    params: SystemParams
    target: ReceivedSignal
    kind: ModelKind

    def __post_init__(self) -> None:
        self.kind = ModelKind(self.kind)
        if np.count_nonzero(self.target.cumulative_fraction) < 10:
            raise ValidationError("target needs at least 10 nonzero bins to fit")

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return default_bounds(self.kind)


@dataclass
class FitResult:
    model: ModelParams
    rss: float
    n_iterations: int
    converged: bool


def _curve_and_jacobian(p: SystemParams, kind: ModelKind, coeffs: np.ndarray,
                        times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The channel's model curve and its analytic Jacobian d f / d b at
    bin-end times; the primitive kind's Jacobian is the b1 column alone."""
    b1, b2, b3 = coeffs if kind is ModelKind.ENHANCED else (coeffs[0], *POINT_EXPONENTS)
    amp = _amplitude(p)
    z = _erfc_argument(p, b2, b3, times)
    e = erfc(z)
    jac = np.empty((times.size, coeffs.size))
    jac[:, 0] = amp * e
    if kind is ModelKind.ENHANCED:
        common = b1 * amp * (-2.0 / _SQRT_PI * np.exp(-z * z)) * z
        jac[:, 1] = common * (-math.log(4.0 * p.diff_coeff))
        jac[:, 2] = common * (-np.log(times))
    return b1 * amp * e, jac


def fit(problem: FitProblem) -> FitResult:
    """Levenberg-Marquardt minimization of the summed squared deviation.

    Damping follows the multiply-by-10 on rejection / divide-by-10 on
    acceptance schedule within [1e-12, 1e12]; candidates are projected onto
    the bounds before evaluation so accepted steps never increase the RSS.
    Convergence means the relative RSS improvement of an uncapped
    near-Gauss-Newton step fell below 1e-10, or the projected gradient
    max-norm fell below 1e-10.
    """
    times = problem.target.grid.times()
    target = problem.target.cumulative_fraction
    lo, hi = np.array(problem.bounds).T
    # np.isclose's default tolerances, spelled out once
    lo_tol, hi_tol = 1e-8 + 1e-5 * np.abs(lo), 1e-8 + 1e-5 * np.abs(hi)
    cap = STEP_CAP_FRACTION * (hi - lo)
    x = np.array(START_POINTS[problem.kind])

    def evaluate(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residual and Jacobian at c, from one evaluation of the model."""
        f, jac = _curve_and_jacobian(problem.params, problem.kind, c, times)
        return f - target, jac

    resid, jac = evaluate(x)
    if not np.all(np.isfinite(resid)):
        raise NumericError("non-finite residuals at the start point")
    rss = float(resid @ resid)
    lam = LAMBDA_INIT_FACTOR * max(float(np.max(np.diag(jac.T @ jac))), 1.0)
    converged = False
    n_iter = 0
    eye = np.eye(x.size)
    for _ in range(MAX_ITERATIONS):
        n_iter += 1
        grad = 2.0 * (jac.T @ resid)
        proj = grad.copy()
        proj[(np.abs(x - lo) <= lo_tol) & (proj > 0)] = 0.0
        proj[(np.abs(x - hi) <= hi_tol) & (proj < 0)] = 0.0
        if np.max(np.abs(proj)) < GRAD_TOL:
            converged = True
            break
        jtj = jac.T @ jac
        accepted = False
        while lam <= LAMBDA_MAX:
            try:
                delta = np.linalg.solve(jtj + lam * eye, -0.5 * grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            over = float(np.max(np.abs(delta) / cap))
            was_capped = over > 1.0
            if was_capped:
                delta = delta / over
            x_new = np.clip(x + delta, lo, hi)
            r_new, jac_new = evaluate(x_new)
            rss_new = float(r_new @ r_new)
            if np.isfinite(rss_new) and rss_new < rss:
                rel_drop = (rss - rss_new) / max(rss, 1e-300)
                step = x_new - x
                predicted = -(step @ grad + step @ (jtj @ step))
                gain = (rss - rss_new) / predicted if predicted > 0 else 1.0
                x, resid, jac, rss = x_new, r_new, jac_new, rss_new
                lam = max(lam / 10.0, LAMBDA_MIN)
                accepted = True
                # a tiny improvement only counts as convergence when the step
                # was a trusted near-Gauss-Newton one, not a collapsed-damping
                # crawl along a valley
                if rel_drop < RSS_REL_TOL and gain > 0.25 and not was_capped:
                    converged = True
                break
            lam *= 10.0
        if not accepted:
            converged = bool(np.max(np.abs(proj)) < 1e-6)
            break
        if converged:
            break
    return FitResult(model=ModelParams(problem.kind, *x.tolist()), rss=rss,
                     n_iterations=n_iter, converged=converged)
