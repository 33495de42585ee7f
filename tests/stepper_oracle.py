"""Scalar reference for the event-driven simulator kernel.

One molecule, one event at a time, by the rules of ``mcvd.simulate``: a far
molecule jumps to the ball of radius rho about itself and takes a tabulated
exit time; a near one takes a Gaussian step to the next substep-grid point,
absorbed at the receiver (end inside, or the Brownian-bridge test) and
rejected at the transmitter. Each event takes three normals and one uniform,
which ``lone_molecule_hit`` draws from the two streams the draw-order rule
names, so for a lone molecule the kernel and this stepper must absorb it in
the same bin. The placement and the streams are worked out here from the
case's parameters; the near threshold and the exit-time table are the
package's (the table is checked against the series on its own).
"""
import math

import numpy as np

from mcvd import SimConfig, SystemParams
from mcvd.simulate import NEAR_SIGMAS, _exit_times


def placement(p: SystemParams) -> tuple[np.ndarray, np.ndarray | None]:
    """The release point and the transmitter centre (None for a point
    transmitter), with the receiver at the origin."""
    release = np.array([p.r_rx + p.d, 0.0, 0.0])
    if p.r_tx == 0.0:
        return release, None
    return release, np.array([p.r_rx + p.d + p.r_tx, 0.0, 0.0])


def _inside_tx(x: np.ndarray, p: SystemParams, tx_center) -> bool:
    if tx_center is None:
        return False
    dx = x[0] - tx_center[0]
    return dx * dx + (x[1] * x[1] + x[2] * x[2]) <= p.r_tx * p.r_tx


def _gap(x: np.ndarray, p: SystemParams) -> float:
    """Distance from x to the receiver surface."""
    return math.sqrt(x[0] * x[0] + (x[1] * x[1] + x[2] * x[2])) - p.r_rx


def step_molecule(pos: np.ndarray, p: SystemParams, var: float, g: np.ndarray,
                  u: float) -> np.ndarray | None:
    """One Gaussian step of per-axis scale sqrt(2 var), var = D * duration.

    Returns None when the molecule is absorbed: the step ends inside the
    receiver, or the uniform u falls below the bridge probability
    exp(-(r0 - R)(r1 - R) / var), checked first (as log(u) against the
    exponent). Returns the unchanged position when the step ends inside the
    transmitter (rejection).
    """
    pos = np.asarray(pos, dtype=float)
    _, tx_center = placement(p)
    assert pos @ pos >= p.r_rx**2 * (1.0 - 1e-12), "molecule inside receiver"
    if tx_center is not None:
        rel = pos - tx_center
        assert rel @ rel >= p.r_tx**2 * (1.0 - 1e-12), "molecule inside transmitter"
    cand = g * np.sqrt(2.0 * var) + pos
    with np.errstate(divide="ignore"):
        if np.log(u) < -(_gap(pos, p) * _gap(cand, p)) / np.float64(var):
            return None
    return pos if _inside_tx(cand, p, tx_center) else cand


def event(pos: np.ndarray, clock: float, p: SystemParams, cfg: SimConfig,
          g: np.ndarray, u: float) -> tuple[np.ndarray | None, float]:
    """One event of a molecule at ``pos`` whose clock reads ``clock``
    substeps. Returns the new position (None if absorbed) and clock."""
    _, tx_center = placement(p)
    d_dt = p.diff_coeff * cfg.dt_sub
    rho = _gap(pos, p)
    if tx_center is not None:
        dx = pos[0] - tx_center[0]
        rho = min(rho, math.sqrt(dx * dx + (pos[1] * pos[1] + pos[2] * pos[2])) - p.r_tx)
    if rho > NEAR_SIGMAS * math.sqrt(2.0 * d_dt):
        target = g * (rho / math.sqrt(g[0] * g[0] + g[1] * g[1] + g[2] * g[2])) + pos
        s = float(_exit_times(np.array([u]))[0])
        return (pos if _inside_tx(target, p, tx_center) else target,
                clock + s * (rho * rho / d_dt))
    t1 = math.floor(clock) + 1.0
    return step_molecule(pos, p, d_dt * (t1 - clock), g, u), t1


def lone_molecule_hit(p: SystemParams, cfg: SimConfig, replication: int) -> int | None:
    """The bin in which replication ``replication`` of a one-molecule case
    absorbs its molecule, or None if it is still in flight at t_end."""
    normal_rng, uniform_rng = (np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        cfg.seed, spawn_key=(replication, stream)))) for stream in (0, 1))
    n_steps = cfg.grid.n_bins * cfg.substep_factor
    pos, clock = placement(p)[0], 0.0
    while True:
        pos, clock = event(pos, clock, p, cfg, normal_rng.standard_normal(3),
                           uniform_rng.random())
        if pos is None:
            return int(clock - 1.0) // cfg.substep_factor
        if clock >= n_steps:
            return None
