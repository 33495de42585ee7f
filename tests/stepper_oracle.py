"""Scalar reference stepper for the vectorized simulator kernel.

One molecule, one Gaussian substep at a time, with the same absorb-then-
reflect rule as ``mcvd.simulate``. A lone molecule draws the same three
normals per substep from its replication's stream as the kernel does, so the
two must absorb it in the same substep. The placement is worked out here
from the case's parameters, not taken from the package.
"""
import numpy as np

from mcvd import SystemParams


def placement(p: SystemParams) -> tuple[np.ndarray, np.ndarray | None]:
    """The release point and the transmitter centre (None for a point
    transmitter), with the receiver at the origin."""
    release = np.array([p.r_rx + p.d, 0.0, 0.0])
    if p.r_tx == 0.0:
        return release, None
    return release, np.array([p.r_rx + p.d + p.r_tx, 0.0, 0.0])


def step_molecule(pos: np.ndarray, p: SystemParams, sigma: float,
                  rng: np.random.Generator) -> np.ndarray | None:
    """Advance one molecule by one Gaussian substep.

    Returns None when the candidate position lies inside the receiver
    (absorption, checked first) and the unchanged position when it lies
    inside the transmitter body (reflection by rollback). sigma is the
    per-axis displacement scale sqrt(2 D dt_sub).
    """
    pos = np.asarray(pos, dtype=float)
    _, tx_center = placement(p)
    assert pos @ pos >= p.r_rx**2 * (1.0 - 1e-12), "molecule inside receiver"
    if tx_center is not None:
        rel = pos - tx_center
        assert rel @ rel >= p.r_tx**2 * (1.0 - 1e-12), "molecule inside transmitter"
    cand = pos + rng.standard_normal(3) * sigma
    if cand @ cand <= p.r_rx**2:
        return None
    if tx_center is not None:
        rel = cand - tx_center
        if rel @ rel <= p.r_tx**2:
            return pos
    return cand
