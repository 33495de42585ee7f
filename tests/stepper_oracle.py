"""Scalar reference stepper for the vectorized simulator kernel.

One molecule, one Gaussian substep at a time, with the same absorb-then-
reflect rule as ``mcvd.simulate``. A lone molecule draws the same three
normals per substep from its replication's stream as the kernel does, so the
two must absorb it in the same substep.
"""
import numpy as np

from mcvd.simulate import Geometry


def step_molecule(pos: np.ndarray, geom: Geometry, sigma: float,
                  rng: np.random.Generator) -> np.ndarray | None:
    """Advance one molecule by one Gaussian substep.

    Returns None when the candidate position lies inside the receiver
    (absorption, checked first) and the unchanged position when it lies
    inside the transmitter body (reflection by rollback). sigma is the
    per-axis displacement scale sqrt(2 D dt_sub).
    """
    pos = np.asarray(pos, dtype=float)
    assert pos @ pos >= geom.rx_radius**2 * (1.0 - 1e-12), "molecule inside receiver"
    if geom.has_transmitter_body:
        rel = pos - geom.tx_center
        assert rel @ rel >= geom.tx_radius**2 * (1.0 - 1e-12), "molecule inside transmitter"
    cand = pos + rng.standard_normal(3) * sigma
    if cand @ cand <= geom.rx_radius**2:
        return None
    if geom.has_transmitter_body:
        rel = cand - geom.tx_center
        if rel @ rel <= geom.tx_radius**2:
            return pos
    return cand
