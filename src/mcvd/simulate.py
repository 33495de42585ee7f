"""Particle-based Monte Carlo simulation of 3D diffusion with a perfectly
absorbing receiver sphere and an optional reflecting transmitter sphere.

Geometry convention: the receiver sits at the origin; molecules are released
at (r_rx + d, 0, 0). A spherical transmitter of radius r_tx is centered at
(r_rx + d + r_tx, 0, 0), so the release point lies on its surface facing the
receiver and the spheres cannot overlap.

Determinism contract: every (case, replication) pair draws from its own
explicitly seeded PCG64 stream. The mixing function is
``SeedSequence(entropy=seed, spawn_key=(replication_index,))`` inside a case
and ``SeedSequence(entropy=seed, spawn_key=(0x5EED, case_hash))`` across a
grid, where case_hash is derived from the case's physical parameters (not
its position), so results are bitwise reproducible for any worker count and
any input ordering.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .types import ReceivedSignal, Source, SystemParams, TimeGrid, ValidationError

__all__ = [
    "SimConfig",
    "Geometry",
    "build_geometry",
    "simulate_case",
    "case_seed",
    "SIM_VERSION",
]

# Bumped whenever a change to the simulator changes the signal it returns for
# the same inputs; it enters every case key, so a resumed run never reuses a
# signal an older simulator wrote.
SIM_VERSION = 1

_BATCH_TAG = 0x5EED


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls. Full-study defaults are 3000 molecules, 500
    replications, dt = 1 ms over 1 s; replications default lower here for
    desk-scale runs (the full value is one flag away in the CLI)."""

    n_molecules: int = 3000
    n_replications: int = 50
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(1e-3, 1.0))
    seed: int = 0
    substep_factor: int = 1

    def __post_init__(self) -> None:
        if self.n_molecules < 1:
            raise ValidationError("n_molecules must be >= 1")
        if self.n_replications < 1:
            raise ValidationError("n_replications must be >= 1")
        if self.substep_factor < 1:
            raise ValidationError("substep_factor must be >= 1")

    @property
    def dt_sub(self) -> float:
        return self.grid.dt / self.substep_factor

    @property
    def n_emitted(self) -> int:
        return self.n_molecules * self.n_replications


@dataclass(frozen=True)
class Geometry:
    rx_radius: float
    tx_radius: float
    tx_center: np.ndarray | None
    emission_point: np.ndarray

    @property
    def has_transmitter_body(self) -> bool:
        return self.tx_radius > 0.0


def build_geometry(p: SystemParams) -> Geometry:
    """Place the receiver at the origin and the emission point d away from
    its surface; a nonzero transmitter radius adds the reflecting body."""
    emission = np.array([p.r_rx + p.d, 0.0, 0.0])
    if p.r_tx > 0.0:
        tx_center = np.array([p.r_rx + p.d + p.r_tx, 0.0, 0.0])
    else:
        tx_center = None
    return Geometry(rx_radius=p.r_rx, tx_radius=p.r_tx, tx_center=tx_center,
                    emission_point=emission)


def _replication_hits(geom: Geometry, cfg: SimConfig, sigma: float,
                      seed_seq: np.random.SeedSequence) -> np.ndarray:
    """First-hit counts per output bin for one replication (vectorized)."""
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    n_bins = cfg.grid.n_bins
    n_sub = n_bins * cfg.substep_factor
    hits = np.zeros(n_bins, dtype=np.int64)
    pos = np.tile(geom.emission_point, (cfg.n_molecules, 1))
    rx_r2 = geom.rx_radius * geom.rx_radius
    has_tx = geom.has_transmitter_body
    if has_tx:
        tx_x = float(geom.tx_center[0])
        tx_r2 = geom.tx_radius * geom.tx_radius
    for j in range(1, n_sub + 1):
        n = pos.shape[0]
        if n == 0:
            break
        cand = pos + rng.standard_normal((n, 3)) * sigma
        d2rx = cand[:, 0] ** 2 + cand[:, 1] ** 2 + cand[:, 2] ** 2
        absorbed = d2rx <= rx_r2
        if has_tx:
            dx = cand[:, 0] - tx_x
            d2tx = dx * dx + cand[:, 1] ** 2 + cand[:, 2] ** 2
            reflected = ~absorbed & (d2tx <= tx_r2)
            if reflected.any():
                cand[reflected] = pos[reflected]
        n_hit = int(np.count_nonzero(absorbed))
        if n_hit:
            hits[(j - 1) // cfg.substep_factor] += n_hit
            pos = cand[~absorbed]
        else:
            pos = cand
    return hits


def simulate_case(p: SystemParams, cfg: SimConfig, n_workers: int = 1) -> ReceivedSignal:
    """Mean cumulative first-hitting fraction over all replications.

    Bitwise deterministic for a fixed (seed, p, cfg) regardless of n_workers:
    each replication owns an independent stream and the integer hit counts
    are merged by order-free addition. Molecules still in flight at t_end are
    discarded.
    """
    geom = build_geometry(p)
    sigma = float(np.sqrt(2.0 * p.diff_coeff * cfg.dt_sub))
    seqs = [np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,))
            for r in range(cfg.n_replications)]
    if n_workers > 1 and cfg.n_replications > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            all_hits = list(pool.map(
                lambda s: _replication_hits(geom, cfg, sigma, s), seqs))
    else:
        all_hits = [_replication_hits(geom, cfg, sigma, s) for s in seqs]
    total = np.sum(all_hits, axis=0, dtype=np.int64)
    fraction = np.cumsum(total) / float(cfg.n_emitted)
    return ReceivedSignal(cfg.grid, fraction, Source.SIMULATION).validate()


def case_seed(master_seed: int, p: SystemParams) -> int:
    """Derive a per-case 63-bit sub-seed from the case's physical identity.

    Content-based (not position-based) so that permuting a grid leaves each
    case's result unchanged.
    """
    key = f"{p.d!r}|{p.r_tx!r}|{p.r_rx!r}|{p.diff_coeff!r}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    case_hash = int.from_bytes(digest, "little")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(_BATCH_TAG, case_hash))
    return int(seq.generate_state(1, np.uint64)[0] >> 1)
