"""Particle-based Monte Carlo simulation of 3D diffusion with a perfectly
absorbing receiver sphere and an optional reflecting transmitter sphere.

Placement: a case is its ``SystemParams`` (d, r_tx, r_rx, D), and the kernel
places it itself. The receiver sits at the origin; molecules are released at
(r_rx + d, 0, 0). A spherical transmitter of radius r_tx > 0 is centered at
(r_rx + d + r_tx, 0, 0), so the release point lies on its surface facing the
receiver and the spheres cannot overlap. Each substep moves every coordinate
by a normal draw times sigma = sqrt(2 D dt_sub).

Determinism contract: every (case, replication) pair draws from its own
explicitly seeded PCG64 stream. The mixing function is
``SeedSequence(entropy=seed, spawn_key=(replication_index,))`` inside a case
and ``SeedSequence(entropy=seed, spawn_key=(0x5EED, case_hash))`` across a
grid, where case_hash is derived from the case's physical parameters (not
its position), so results are bitwise reproducible for any worker count and
any input ordering.

Parallelism: kernels that run at the same time run in worker processes, never
on threads. A step makes about a dozen numpy calls on arrays of a few
thousand elements, and each call releases and retakes the GIL, so threads
running kernels side by side mostly wait for one another. ``simulate_case``
sends its replications to a process pool (its caller's, or one of its own
when ``n_workers > 1``); with one worker and no pool they run in the calling
thread. Workers are forked where the platform can fork, so they start with
the package imported. A replication receives the case's ``SystemParams``,
the ``SimConfig`` and its own ``SeedSequence``, and returns its integer hit
counts; nothing else crosses the process boundary. Integer sums do not
depend on which process ran which replication, so the signal bytes do not
depend on the worker count.

Draw-order rule: a replication consumes its stream's standard normals in
order, three per molecule in flight per substep (x, y, z of each molecule,
molecules in array order). The kernel draws them in chunks that do not line
up with substeps; that leaves every value unchanged, because the Generator's
ziggurat keeps no state between calls, so n draws followed by m draws give
the same values as one draw of n + m. Any change to this order, or to the
floating-point operations applied to the draws, changes the signal bytes and
must bump SIM_VERSION.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .types import ReceivedSignal, SystemParams, TimeGrid, ValidationError

__all__ = [
    "SimConfig",
    "simulate_case",
    "process_pool",
    "case_seed",
    "SIM_VERSION",
]

# Bumped whenever a change to the simulator changes the signal it returns for
# the same inputs; it enters every case key, so a resumed run never reuses a
# signal an older simulator wrote.
SIM_VERSION = 1

_BATCH_TAG = 0x5EED

# Standard normals drawn per call to the generator (at least 3 per molecule,
# so that one chunk always covers a substep).
_CHUNK = 1 << 16


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
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")

    @property
    def dt_sub(self) -> float:
        return self.grid.dt / self.substep_factor

    @property
    def n_emitted(self) -> int:
        return self.n_molecules * self.n_replications


def _replication_hits(p: SystemParams, cfg: SimConfig,
                      seed_seq: np.random.SeedSequence) -> np.ndarray:
    """First-hit counts per output bin for one replication of case ``p``
    (vectorized), placed as the module docstring states.

    Every step works in buffers allocated here once: the scaled normals of a
    chunk, the positions and the candidate moves (two (n, 3) buffers whose
    roles swap), the squared coordinates and the squared distances. Only the
    first n rows are live, n being the molecules still in flight.
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    sigma = float(np.sqrt(2.0 * p.diff_coeff * cfg.dt_sub))
    n = cfg.n_molecules
    hits = np.zeros(cfg.grid.n_bins, dtype=np.int64)
    steps = np.empty(max(_CHUNK, 3 * n))
    used = steps.size
    pos = np.tile((p.r_rx + p.d, 0.0, 0.0), (n, 1))
    cand = np.empty_like(pos)
    sq = np.empty_like(pos)
    d2rx = np.empty(n)
    outside_rx = np.empty(n, dtype=bool)
    rx_r2 = p.r_rx * p.r_rx
    has_tx = p.r_tx > 0.0
    if has_tx:
        tx_x = p.r_rx + p.d + p.r_tx
        tx_r2 = p.r_tx * p.r_tx
        d2tx = np.empty(n)
        inside_tx = np.empty(n, dtype=bool)
    for j in range(cfg.grid.n_bins * cfg.substep_factor):
        need = 3 * n
        if used + need > steps.size:
            # keep the unread tail, then draw the rest of the chunk after it
            left = steps.size - used
            steps[:left] = steps[used:]
            rng.standard_normal(out=steps[left:])
            steps[left:] *= sigma
            used = 0
        x, c, s = pos[:n], cand[:n], sq[:n]
        np.add(x, steps[used:used + need].reshape(n, 3), out=c)
        used += need
        np.square(c, out=s)
        r2 = d2rx[:n]
        np.add(s[:, 0], s[:, 1], out=r2)
        r2 += s[:, 2]
        keep = outside_rx[:n]
        np.greater(r2, rx_r2, out=keep)
        if has_tx:
            # a move into the transmitter is rejected; reverting an absorbed
            # molecule too is harmless, since it is dropped below
            t2 = d2tx[:n]
            np.subtract(c[:, 0], tx_x, out=t2)
            np.square(t2, out=t2)
            t2 += s[:, 1]
            t2 += s[:, 2]
            back = np.less_equal(t2, tx_r2, out=inside_tx[:n]).nonzero()[0]
            if back.size:
                c[back] = x[back]
        n_left = int(np.count_nonzero(keep))
        if n_left == n:
            pos, cand = cand, pos
            continue
        hits[j // cfg.substep_factor] += n - n_left
        c.compress(keep, axis=0, out=pos[:n_left])
        n = n_left
        if n == 0:
            break
    return hits


def process_pool(n_workers: int):
    """A pool of ``n_workers`` worker processes for simulation kernels.

    Workers are forked where the platform has ``fork``, so they inherit the
    imported package; elsewhere the platform's default start method is used.
    The pool module is imported here rather than at module level, where it
    would add about 12 ms to every import of the package.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    return ProcessPoolExecutor(max_workers=n_workers,
                               mp_context=multiprocessing.get_context(method))


def simulate_case(p: SystemParams, cfg: SimConfig, n_workers: int = 1,
                  pool=None) -> ReceivedSignal:
    """Mean cumulative first-hitting fraction over all replications.

    Replications run on ``pool`` when one is given; otherwise on a pool of
    ``min(n_workers, n_replications)`` processes when that is more than one,
    and in the calling thread when it is not. Bitwise deterministic for a
    fixed (seed, p, cfg) whatever runs them: each replication owns an
    independent stream and the integer hit counts are merged by order-free
    addition. Molecules still in flight at t_end are discarded.
    """
    if n_workers < 1:
        raise ValidationError("n_workers must be >= 1")
    if pool is None and n_workers > 1 and cfg.n_replications > 1:
        with process_pool(min(n_workers, cfg.n_replications)) as own:
            return simulate_case(p, cfg, pool=own)
    seqs = [np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,))
            for r in range(cfg.n_replications)]
    all_hits = (map if pool is None else pool.map)(_replication_hits, repeat(p),
                                                   repeat(cfg), seqs)
    total = np.sum(list(all_hits), axis=0, dtype=np.int64)
    fraction = np.cumsum(total) / float(cfg.n_emitted)
    return ReceivedSignal(cfg.grid, fraction).validate()


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
