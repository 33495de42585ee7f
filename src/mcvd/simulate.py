"""Event-driven Monte Carlo simulation of 3D diffusion with a perfectly
absorbing receiver sphere and an optional reflecting transmitter sphere.

Placement: a case is its ``SystemParams`` (d, r_tx, r_rx, D), and the kernel
places it itself. The receiver sits at the origin; molecules are released at
(r_rx + d, 0, 0). A spherical transmitter of radius r_tx > 0 is centered at
(r_rx + d + r_tx, 0, 0), so the release point lies on its surface facing the
receiver and the spheres cannot overlap.

Events: every molecule has its own clock, counted in substeps of
dt_sub = dt / substep_factor, and moves by one event at a time. With
sigma = sqrt(2 D dt_sub) and rho the molecule's distance to the nearer
surface:
- Far (rho > NEAR_SIGMAS * sigma): the molecule cannot touch either sphere
  before it leaves the ball of radius rho about itself, so it jumps to a
  uniform point on that ball's surface, and its clock advances by an exact
  first-exit time tau (walk on spheres, Muller 1956; GFRD, van Zon & ten Wolde
  2005). P(tau <= t) = 1 + 2 sum_n (-1)^n exp(-n^2 pi^2 D t / rho^2) is
  tabulated once, in dimensionless time D tau / rho^2, and sampled by
  inverting the table.
- Near: the molecule takes a Gaussian step to the next point of the substep
  grid (a full substep once its clock is on the grid), so no step crosses a
  bin end. It is absorbed when the step ends inside the receiver, or, ending
  outside, with the Brownian-bridge probability
  exp(-(r0 - R)(r1 - R) / (D dt_step)) that the path between crossed the
  surface (Andrews & Bray, Phys. Biol. 2004). A surviving step that ends
  inside the transmitter is rejected, and the molecule stays where it was;
  so is a jump that rounding lands inside it.
A hit is counted in the bin of the step that made it. A molecule whose clock
reaches t_end is dropped. Every jump length, exit time and bridge exponent is
a ratio of squared lengths to D dt_sub, so doubling every length and
quadrupling D gives the same bytes.

Determinism contract: every (case, replication) pair draws from its own
explicitly seeded streams. The mixing function is
``SeedSequence(entropy=seed, spawn_key=(replication_index,))`` inside a case
and ``SeedSequence(entropy=seed, spawn_key=(0x5EED, case_hash))`` across a
grid, where case_hash is derived from the case's physical parameters (not
its position), so results are bitwise reproducible for any worker count and
any input ordering.

Parallelism: kernels that run at the same time run in worker processes, never
on threads. A round of events makes a few dozen numpy calls on arrays of a
few thousand elements, and each call releases and retakes the GIL, so threads
running kernels side by side mostly wait for one another. ``simulate_case``
sends its replications to a process pool (its caller's, or one of its own
when ``n_workers > 1``); with one worker and no pool they run in the calling
thread. Workers are forked where the platform can fork, so they start with
the package imported. A replication receives the case's ``SystemParams``,
the ``SimConfig`` and its own ``SeedSequence``, and returns its integer hit
counts; nothing else crosses the process boundary. Integer sums do not
depend on which process ran which replication, so the signal bytes do not
depend on the worker count.

Draw-order rule: a replication has two streams, PCG64 generators seeded by
the children (0,) and (1,) of its ``SeedSequence``: standard normals from the
first and uniforms on [0, 1) from the second, never interleaved. The kernel
runs in rounds; in each, every molecule in flight takes one event. Each
event consumes three normals (the step, or the direction of the jump) and
one uniform (the bridge test, or the exit time). A round of n molecules
takes 3n normals, the x components of all n molecules in array order, then
the y, then the z, and n uniforms, in array order; a round takes them with
one call per stream. Any change to this order, or to the floating-point
operations applied to the draws, changes the signal bytes and must bump
SIM_VERSION.
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
SIM_VERSION = 2

_BATCH_TAG = 0x5EED

# A molecule farther than this many sigma from both surfaces jumps.
NEAR_SIGMAS = 2.0

# First-exit times from a ball, in dimensionless time s = D tau / rho^2, are
# tabulated as the inverse of their distribution P at the uniforms k / 2^14.
_EXIT_CELLS = 1 << 14


def _exit_time_table() -> tuple[np.ndarray, np.ndarray]:
    """The inverse of P at the uniforms k / 2^14, and the slope to the next
    node.

    P is summed on the grid s = k / 4096 up to 1.25, where it passes
    1 - 2^-14: below s = 1/4 in its Jacobi-transformed form
    2 (pi s)^(-1/2) sum_k>=0 exp(-(k + 1/2)^2 / s), which converges fast
    there and loses nothing to cancellation, and 12 terms of either form are
    exact in doubles. The sums run term by term, so the table costs a few
    arrays. P is inverted linearly between its grid points. In the top cell,
    1 - P(s) = 2 exp(-pi^2 s) to 1e-13, so s is the cell's lower end plus an
    exponential of mean 1 / pi^2; the last node is set so that the line
    through the cell has that mean.
    """
    s = np.arange(1, 5121) / 4096
    short, long = s[s < 0.25], s[s >= 0.25]
    p_short = np.zeros_like(short)
    p_long = np.ones_like(long)
    for n in range(12):
        p_short += np.exp(-(n + 0.5) ** 2 / short)
        p_long += 2.0 * (-1.0) ** (n + 1) * np.exp(-((n + 1) * np.pi) ** 2 * long)
    p_short *= 2.0 / np.sqrt(np.pi * short)
    nodes = np.empty(_EXIT_CELLS + 1)
    nodes[:-1] = np.interp(np.arange(_EXIT_CELLS) / _EXIT_CELLS,
                           np.concatenate(([0.0], p_short, p_long)),
                           np.concatenate(([0.0], s)))
    nodes[-1] = nodes[-2] + 2.0 / np.pi ** 2
    return nodes[:-1], np.diff(nodes)


_EXIT_S, _EXIT_SLOPE = _exit_time_table()


def _exit_times(u: np.ndarray) -> np.ndarray:
    """Dimensionless first-exit times D tau / rho^2 at uniforms ``u``: the
    tabulated inverse of P, linear between nodes."""
    x = u * _EXIT_CELLS
    k = x.astype(np.intp)
    x -= k
    s = _EXIT_S[k]
    s += _EXIT_SLOPE[k] * x
    return s


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
    """First-hit counts per output bin for one replication of case ``p``,
    placed, moved and drawn as the module docstring states.

    A round works on all molecules in flight at once: positions are a (3, n)
    array and clocks an (n,) array. Every molecule's step and jump are both
    computed, and each molecule keeps the one its distance calls for; that
    costs fewer numpy calls per round than gathering the two groups apart,
    and the rounds late in a replication, with few molecules left, are
    nothing but calls.
    """
    normal_rng, uniform_rng = (np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        seed_seq.entropy, spawn_key=(*seed_seq.spawn_key, i)))) for i in (0, 1))
    n = cfg.n_molecules
    d_dt = p.diff_coeff * cfg.dt_sub
    near = NEAR_SIGMAS * float(np.sqrt(2.0 * d_dt))
    n_steps = cfg.grid.n_bins * cfg.substep_factor
    has_tx = p.r_tx > 0.0
    tx_x = p.r_rx + p.d + p.r_tx
    tx_r2 = p.r_tx * p.r_tx
    pos = np.zeros((3, n))
    pos[0] = p.r_rx + p.d
    clock = np.zeros(n)
    hit_ends = []
    # a uniform of exactly 0 has log -inf, which passes the bridge test
    with np.errstate(divide="ignore"):
        while n:
            g = normal_rng.standard_normal((3, n))
            u = uniform_rng.random(n)
            yz = pos[1] * pos[1]
            yz += pos[2] * pos[2]
            gap = np.sqrt(pos[0] * pos[0] + yz) - p.r_rx
            rho = gap
            if has_tx:
                dx = pos[0] - tx_x
                rho = np.minimum(gap, np.sqrt(dx * dx + yz) - p.r_tx)
            far = rho > near
            # both moves are pos + g * scale: a far molecule's g, normalized,
            # points to its jump target on the ball of radius rho; a near
            # molecule steps to the next point of the substep grid, var being
            # D times the step's duration
            t1 = np.floor(clock) + 1.0
            var = d_dt * (t1 - clock)
            gg = g[0] * g[0]
            gg += g[1] * g[1]
            gg += g[2] * g[2]
            x1 = g * np.where(far, rho / np.sqrt(gg), np.sqrt(2.0 * var))
            x1 += pos
            # a near step is absorbed by the bridge test u < exp(-gap gap1 / var),
            # taken as log(u) < -gap gap1 / var, which a step ending inside the
            # receiver passes (its right side is >= 0)
            yz = x1[1] * x1[1]
            yz += x1[2] * x1[2]
            gap1 = np.sqrt(x1[0] * x1[0] + yz) - p.r_rx
            absorbed = np.log(u) < -(gap * gap1) / var
            absorbed &= ~far
            if has_tx:
                dx = x1[0] - tx_x
                x1 = np.where(dx * dx + yz <= tx_r2, pos, x1)
            pos = x1
            clock = np.where(far, clock + _exit_times(u) * (rho * rho / d_dt), t1)
            hit_ends.append(t1.compress(absorbed))
            done = absorbed | (clock >= n_steps)
            if np.count_nonzero(done):
                keep = np.flatnonzero(~done)
                pos = pos.take(keep, axis=1)
                clock = clock.take(keep)
                n = clock.size
    # a hit in the step ending at grid point t1 falls in bin (t1 - 1) // substep_factor
    ends = np.concatenate(hit_ends).astype(np.int64)
    return np.bincount((ends - 1) // cfg.substep_factor,
                       minlength=cfg.grid.n_bins).astype(np.int64)


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
