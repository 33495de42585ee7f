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
explicitly seeded streams. A case's replications take the children of
``SeedSequence(seed).spawn(n_replications)``, spawn keys (0,), (1,), ...; a
grid seeds each case from ``SeedSequence(entropy=seed, spawn_key=(0x5EED,
case_hash))``, with case_hash derived from the case's physical parameters
(not its position), so results are bitwise reproducible for any worker
count and any input ordering.

Parallelism: kernels that run at the same time run in worker processes, never
on threads. A round of events makes a few dozen numpy calls on arrays of a
few thousand elements, and each call releases and retakes the GIL, so threads
running kernels side by side mostly wait for one another. One kernel call
runs many (case, replication) tasks in lockstep instead: tasks that share a
``SimConfig`` apart from their seeds are admitted in order while fewer than
LOCKSTEP_MOLECULES molecules are in flight, every round moves the molecules
of all of them, and each task's hit counts come out in task order once it
and every earlier task are done. So the rounds late in one replication,
with few molecules left, share their calls with the next task's first.
``simulate_case`` sends its replications to a process pool, one task per
replication (its caller's pool, or one of its own when ``n_workers > 1``);
with one worker and no pool it runs them as one batch in the calling
thread, and ``simulate_cases`` runs every replication of many cases as one.
Workers are forked where the platform can fork, so they start with the
package imported. A replication receives the case's ``SystemParams``, the
``SimConfig`` and its own ``SeedSequence``, and returns its integer hit
counts; nothing else crosses the process boundary. Integer sums do not
depend on which process ran which replication, so the signal bytes do not
depend on the worker count.

Draw-order rule: a replication has two streams, ``default_rng`` of the
children (0,) and (1,) that ``spawn(2)`` makes of its fresh ``SeedSequence``:
standard normals from the first and uniforms on [0, 1) from the second,
never interleaved. The kernel runs in rounds; in each, every molecule in
flight, of every task in the batch, takes one event. Each event consumes
three normals (the step, or the direction of the jump) and one uniform (the
bridge test, or the exit time). A task's molecules keep their relative
order in the batch, and a round of a task with n molecules in flight takes
3n normals from its stream, the x components of its n molecules in that
order, then the y, then the z, and n uniforms in that order. A round
therefore draws the same numbers for a task whichever tasks share the batch,
and the task's hits do not depend on the batch. Any change to this order,
or to the floating-point operations applied to the draws, changes the
signal bytes and must bump SIM_VERSION.

State: a batch keeps its molecules in one (6, n) array, a column per
molecule in flight, each task's columns side by side in task order: x, y,
z, the gap sqrt(x^2 + y^2 + z^2) - r_rx to the receiver, the squared
distance to the transmitter's centre, and the clock. The two distances are
computed once per position, when a molecule is released or moves; a
rejected move keeps the molecule's old column, and the molecules that leave
are dropped from the array together. A case's constants (D dt_sub, the near
threshold, the transmitter's centre and squared radius, r_tx and r_rx) are
six floats while every task in flight is of one case, and otherwise six
rows with a column per molecule, dropped with the state's columns. A
round's normals, uniforms and boolean masks are written into arrays made
once per kernel call, so no round allocates them; masks made afresh each
round would leave numpy's cache of small freed blocks holding about 2 MB
more in a process that runs many kernels.
"""
from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .types import ReceivedSignal, SystemParams, TimeGrid, ValidationError

__all__ = [
    "SimConfig",
    "simulate_case",
    "simulate_cases",
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


# The kernel admits the next task while fewer molecules than this are in
# flight, so a round moves at most this many plus one task's, less one.
LOCKSTEP_MOLECULES = 1024


def _place(x: np.ndarray, tx_x, r_rx) -> np.ndarray:
    """Fill rows 3 and 4 of ``x`` (5, n), under positions in rows 0 to 2,
    with their gaps and squared tx distances; returns ``x``."""
    yz = x[1] * x[1]
    yz += x[2] * x[2]
    np.sqrt(x[0] * x[0] + yz, out=x[3])
    x[3] -= r_rx
    dx = x[0] - tx_x
    np.multiply(dx, dx, out=x[4])
    x[4] += yz
    return x


class _Task:
    """One (case, replication) task of the kernel: its two streams, its case's
    constants, its molecules in flight and the bin ends of its hits."""

    __slots__ = ("normal", "uniform", "consts", "count", "ends", "hits")

    def __init__(self, p: SystemParams, cfg: SimConfig, seed_seq: np.random.SeedSequence):
        self.normal, self.uniform = map(np.random.default_rng, seed_seq.spawn(2))
        d_dt = p.diff_coeff * cfg.dt_sub
        # a point transmitter sits at infinity: it never bounds rho or rejects a move
        tx_x = p.r_rx + p.d + p.r_tx if p.r_tx > 0.0 else np.inf
        self.consts = (d_dt, NEAR_SIGMAS * float(np.sqrt(2.0 * d_dt)), tx_x,
                       p.r_tx * p.r_tx, p.r_tx, p.r_rx)
        self.count = cfg.n_molecules
        self.ends: list[np.ndarray] = []
        self.hits = None

    def release(self, p: SystemParams) -> np.ndarray:
        """The state column of a molecule at its release."""
        _, _, tx_x, _, _, r_rx = self.consts
        return _place(np.array([[p.r_rx + p.d], [0.0], [0.0], [0.0], [0.0], [0.0]]),
                      tx_x, r_rx)


def _lockstep_hits(tasks: Iterable[tuple[SystemParams, np.random.SeedSequence]],
                   cfg: SimConfig) -> Iterator[np.ndarray]:
    """First-hit counts per output bin of each (case, replication) task, in
    task order, placed, moved and drawn as the module docstring states.

    Tasks are admitted in order while fewer than LOCKSTEP_MOLECULES
    molecules are in flight, and a task's counts are yielded as soon as it
    and every earlier task are done. A round moves every column of the state
    array at once. Every molecule's step and jump are both computed, and
    each molecule keeps the one its distance calls for; that costs fewer
    numpy calls per round than gathering the two groups apart, and the
    rounds late in a replication, with few molecules left, are nothing but
    calls.
    """
    n_bins, per_bin = cfg.grid.n_bins, cfg.substep_factor
    n_steps = n_bins * per_bin
    width = LOCKSTEP_MOLECULES + cfg.n_molecules - 1
    # a round's normals fill the first 3n entries, and become the positions
    # the molecules move to, over their gaps and squared tx distances
    moves = np.empty(5 * width)
    uniforms = np.empty(width)
    masks = np.empty((4, width), dtype=bool)
    state = np.empty((6, 0))
    consts = None
    live: list[_Task] = []       # the tasks in flight, in column order
    pending: deque[_Task] = deque()   # admitted and not yet yielded
    tasks = iter(tasks)
    upcoming = next(tasks, None)
    # a uniform of exactly 0 has log -inf, which passes the bridge test
    with np.errstate(divide="ignore"):
        while live or upcoming is not None:
            n = state.shape[1]
            while upcoming is not None and n < LOCKSTEP_MOLECULES:
                p, seed_seq = upcoming
                task = _Task(p, cfg, seed_seq)
                if not n:
                    consts = task.consts
                elif isinstance(consts, np.ndarray) or task.consts != consts:
                    if isinstance(consts, tuple):
                        consts = np.repeat(np.array(consts)[:, None], n, axis=1)
                    consts = np.hstack((consts, np.repeat(np.array(task.consts)[:, None],
                                                          task.count, axis=1)))
                state = np.hstack((state, np.repeat(task.release(p), task.count, axis=1)))
                live.append(task)
                pending.append(task)
                n = state.shape[1]
                upcoming = next(tasks, None)
            # each task draws its 3n normals into its columns of the rows of
            # g, x components first, then its n uniforms; a task alone draws
            # its normals in one call
            moved = moves[:5 * n].reshape(5, n)
            g = moved[:3]
            u = uniforms[:n]
            if len(live) == 1:
                live[0].normal.standard_normal(out=moves[:3 * n])
                live[0].uniform.random(out=u)
            else:
                starts = []
                a = 0
                for task in live:
                    b = a + task.count
                    for row in g:
                        task.normal.standard_normal(out=row[a:b])
                    task.uniform.random(out=u[a:b])
                    starts.append(a)
                    a = b
            gap, tx2, clock = state[3:]
            # a tuple of floats while every task in flight is of one case
            d_dt, near, tx_x, tx_r2, r_tx, r_rx = consts
            close, absorbed, inside, done = masks[:, :n]
            rho = np.minimum(gap, np.sqrt(tx2) - r_tx)
            np.less_equal(rho, near, out=close)
            # both moves are pos + g * scale: a far molecule's g, normalized,
            # points to its jump target on the ball of radius rho; a near
            # molecule steps to the next point of the substep grid, var being
            # D times the step's duration
            t1 = np.floor(clock) + 1.0
            var = d_dt * (t1 - clock)
            gg = g[0] * g[0]
            gg += g[1] * g[1]
            gg += g[2] * g[2]
            g *= np.where(close, np.sqrt(2.0 * var), rho / np.sqrt(gg))
            g += state[:3]
            _place(moved, tx_x, r_rx)
            # a near step to gap1 = moved[3] is absorbed by the bridge test
            # u < exp(-gap gap1 / var), taken as log(u) < -gap gap1 / var, which
            # a step ending inside the receiver passes (its right side is >= 0)
            np.less(np.log(u), -(gap * moved[3]) / var, out=absorbed)
            absorbed &= close
            state[5] = np.where(close, t1, clock + _exit_times(u) * (rho * rho / d_dt))
            np.less_equal(moved[4], tx_r2, out=inside)
            np.copyto(moved, state[:5], where=inside)
            state[:5] = moved
            np.greater_equal(state[5], n_steps, out=done)
            done |= absorbed
            n_done = np.count_nonzero(done)
            if not n_done:
                continue
            ends = t1.compress(absorbed)
            if len(live) == 1:
                live[0].ends.append(ends)
                live[0].count -= n_done
            else:
                # each task's absorbed and leaving molecules; its hits are
                # the next of the ends, which keep the column order
                a = 0
                for task, k, gone in zip(live, *np.add.reduceat(
                        masks[1:4:2, :n], starts, axis=1, dtype=np.intp).tolist()):
                    task.ends.append(ends[a:a + k])
                    task.count -= gone
                    a += k
            keep = np.logical_not(done, out=done)
            state = state.compress(keep, axis=1)
            if isinstance(consts, np.ndarray):
                consts = consts.compress(keep, axis=1)
            if all(task.count for task in live):
                continue
            for task in live:
                if not task.count:
                    # a hit in the step ending at grid point t1 falls in bin
                    # (t1 - 1) // substep_factor
                    hit_ends = np.concatenate(task.ends).astype(np.int64)
                    task.hits = np.bincount((hit_ends - 1) // per_bin,
                                            minlength=n_bins).astype(np.int64)
                    task.ends = None
            live = [task for task in live if task.count]
            if live and isinstance(consts, np.ndarray) \
                    and all(task.consts == live[0].consts for task in live):
                consts = live[0].consts
            while pending and pending[0].hits is not None:
                yield pending.popleft().hits


def _replication_hits(p: SystemParams, cfg: SimConfig,
                      seed_seq: np.random.SeedSequence) -> np.ndarray:
    """First-hit counts per output bin for one replication of case ``p``:
    the kernel's one-task call, and the task a process pool runs."""
    return next(_lockstep_hits([(p, seed_seq)], cfg))


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

    Replications run on ``pool`` when one is given, one task per
    replication; otherwise on a pool of ``min(n_workers, n_replications)``
    processes when that is more than one, and in the calling thread, as one
    batch, when it is not. Bitwise deterministic for a fixed (seed, p, cfg)
    whatever runs them: each replication owns an independent stream and the
    integer hit counts are merged by order-free addition. Molecules still in
    flight at t_end are discarded.
    """
    if n_workers < 1:
        raise ValidationError("n_workers must be >= 1")
    if pool is None and n_workers > 1 and cfg.n_replications > 1:
        with process_pool(min(n_workers, cfg.n_replications)) as own:
            return simulate_case(p, cfg, pool=own)
    if pool is None:
        return next(simulate_cases([(p, cfg)]))
    seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.n_replications)
    return _signal(pool.map(_replication_hits, repeat(p), repeat(cfg), seqs), cfg)


def simulate_cases(cases: Sequence[tuple[SystemParams, SimConfig]]) -> Iterator[ReceivedSignal]:
    """``simulate_case(p, cfg)`` of each (p, cfg) pair in order, yielded as
    each is done. Every replication of every case is a task of one kernel
    call in the calling thread, so a case's last rounds share their numpy
    calls with the next cases' first. The configurations may differ only in
    their seeds.
    """
    if not cases:
        return
    cfg = cases[0][1]
    if any(replace(case_cfg, seed=cfg.seed) != cfg for _, case_cfg in cases):
        raise ValidationError("the cases of a batch must share their configuration "
                              "apart from the seed")
    hits = _lockstep_hits(((p, seq) for p, case_cfg in cases
                           for seq in np.random.SeedSequence(case_cfg.seed)
                           .spawn(cfg.n_replications)), cfg)
    for _ in cases:
        yield _signal([next(hits) for _ in range(cfg.n_replications)], cfg)


def _signal(all_hits: Iterable[np.ndarray], cfg: SimConfig) -> ReceivedSignal:
    """The signal of a case from the hit counts of its replications."""
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
