import concurrent.futures
import hashlib
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcvd import (
    SimConfig,
    SystemParams,
    TimeGrid,
    ValidationError,
    point_hit_fraction,
    simulate_case,
)

import mcvd.simulate
from mcvd.pipeline import reduced_grids
from mcvd.simulate import _EXIT_S, SIM_VERSION, _exit_times, case_seed, simulate_cases

from stepper_oracle import lone_molecule_hit, placement, step_molecule


def small_cfg(seed=0, **kw):
    defaults = dict(n_molecules=300, n_replications=3, grid=TimeGrid(5e-3, 0.2),
                    seed=seed, substep_factor=1)
    defaults.update(kw)
    return SimConfig(**defaults)


class RecordingPool(ThreadPoolExecutor):
    """Stand-in for ProcessPoolExecutor: records the worker count each pool
    asks for and runs its tasks on one thread, starting no process."""

    sizes: list = []

    def __init__(self, max_workers=None, mp_context=None):
        RecordingPool.sizes.append(max_workers)
        super().__init__(max_workers=1)

    @classmethod
    def install(cls, monkeypatch) -> list:
        cls.sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", cls)
        return cls.sizes


class TestGeometry:
    def test_spherical_transmitter_placement(self):
        release, tx_center = placement(SystemParams(d=5.0, r_tx=4.0, r_rx=8.0,
                                                    diff_coeff=80.0))
        assert np.allclose(release, [13.0, 0.0, 0.0])
        assert np.allclose(tx_center, [17.0, 0.0, 0.0])

    def test_point_transmitter_has_no_body(self):
        release, tx_center = placement(SystemParams(d=5.0, r_tx=0.0, r_rx=8.0,
                                                    diff_coeff=80.0))
        assert np.allclose(release, [13.0, 0.0, 0.0])
        assert tx_center is None

    def test_emission_distance_to_receiver_surface(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = SystemParams(d=rng.uniform(0.5, 20), r_tx=rng.uniform(0, 10),
                             r_rx=rng.uniform(0.5, 20), diff_coeff=50.0)
            release, tx_center = placement(p)
            gap = np.linalg.norm(release) - p.r_rx
            assert gap == pytest.approx(p.d, rel=1e-12)
            if p.r_tx > 0:
                on_surface = np.linalg.norm(release - tx_center)
                assert on_surface == pytest.approx(p.r_tx, rel=1e-12)


def draws(rng):
    """The three normals and the uniform of one event."""
    return rng.standard_normal(3), rng.random()


class TestStepMolecule:
    def test_zero_sigma_never_moves_or_absorbs(self):
        p = SystemParams(d=2.0, r_tx=0.0, r_rx=3.0, diff_coeff=1.0)
        rng = np.random.default_rng(0)
        pos, _ = placement(p)
        for _ in range(50):
            nxt = step_molecule(pos, p, 0.0, *draws(rng))
            assert nxt is not None
            assert np.array_equal(nxt, pos)
            pos = nxt

    def test_far_molecule_survives_single_step(self):
        # 10 sigma away from the surface: absorption odds, bridge included,
        # below 1e-15
        p = SystemParams(d=10.0, r_tx=0.0, r_rx=1.0, diff_coeff=1.0)
        release, _ = placement(p)
        sigma = 0.1
        rng = np.random.default_rng(123)
        for _ in range(2000):
            assert step_molecule(release, p, sigma**2 / 2, *draws(rng)) is not None

    def test_reflection_rolls_back(self):
        p = SystemParams(d=1.0, r_tx=5.0, r_rx=2.0, diff_coeff=1.0)
        release, tx_center = placement(p)
        rng = np.random.default_rng(11)
        pos = release
        rollbacks = 0
        for _ in range(500):
            nxt = step_molecule(pos, p, 0.8**2 / 2, *draws(rng))
            if nxt is None:
                pos = release
                continue
            if np.array_equal(nxt, pos):
                rollbacks += 1
            rel = nxt - tx_center
            assert rel @ rel >= p.r_tx**2 * (1 - 1e-12)
            assert nxt @ nxt >= p.r_rx**2 * (1 - 1e-12)
            pos = nxt
        assert rollbacks > 0  # with sigma this large the body is hit often


def exit_cdf(s: float) -> float:
    """P(D tau / rho^2 <= s) for the first exit from a ball: the series
    1 + 2 sum_n (-1)^n exp(-n^2 pi^2 s), summed to 400 terms."""
    return 1.0 + 2.0 * sum((-1.0) ** n * math.exp(-(n * math.pi) ** 2 * s)
                           for n in range(1, 401))


class TestExitTimes:
    def test_nodes_invert_the_series(self):
        # node k is the uniform k / 2^14; where the series is well
        # conditioned (P above 1e-3) it must return that probability
        cells = _EXIT_S.size
        for k in range(cells // 64, cells, cells // 64):
            assert exit_cdf(float(_EXIT_S[k])) == pytest.approx(k / cells, abs=2e-6)

    def test_moments(self):
        # E[s] = 1/6 and E[s^2] = 7/180 for the exit of 3D Brownian motion
        # from a ball (s = D tau / rho^2), over an even grid of uniforms
        s = _exit_times((np.arange(1 << 20) + 0.5) / (1 << 20))
        assert s.mean() == pytest.approx(1 / 6, rel=1e-5)
        assert (s * s).mean() == pytest.approx(7 / 180, rel=1e-4)

    def test_lookup_is_linear_between_nodes(self):
        cells = _EXIT_S.size
        u = np.array([0.0, 0.25, 0.5 + 0.5 / cells, 1.0 - 1.0 / cells])
        assert np.array_equal(_exit_times(u)[:2], _EXIT_S[[0, cells // 4]])
        mid = (_EXIT_S[cells // 2] + _EXIT_S[cells // 2 + 1]) / 2
        assert _exit_times(u)[2] == pytest.approx(mid, rel=1e-12)
        assert _exit_times(u)[3] == _EXIT_S[-1]


class TestSimulateCase:
    def test_output_invariants(self):
        p = SystemParams(d=2.0, r_tx=0.0, r_rx=4.0, diff_coeff=100.0)
        sig = simulate_case(p, small_cfg())
        v = sig.cumulative_fraction
        assert v.shape == (40,)
        assert np.all(np.diff(v) >= 0)
        assert v[-1] <= 1.0

    def test_same_seed_bitwise_identical(self):
        p = SystemParams(d=2.0, r_tx=3.0, r_rx=4.0, diff_coeff=100.0)
        a = simulate_case(p, small_cfg(seed=42))
        b = simulate_case(p, small_cfg(seed=42))
        assert np.array_equal(a.cumulative_fraction, b.cumulative_fraction)

    def test_worker_count_below_one_rejected(self):
        p = SystemParams(d=2.0, r_tx=0.0, r_rx=4.0, diff_coeff=100.0)
        for n_workers in (0, -2):
            with pytest.raises(ValidationError):
                simulate_case(p, small_cfg(), n_workers=n_workers)

    def test_worker_count_does_not_change_output(self):
        p = SystemParams(d=2.0, r_tx=3.0, r_rx=4.0, diff_coeff=100.0)
        cfg = small_cfg(seed=7, n_replications=8)
        serial = simulate_case(p, cfg, n_workers=1)
        two = simulate_case(p, cfg, n_workers=2)
        eight = simulate_case(p, cfg, n_workers=8)
        assert np.array_equal(serial.cumulative_fraction, two.cumulative_fraction)
        assert np.array_equal(serial.cumulative_fraction, eight.cumulative_fraction)

    def test_replication_pool_capped_at_replication_count(self, monkeypatch):
        sizes = RecordingPool.install(monkeypatch)
        p = SystemParams(d=2.0, r_tx=3.0, r_rx=4.0, diff_coeff=100.0)
        cfg = small_cfg(seed=7)
        serial = simulate_case(p, cfg)
        assert sizes == []
        for n_workers in (2, 8, 10000):
            pooled = simulate_case(p, cfg, n_workers=n_workers)
            assert np.array_equal(pooled.cumulative_fraction, serial.cumulative_fraction)
        assert sizes == [2, 3, 3]

    def test_point_transmitter_tracks_analytic_formula(self):
        # quick convergence check; the acceptance suite runs the full-size one.
        # dt_sub must stay small: absorption is detected at substep ends, an
        # O(sqrt(D dt_sub)) boundary-layer bias.
        p = SystemParams(d=4.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0)
        cfg = SimConfig(n_molecules=2000, n_replications=10,
                        grid=TimeGrid(1e-2, 0.5), seed=3, substep_factor=50)
        sig = simulate_case(p, cfg)
        exact = np.array([point_hit_fraction(p, t) for t in cfg.grid.times()])
        assert np.max(np.abs(sig.cumulative_fraction - exact)) < 0.03

    def test_lone_molecules_match_scalar_stepper(self):
        self.assert_lone_molecules_match(SystemParams(d=1.0, r_tx=2.0, r_rx=2.0,
                                                      diff_coeff=100.0))

    def test_lone_far_molecules_match_scalar_stepper(self):
        # a point transmitter 4.2 sigma from the receiver: every molecule
        # starts by jumping
        self.assert_lone_molecules_match(SystemParams(d=3.0, r_tx=0.0, r_rx=2.0,
                                                      diff_coeff=100.0))

    @staticmethod
    def assert_lone_molecules_match(p):
        # one molecule per replication: the kernel draws the same normals and
        # uniforms as the scalar oracle, so it absorbs every molecule in the
        # same bin
        cfg = small_cfg(seed=13, n_molecules=1, n_replications=40, substep_factor=2)
        hits = np.zeros(cfg.grid.n_bins, dtype=np.int64)
        for r in range(cfg.n_replications):
            k = lone_molecule_hit(p, cfg, r)
            if k is not None:
                hits[k] += 1
        assert 0 < hits.sum() < cfg.n_replications
        expected = np.cumsum(hits) / float(cfg.n_emitted)
        assert np.array_equal(simulate_case(p, cfg).cumulative_fraction, expected)

    @pytest.mark.parametrize("case, twin", [
        ((4.0, 5.0, 5.0, 25.0), (8.0, 10.0, 10.0, 100.0)),
        ((3.0, 0.0, 5.0, 30.0), (6.0, 0.0, 10.0, 120.0)),
        ((2.5, 3.0, 4.0, 16.0), (5.0, 6.0, 8.0, 64.0)),
    ])
    def test_scale_twins_give_identical_bytes(self, case, twin):
        # doubling every length and quadrupling D doubles sigma, the release
        # point and both sphere centres exactly, so every position and every
        # comparison scales by a power of two and the hits cannot differ
        cfg = small_cfg(seed=42)
        a = simulate_case(SystemParams(*case), cfg).cumulative_fraction
        b = simulate_case(SystemParams(*twin), cfg).cumulative_fraction
        assert 0.0 < a[-1] < 1.0
        assert a.tobytes() == b.tobytes()

    def test_substep_factor_changes_motion_resolution_only(self):
        p = SystemParams(d=3.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0)
        sig = simulate_case(p, small_cfg(substep_factor=4))
        assert sig.grid.n_bins == 40


# sha256 of cumulative_fraction.tobytes() per simulator version: version 1
# recorded with the fixed-step kernel that drew standard_normal((n, 3)) each
# substep, version 2 with the event-driven kernel. A change that alters any of
# these bytes must bump SIM_VERSION and record the new version's digests here.
FROZEN_DIGESTS = {
    1: {
        "point": "f1c502be15e1a1316df6605b57cdaf5c5b19cec25ae3875845ce1a278dab7a05",
        "reflecting": "b9561f6a5635509481acbae6997a208d9bf8390db5f6ca66c9449b84109d60b1",
        "substeps": "ac4f844fd7a9ae1d284621259556e8788064809b902a5e0d7d2231f2e8bcfefe",
        "odd_population": "66783b3c99337980c2d65a2531af3beda1d68cf4d1fb2e31007f168004a189c8",
        "all_absorbed": "5c86883d9fccf21d19f66d85bcad640c467064552aeb7514013f93513bf56c27",
    },
    2: {
        "point": "5b94c34bfa4fc71f48ccdfafa7dca610ee9ac580ae6e21e3dbcc08f3e5afe293",
        "reflecting": "688b1701ee6f598769976d62ba25757162f5cd8a44ad648791efea9511d7e834",
        "substeps": "d891d98ceb899e749ef6652a18a2d81b146be3fdf5466d6ca9fdf4efd4d72f37",
        "odd_population": "b127842b38f06e86b62fa1f25ca7a44369594f4d8d96ad7668feccd334be41d3",
        "all_absorbed": "61371764a32d70dedf70fa64e09a3ba69a7961a0ba6cb9903f09b0de290b3fbd",
        "study_size": "089cb178e967eef99fa9dce8a95bb1783c22508e39c8e6ddeca086d422a29ef5",
    },
}

FROZEN_CASES = {
    "point": (SystemParams(d=2.0, r_tx=0.0, r_rx=4.0, diff_coeff=100.0), small_cfg(seed=1)),
    # the transmitter sits right behind the release point, so moves are often
    # reverted; molecules are absorbed in every bin at SIM_VERSION 1
    "reflecting": (SystemParams(d=2.0, r_tx=10.0, r_rx=5.0, diff_coeff=100.0),
                   small_cfg(seed=2)),
    "substeps": (SystemParams(d=3.0, r_tx=4.0, r_rx=5.0, diff_coeff=100.0),
                 small_cfg(seed=3, substep_factor=3)),
    # an odd population: the first round takes 3 x 777 normals
    "odd_population": (SystemParams(d=2.0, r_tx=3.0, r_rx=4.0, diff_coeff=100.0),
                       small_cfg(seed=4, n_molecules=777)),
    # every molecule is absorbed by bin 105 of 200 (bin 73 at version 2)
    "all_absorbed": (SystemParams(d=0.5, r_tx=1.0, r_rx=100.0, diff_coeff=100.0),
                     small_cfg(seed=2, n_molecules=10, grid=TimeGrid(1e-2, 2.0))),
    # the study's population and step: the first round takes 9000 normals
    # and 3000 uniforms
    "study_size": (SystemParams(d=5.0, r_tx=4.0, r_rx=8.0, diff_coeff=80.0),
                   small_cfg(seed=11, n_molecules=3000, n_replications=2,
                             grid=TimeGrid(1e-3, 0.2))),
}


# sha256 over the signals of all 72 cases of reduced_grids() in grid order, each
# seeded by case_seed as run_phase1 seeds it (300 molecules, 1 replication,
# TimeGrid(1e-3, 0.2), master seed 1). The frozen cases above share only one
# (d, r_tx, r_rx, D) with these.
REDUCED_GRIDS_DIGESTS = {
    2: "8602972ddf726113bfe892736984b25a4856232c2c2ff64ff933ad95d06cf9c3",
}


class TestFrozenSignals:
    @pytest.mark.parametrize("name", sorted(FROZEN_CASES))
    def test_signal_bytes_pinned_per_sim_version(self, name):
        assert SIM_VERSION in FROZEN_DIGESTS, "record the digests of this SIM_VERSION"
        p, cfg = FROZEN_CASES[name]
        v = simulate_case(p, cfg).cumulative_fraction
        assert hashlib.sha256(v.tobytes()).hexdigest() == FROZEN_DIGESTS[SIM_VERSION][name]

    def test_reduced_grids_bytes_pinned_per_sim_version(self):
        assert SIM_VERSION in REDUCED_GRIDS_DIGESTS, "record the digest of this SIM_VERSION"
        cfg = small_cfg(seed=1, n_replications=1, grid=TimeGrid(1e-3, 0.2))
        digest = hashlib.sha256()
        for grid in reduced_grids():
            for p in grid.cases():
                sig = simulate_case(p, replace(cfg, seed=case_seed(cfg.seed, p)))
                digest.update(sig.cumulative_fraction.tobytes())
        assert digest.hexdigest() == REDUCED_GRIDS_DIGESTS[SIM_VERSION]

    def test_cases_cover_what_they_name(self):
        # a step from the release point is rejected about half the time
        p, cfg = FROZEN_CASES["reflecting"]
        release, _ = placement(p)
        rng = np.random.default_rng(0)
        var = p.diff_coeff * cfg.dt_sub
        rejected = sum(np.array_equal(step_molecule(release, p, var, *draws(rng)), release)
                       for _ in range(200))
        assert rejected >= 80
        p, cfg = FROZEN_CASES["all_absorbed"]
        v = simulate_case(p, cfg).cumulative_fraction
        assert v[-2] == 1.0


# Runs the reduced grid's 72 cases in order, one replication each, and prints
# how far VmRSS grew, in MB, after the first case.
RSS_GROWTH_SCRIPT = r"""
import re
from dataclasses import replace
from mcvd.pipeline import reduced_grids
from mcvd.simulate import SimConfig, case_seed, simulate_case
def rss():
    with open("/proc/self/status") as f:
        return int(re.search(r"VmRSS:\s+(\d+) kB", f.read()).group(1)) / 1024
cfg = SimConfig(n_molecules=1000, n_replications=1, seed=1)
first, *rest = [p for grid in reduced_grids() for p in grid.cases()]
simulate_case(first, replace(cfg, seed=case_seed(cfg.seed, first)))
before = rss()
for p in rest:
    simulate_case(p, replace(cfg, seed=case_seed(cfg.seed, p)))
print(rss() - before)
"""


# Runs phase 1 of the reduced study at one worker, every fresh case of a grid
# in one kernel batch, and prints how far VmRSS grew, in MB, after a phase 1
# of the first case alone.
PHASE1_RSS_GROWTH_SCRIPT = r"""
import re
import tempfile
from pathlib import Path
from mcvd import ModelKind, ParameterGrid, run_phase1
from mcvd.pipeline import reduced_grids
from mcvd.simulate import SimConfig
def rss():
    with open("/proc/self/status") as f:
        return int(re.search(r"VmRSS:\s+(\d+) kB", f.read()).group(1)) / 1024
cfg = SimConfig(n_molecules=1000, n_replications=1, seed=1)
grids = reduced_grids()
first = grids[0].cases()[0]
with tempfile.TemporaryDirectory() as out:
    run_phase1(ParameterGrid((first.d,), (first.r_tx,), (first.diff_coeff,), (first.r_rx,),
                             grids[0].label), cfg, list(ModelKind), Path(out) / "first")
    before = rss()
    for grid in grids:
        run_phase1(grid, cfg, list(ModelKind), Path(out) / "run")
    print(rss() - before)
"""


def _rss_growth(script: str) -> float:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


class TestKernelMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmRSS")
    def test_many_kernels_hold_no_mask_blocks(self):
        # every boolean mask of a round is a row of one array per kernel call,
        # so the rounds leave numpy no small freed blocks of every size to
        # keep: these cases grow VmRSS by about 0.6 MB, and by about 2.2 MB
        # when each round allocates its masks
        assert _rss_growth(RSS_GROWTH_SCRIPT) < 1.2

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmRSS")
    def test_one_worker_batch_stays_small(self):
        # a batch keeps up to LOCKSTEP_MOLECULES plus one task's molecules in
        # flight: the reduced study's phase 1 grows VmRSS by about 1.5 MB at a
        # cap of 1,024, against 0.6 MB with one case in flight at a time, and
        # by about 1.9 MB at a cap of 2,048
        assert _rss_growth(PHASE1_RSS_GROWTH_SCRIPT) < 1.8


class TestSimulateBatch:
    def test_batch_of_one_equals_case_with_derived_seed(self, tmp_path):
        from mcvd import ModelKind, Provenance, run_phase1
        from mcvd.pipeline import ParameterGrid, case_key, read_signal_csv
        p = SystemParams(d=2.0, r_tx=0.0, r_rx=4.0, diff_coeff=100.0)
        cfg = small_cfg(seed=5)
        grid = ParameterGrid((p.d,), (p.r_tx,), (p.diff_coeff,), (p.r_rx,), Provenance.TDS)
        run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path)
        batch = read_signal_csv(tmp_path / "signals" / f"sig_{case_key(p, cfg)}.csv")
        direct = simulate_case(p, replace(cfg, seed=case_seed(cfg.seed, p)))
        assert np.array_equal(batch.cumulative_fraction, direct.cumulative_fraction)


def reduced_grid_tasks():
    """The configuration and the (case, replication) tasks whose signals
    REDUCED_GRIDS_DIGESTS pins, in grid order."""
    cfg = small_cfg(seed=1, n_replications=1, grid=TimeGrid(1e-3, 0.2))
    return cfg, [(p, case_seed(cfg.seed, p), 0)
                 for grid in reduced_grids() for p in grid.cases()]


def signals_digest(signals) -> str:
    digest = hashlib.sha256()
    for values in signals:
        digest.update(values.tobytes())
    return digest.hexdigest()


class TestLockstep:
    def test_batch_composition_leaves_every_tasks_hits(self, monkeypatch):
        # 300 molecules a task: the default cap keeps up to 17 tasks of
        # different cases in flight, a cap of 8,192 all 72, and a cap of one
        # runs each task alone
        cfg, tasks = reduced_grid_tasks()
        batched = list(mcvd.simulate._lockstep_hits(tasks, cfg))
        backwards = list(mcvd.simulate._lockstep_hits(tasks[::-1], cfg))[::-1]
        runs = {}
        for cap in (1, 8192):
            monkeypatch.setattr(mcvd.simulate, "LOCKSTEP_MOLECULES", cap)
            runs[cap] = list(mcvd.simulate._lockstep_hits(tasks, cfg))
        for hits in (batched, backwards, runs[8192]):
            assert len(hits) == len(tasks)
            for a, b in zip(runs[1], hits, strict=True):
                assert np.array_equal(a, b)
        assert signals_digest(np.cumsum(h) / float(cfg.n_emitted) for h in batched) \
            == REDUCED_GRIDS_DIGESTS[SIM_VERSION]

    def test_a_task_list_run_twice_gives_the_same_hits(self):
        # a task is plain values: running it draws nothing from its caller
        cfg, tasks = reduced_grid_tasks()
        tasks = tasks[:8]
        first = list(mcvd.simulate._lockstep_hits(tasks, cfg))
        second = list(mcvd.simulate._lockstep_hits(tasks, cfg))
        for a, b in zip(first, second, strict=True):
            assert np.array_equal(a, b)

    def test_one_worker_phase1_holds_the_reduced_grids_digest(self, tmp_path):
        from mcvd import ModelKind, run_phase1
        from mcvd.pipeline import read_signal_csv, signal_path
        cfg, _ = reduced_grid_tasks()
        signals = []
        for grid in reduced_grids():
            run_phase1(grid, cfg, [ModelKind.PRIMITIVE], tmp_path)
            signals += [read_signal_csv(signal_path(tmp_path, p, cfg)).cumulative_fraction
                        for p in grid.cases()]
        assert signals_digest(signals) == REDUCED_GRIDS_DIGESTS[SIM_VERSION]

    def test_batch_of_cases_equals_each_case_alone(self, monkeypatch):
        cfg = small_cfg(n_replications=3)
        cases = [
            (SystemParams(d=2.0, r_tx=0.0, r_rx=4.0, diff_coeff=100.0), 1),
            (SystemParams(d=2.0, r_tx=3.0, r_rx=4.0, diff_coeff=100.0), 2),
            (SystemParams(d=2.0, r_tx=0.0, r_rx=4.0, diff_coeff=100.0), 3),
            (SystemParams(d=1.0, r_tx=2.0, r_rx=2.0, diff_coeff=50.0), 4)]
        batch = list(simulate_cases(cases, cfg))
        monkeypatch.setattr(mcvd.simulate, "LOCKSTEP_MOLECULES", 1)
        for (p, seed), sig in zip(cases, batch, strict=True):
            alone = simulate_case(p, replace(cfg, seed=seed)).cumulative_fraction
            assert alone.tobytes() == sig.cumulative_fraction.tobytes()

    def test_empty_batch_yields_nothing(self):
        assert list(simulate_cases([], small_cfg())) == []


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(n_molecules=0)
        with pytest.raises(ValidationError):
            SimConfig(n_replications=0)
        with pytest.raises(ValidationError):
            SimConfig(substep_factor=0)
        with pytest.raises(ValidationError):
            SimConfig(seed=-1)

    def test_dt_sub(self):
        cfg = SimConfig(grid=TimeGrid(1e-3, 1.0), substep_factor=10)
        assert cfg.dt_sub == pytest.approx(1e-4)
