import concurrent.futures
import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mcvd import (
    SimConfig,
    SystemParams,
    TimeGrid,
    ValidationError,
    build_geometry,
    point_hit_fraction,
    simulate_case,
)

from mcvd.simulate import SIM_VERSION

from stepper_oracle import step_molecule


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
        p = SystemParams(d=5.0, r_tx=4.0, r_rx=8.0, diff_coeff=80.0)
        g = build_geometry(p)
        assert np.allclose(g.emission_point, [13.0, 0.0, 0.0])
        assert np.allclose(g.tx_center, [17.0, 0.0, 0.0])

    def test_point_transmitter_has_no_body(self):
        g = build_geometry(SystemParams(d=5.0, r_tx=0.0, r_rx=8.0, diff_coeff=80.0))
        assert np.allclose(g.emission_point, [13.0, 0.0, 0.0])
        assert g.tx_center is None
        assert not g.has_transmitter_body

    def test_emission_distance_to_receiver_surface(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = SystemParams(d=rng.uniform(0.5, 20), r_tx=rng.uniform(0, 10),
                             r_rx=rng.uniform(0.5, 20), diff_coeff=50.0)
            g = build_geometry(p)
            gap = np.linalg.norm(g.emission_point) - g.rx_radius
            assert gap == pytest.approx(p.d, rel=1e-12)
            if p.r_tx > 0:
                on_surface = np.linalg.norm(g.emission_point - g.tx_center)
                assert on_surface == pytest.approx(p.r_tx, rel=1e-12)


class TestStepMolecule:
    def test_zero_sigma_never_moves_or_absorbs(self):
        g = build_geometry(SystemParams(d=2.0, r_tx=0.0, r_rx=3.0, diff_coeff=1.0))
        rng = np.random.default_rng(0)
        pos = g.emission_point.copy()
        for _ in range(50):
            nxt = step_molecule(pos, g, 0.0, rng)
            assert nxt is not None
            assert np.array_equal(nxt, pos)
            pos = nxt

    def test_far_molecule_survives_single_step(self):
        # 10 sigma away from the surface: absorption odds below 1e-15
        g = build_geometry(SystemParams(d=10.0, r_tx=0.0, r_rx=1.0, diff_coeff=1.0))
        sigma = 0.1
        rng = np.random.default_rng(123)
        for _ in range(2000):
            assert step_molecule(g.emission_point, g, sigma, rng) is not None

    def test_reflection_rolls_back(self):
        p = SystemParams(d=1.0, r_tx=5.0, r_rx=2.0, diff_coeff=1.0)
        g = build_geometry(p)
        rng = np.random.default_rng(11)
        pos = g.emission_point.copy()
        rollbacks = 0
        for _ in range(500):
            nxt = step_molecule(pos, g, 0.8, rng)
            if nxt is None:
                pos = g.emission_point.copy()
                continue
            if np.array_equal(nxt, pos):
                rollbacks += 1
            rel = nxt - g.tx_center
            assert rel @ rel >= g.tx_radius**2 * (1 - 1e-12)
            assert nxt @ nxt >= g.rx_radius**2 * (1 - 1e-12)
            pos = nxt
        assert rollbacks > 0  # with sigma this large the body is hit often


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
        # one molecule per replication: the kernel draws the same normals as
        # the scalar oracle, so every molecule is absorbed in the same substep
        p = SystemParams(d=1.0, r_tx=2.0, r_rx=2.0, diff_coeff=100.0)
        cfg = small_cfg(seed=13, n_molecules=1, n_replications=40, substep_factor=2)
        g = build_geometry(p)
        sigma = float(np.sqrt(2.0 * p.diff_coeff * cfg.dt_sub))
        hits = np.zeros(cfg.grid.n_bins, dtype=np.int64)
        for r in range(cfg.n_replications):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,))))
            pos = g.emission_point
            for j in range(cfg.grid.n_bins * cfg.substep_factor):
                pos = step_molecule(pos, g, sigma, rng)
                if pos is None:
                    hits[j // cfg.substep_factor] += 1
                    break
        assert 0 < hits.sum() < cfg.n_replications
        expected = np.cumsum(hits) / float(cfg.n_emitted)
        assert np.array_equal(simulate_case(p, cfg).cumulative_fraction, expected)

    def test_substep_factor_changes_motion_resolution_only(self):
        p = SystemParams(d=3.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0)
        sig = simulate_case(p, small_cfg(substep_factor=4))
        assert sig.grid.n_bins == 40


# sha256 of cumulative_fraction.tobytes() per simulator version, recorded
# with the per-step kernel that drew standard_normal((n, 3)) each substep. A
# change that alters any of these bytes must bump SIM_VERSION and record the
# new version's digests here.
FROZEN_DIGESTS = {
    1: {
        "point": "f1c502be15e1a1316df6605b57cdaf5c5b19cec25ae3875845ce1a278dab7a05",
        "reflecting": "b9561f6a5635509481acbae6997a208d9bf8390db5f6ca66c9449b84109d60b1",
        "substeps": "ac4f844fd7a9ae1d284621259556e8788064809b902a5e0d7d2231f2e8bcfefe",
        "odd_population": "66783b3c99337980c2d65a2531af3beda1d68cf4d1fb2e31007f168004a189c8",
        "all_absorbed": "5c86883d9fccf21d19f66d85bcad640c467064552aeb7514013f93513bf56c27",
    },
}

FROZEN_CASES = {
    "point": (SystemParams(d=2.0, r_tx=0.0, r_rx=4.0, diff_coeff=100.0), small_cfg(seed=1)),
    # the transmitter sits right behind the release point, so moves are often
    # reverted; molecules are absorbed in every bin
    "reflecting": (SystemParams(d=2.0, r_tx=10.0, r_rx=5.0, diff_coeff=100.0),
                   small_cfg(seed=2)),
    "substeps": (SystemParams(d=3.0, r_tx=4.0, r_rx=5.0, diff_coeff=100.0),
                 small_cfg(seed=3, substep_factor=3)),
    # 3 x 777 normals per substep do not divide a chunk of draws
    "odd_population": (SystemParams(d=2.0, r_tx=3.0, r_rx=4.0, diff_coeff=100.0),
                       small_cfg(seed=4, n_molecules=777)),
    # every molecule is absorbed by bin 105 of 200
    "all_absorbed": (SystemParams(d=0.5, r_tx=1.0, r_rx=100.0, diff_coeff=100.0),
                     small_cfg(seed=2, n_molecules=10, grid=TimeGrid(1e-2, 2.0))),
}


class TestFrozenSignals:
    @pytest.mark.parametrize("name", sorted(FROZEN_CASES))
    def test_signal_bytes_pinned_per_sim_version(self, name):
        assert SIM_VERSION in FROZEN_DIGESTS, "record the digests of this SIM_VERSION"
        p, cfg = FROZEN_CASES[name]
        v = simulate_case(p, cfg).cumulative_fraction
        assert hashlib.sha256(v.tobytes()).hexdigest() == FROZEN_DIGESTS[SIM_VERSION][name]

    def test_cases_cover_what_they_name(self):
        p, cfg = FROZEN_CASES["reflecting"]
        v = simulate_case(p, cfg).cumulative_fraction
        assert np.all(np.diff(v, prepend=0.0) > 0)
        p, cfg = FROZEN_CASES["all_absorbed"]
        v = simulate_case(p, cfg).cumulative_fraction
        assert v[-2] == 1.0


class TestSimulateBatch:
    def test_batch_of_one_equals_case_with_derived_seed(self, tmp_path):
        from dataclasses import replace

        from mcvd import ModelKind, Provenance, run_phase1
        from mcvd.pipeline import ParameterGrid, case_key, read_signal_csv
        from mcvd.simulate import case_seed
        p = SystemParams(d=2.0, r_tx=0.0, r_rx=4.0, diff_coeff=100.0)
        cfg = small_cfg(seed=5)
        grid = ParameterGrid((p.d,), (p.r_tx,), (p.diff_coeff,), (p.r_rx,), Provenance.TDS)
        run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path)
        batch = read_signal_csv(tmp_path / "signals" / f"sig_{case_key(p, cfg)}.csv")
        direct = simulate_case(p, replace(cfg, seed=case_seed(cfg.seed, p)))
        assert np.array_equal(batch.cumulative_fraction, direct.cumulative_fraction)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(n_molecules=0)
        with pytest.raises(ValidationError):
            SimConfig(n_replications=0)
        with pytest.raises(ValidationError):
            SimConfig(substep_factor=0)

    def test_dt_sub(self):
        cfg = SimConfig(grid=TimeGrid(1e-3, 1.0), substep_factor=10)
        assert cfg.dt_sub == pytest.approx(1e-4)
