import numpy as np
import pytest

from mcvd import (
    SimConfig,
    SystemParams,
    TimeGrid,
    ValidationError,
    build_geometry,
    point_hit_fraction,
    simulate_batch,
    simulate_case,
    step_molecule,
)


def small_cfg(seed=0, **kw):
    defaults = dict(n_molecules=300, n_replications=3, grid=TimeGrid(5e-3, 0.2),
                    seed=seed, substep_factor=1)
    defaults.update(kw)
    return SimConfig(**defaults)


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

    def test_thread_count_does_not_change_output(self):
        p = SystemParams(d=2.0, r_tx=3.0, r_rx=4.0, diff_coeff=100.0)
        cfg = small_cfg(seed=7, n_replications=8)
        serial = simulate_case(p, cfg, n_workers=1)
        two = simulate_case(p, cfg, n_workers=2)
        eight = simulate_case(p, cfg, n_workers=8)
        assert np.array_equal(serial.cumulative_fraction, two.cumulative_fraction)
        assert np.array_equal(serial.cumulative_fraction, eight.cumulative_fraction)

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

    def test_substep_factor_changes_motion_resolution_only(self):
        p = SystemParams(d=3.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0)
        sig = simulate_case(p, small_cfg(substep_factor=4))
        assert sig.grid.n_bins == 40


class TestSimulateBatch:
    def test_batch_of_one_equals_case_with_derived_seed(self):
        from mcvd.simulate import case_seed
        p = SystemParams(d=2.0, r_tx=0.0, r_rx=4.0, diff_coeff=100.0)
        cfg = small_cfg(seed=5)
        batch = simulate_batch([p], cfg)
        sub = SimConfig(cfg.n_molecules, cfg.n_replications, cfg.grid,
                        case_seed(cfg.seed, p), cfg.substep_factor)
        direct = simulate_case(p, sub)
        assert np.array_equal(batch[0].cumulative_fraction, direct.cumulative_fraction)

    def test_permutation_invariance_per_case(self):
        cases = [
            SystemParams(d=2.0, r_tx=0.0, r_rx=4.0, diff_coeff=100.0),
            SystemParams(d=3.0, r_tx=2.0, r_rx=5.0, diff_coeff=60.0),
            SystemParams(d=4.0, r_tx=0.0, r_rx=6.0, diff_coeff=80.0),
        ]
        cfg = small_cfg(seed=9, n_molecules=150, n_replications=2)
        fwd = simulate_batch(cases, cfg)
        rev = simulate_batch(cases[::-1], cfg)
        for sig_f, sig_r in zip(fwd, rev[::-1]):
            assert np.array_equal(sig_f.cumulative_fraction, sig_r.cumulative_fraction)

    def test_empty_batch(self):
        assert simulate_batch([], small_cfg()) == []

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_numeric_failure_is_reported_as_numeric(self, monkeypatch, n_workers):
        import mcvd.simulate
        from mcvd.types import NumericError

        def failing(p, cfg):
            if p.d == 3.0:
                raise NumericError("non-finite positions")
            raise ValidationError("bad case")

        monkeypatch.setattr(mcvd.simulate, "simulate_case", failing)
        cases = [SystemParams(d=d, r_tx=0.0, r_rx=4.0, diff_coeff=100.0) for d in (2.0, 3.0)]
        with pytest.raises(NumericError, match="non-finite positions"):
            simulate_batch(cases, small_cfg(), n_workers=n_workers)
        with pytest.raises(ValidationError, match="bad case"):
            simulate_batch(cases[:1], small_cfg(), n_workers=n_workers)


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
