import numpy as np
import pytest

from mcvd import (
    FitProblem,
    ModelKind,
    ModelParams,
    ReceivedSignal,
    SystemParams,
    TimeGrid,
    ValidationError,
    fit,
    sample_model,
)
from mcvd.fitting import BOUNDS_B1, BOUNDS_B2, BOUNDS_B3, START_POINTS, _curve_and_jacobian
from mcvd.pipeline import study_grids

from checks import jacobian_check

GRID = TimeGrid(1e-3, 1.0)


def make_target(p, model, grid=GRID):
    return sample_model(p, model, grid)


@pytest.fixture
def params():
    return SystemParams(d=4.0, r_tx=5.0, r_rx=5.0, diff_coeff=100.0)


class TestDefaultProblem:
    def test_primitive_guess(self, params):
        target = make_target(params, ModelParams(ModelKind.PRIMITIVE, 1.2))
        prob = FitProblem(params, target, ModelKind.PRIMITIVE)
        assert START_POINTS[prob.kind] == (1.0,)
        assert len(prob.bounds) == 1

    def test_enhanced_guess_is_point_identity(self, params):
        target = make_target(params, ModelParams(ModelKind.ENHANCED, 1.0, 0.5, 0.5))
        prob = FitProblem(params, target, ModelKind.ENHANCED)
        assert START_POINTS[prob.kind] == (1.0, 0.5, 0.5)
        assert len(prob.bounds) == 3

    def test_bounds_contain_guess(self, params):
        target = make_target(params, ModelParams(ModelKind.ENHANCED, 1.0, 0.5, 0.5))
        for kind in ModelKind:
            prob = FitProblem(params, target, kind)
            for v, (lo, hi) in zip(START_POINTS[kind], prob.bounds, strict=True):
                assert lo <= v <= hi

    def test_too_few_nonzero_bins_rejected(self, params):
        sig = ReceivedSignal(TimeGrid(0.1, 1.5), np.zeros(15))
        with pytest.raises(ValidationError):
            FitProblem(params, sig, ModelKind.PRIMITIVE)


class TestFit:
    def test_enhanced_recovery_from_exact_curve(self, params):
        truth = ModelParams(ModelKind.ENHANCED, 0.9, 0.45, 0.55)
        target = make_target(params, truth)
        result = fit(FitProblem(params, target, ModelKind.ENHANCED))
        got = result.model.coefficients()
        want = truth.coefficients()
        assert np.max(np.abs(got - want) / want) <= 1e-4
        assert result.converged

    def test_primitive_exact_recovery(self, params):
        target = make_target(params, ModelParams(ModelKind.PRIMITIVE, 1.0))
        result = fit(FitProblem(params, target, ModelKind.PRIMITIVE))
        assert result.model.b1 == pytest.approx(1.0, abs=1e-6)
        assert result.rss <= 1e-20

    def test_enhanced_never_worse_than_primitive(self, params):
        rng = np.random.default_rng(5)
        for _ in range(5):
            truth = ModelParams(ModelKind.ENHANCED, rng.uniform(0.8, 1.2),
                                rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7))
            clean = make_target(params, truth).cumulative_fraction
            noisy = np.clip(clean + rng.normal(0, 0.002, clean.size), 0.0, None)
            target = ReceivedSignal(GRID, noisy)
            rss_p = fit(FitProblem(params, target, ModelKind.PRIMITIVE)).rss
            rss_e = fit(FitProblem(params, target, ModelKind.ENHANCED)).rss
            assert rss_e <= rss_p + 1e-12

    def test_rss_never_exceeds_initial_guess(self, params):
        truth = ModelParams(ModelKind.ENHANCED, 1.3, 0.6, 0.4)
        target = make_target(params, truth)
        start = ModelParams(ModelKind.ENHANCED, *START_POINTS[ModelKind.ENHANCED])
        start_curve = make_target(params, start).cumulative_fraction
        rss0 = float(np.sum((start_curve - target.cumulative_fraction) ** 2))
        result = fit(FitProblem(params, target, ModelKind.ENHANCED))
        assert result.rss <= rss0

    def test_converges_within_iteration_budget(self, params):
        target = make_target(params, ModelParams(ModelKind.ENHANCED, 1.1, 0.52, 0.48))
        result = fit(FitProblem(params, target, ModelKind.ENHANCED))
        assert result.n_iterations <= 200

    def test_all_zero_target_rejected(self, params):
        sig = ReceivedSignal(GRID, np.zeros(1000))
        with pytest.raises(ValidationError):
            fit(FitProblem(params, sig, ModelKind.ENHANCED))

    def test_result_within_bounds(self, params):
        rng = np.random.default_rng(2)
        lo = np.array([BOUNDS_B1[0], BOUNDS_B2[0], BOUNDS_B3[0]])
        hi = np.array([BOUNDS_B1[1], BOUNDS_B2[1], BOUNDS_B3[1]])
        for _ in range(5):
            truth = ModelParams.from_coefficients(ModelKind.ENHANCED, rng.uniform(lo, hi))
            target = make_target(params, truth)
            got = fit(FitProblem(params, target, ModelKind.ENHANCED)).model
            c = got.coefficients()
            assert np.all(c >= lo) and np.all(c <= hi)


class TestJacobian:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(31)
        times = np.arange(1, 501) * 2e-3
        worst = 0.0
        for _ in range(100):
            p = SystemParams(d=rng.uniform(1, 11), r_tx=0.0,
                             r_rx=rng.uniform(2, 10), diff_coeff=rng.uniform(20, 120))
            coeffs = rng.uniform([0.2, 0.1, 0.1], [3.0, 1.2, 1.2])
            worst = max(worst, jacobian_check(p, ModelKind.ENHANCED, coeffs, times))
        assert worst <= 1e-6

    def test_primitive_jacobian(self):
        p = SystemParams(d=4.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0)
        assert jacobian_check(p, ModelKind.PRIMITIVE, [1.3]) <= 1e-8


class TestFittedCurveIsSampledCurve:
    # the fitter minimizes the very curve that evaluation and export sample
    @pytest.mark.parametrize("coeffs", [(0.6,), (1.0,), (1.7,), (1.0, 0.5, 0.5),
                                        (0.8, 0.45, 0.6), (1.6, 0.7, 0.35)])
    def test_bitwise_on_study_grid_points(self, coeffs):
        model = ModelParams.from_coefficients(
            ModelKind.PRIMITIVE if len(coeffs) == 1 else ModelKind.ENHANCED, coeffs)
        tds, vds = study_grids()
        for p in (tds.cases() + vds.cases())[::23]:
            fitted, _ = _curve_and_jacobian(p, model.kind, np.array(coeffs), GRID.times())
            sampled = sample_model(p, model, GRID).cumulative_fraction
            assert np.array_equal(fitted, sampled), p


class TestNoiseRobustness:
    def test_recovery_under_per_bin_noise(self, params):
        # binomial-level additive noise, sigma ~ 0.003 per bin
        rng = np.random.default_rng(17)
        truth = ModelParams(ModelKind.ENHANCED, 1.05, 0.47, 0.56)
        clean = make_target(params, truth).cumulative_fraction
        hits = 0
        for _ in range(10):
            noisy = clean + rng.normal(0.0, 0.003, clean.size)
            target = ReceivedSignal(GRID, noisy)
            got = fit(FitProblem(params, target, ModelKind.ENHANCED)).model
            rel = np.max(np.abs(got.coefficients() - truth.coefficients())
                         / truth.coefficients())
            hits += rel <= 5e-2
        assert hits >= 9
