import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcvd import (
    ModelKind,
    ModelParams,
    ReceivedSignal,
    SystemParams,
    TimeGrid,
    ValidationError,
    erfc,
    point_hit_fraction,
    sample_model,
    sample_point_formula,
    sir_curve,
)

from checks import model_hit_fraction
from erfc_oracle import ERFC_0_2, ERFC_TABLE


class TestErfc:
    def test_matches_oracle_table(self):
        for x, expected in ERFC_TABLE:
            assert abs(erfc(x) - expected) <= 1e-12, f"erfc({x})"

    def test_vectorized_matches_scalar(self):
        xs = np.array([x for x, _ in ERFC_TABLE])
        vals = erfc(xs)
        for x, v in zip(xs, vals):
            assert v == erfc(float(x))

    def test_negative_reflection(self):
        for x, expected in ERFC_TABLE[1:6]:
            assert abs(erfc(-x) - (2.0 - expected)) <= 1e-12

    def test_dense_grid_against_stdlib(self):
        # erfc is CPython's libm-backed math.erfc mapped over the array, so the
        # vectorized path must return exactly its values; accuracy is checked
        # against the frozen oracle above
        import math
        xs = np.linspace(0.0, 10.0, 2003)
        vals = erfc(xs)
        for x, v in zip(xs, vals):
            assert v == math.erfc(float(x))

    def test_nan_propagates(self):
        assert np.isnan(erfc(float("nan")))


@pytest.fixture
def params():
    return SystemParams(d=4.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0)


class TestPointHitFraction:
    def test_zero_time_is_zero(self, params):
        assert point_hit_fraction(params, 0.0) == 0.0

    def test_late_time_limit_is_amplitude(self):
        p = SystemParams(d=10.0, r_tx=0.0, r_rx=10.0, diff_coeff=100.0)
        # r_rx/(d + r_rx) = 1/2 and erfc(0+) = 1
        assert point_hit_fraction(p, 1e12) == pytest.approx(0.5, abs=1e-6)

    def test_derived_value_d4_r5_D100_t1(self, params):
        # argument is d / sqrt(4 D t) = 0.2; frozen oracle value for erfc(0.2)
        expected = (5.0 / 9.0) * ERFC_0_2
        assert point_hit_fraction(params, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_negative_time_rejected(self, params):
        with pytest.raises(ValidationError):
            point_hit_fraction(params, -0.1)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            SystemParams(d=-1.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0)
        with pytest.raises(ValidationError):
            SystemParams(d=1.0, r_tx=0.0, r_rx=0.0, diff_coeff=100.0)
        with pytest.raises(ValidationError):
            SystemParams(d=1.0, r_tx=-2.0, r_rx=5.0, diff_coeff=100.0)

    def test_monotone_in_t_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            p = SystemParams(d=rng.uniform(0.5, 20), r_tx=0.0,
                             r_rx=rng.uniform(0.5, 20), diff_coeff=rng.uniform(1, 200))
            t1, t2 = sorted(rng.uniform(1e-4, 10.0, size=2))
            f1, f2 = point_hit_fraction(p, t1), point_hit_fraction(p, t2)
            cap = p.r_rx / (p.d + p.r_rx)
            assert 0.0 <= f1 <= f2 <= cap + 1e-15


class TestModelHitFraction:
    def test_primitive_b1_one_equals_point_formula(self, params):
        m = ModelParams(ModelKind.PRIMITIVE, 1.0)
        for t in (0.0, 1e-3, 0.05, 0.3, 1.0, 7.0):
            assert model_hit_fraction(params, m, t) == point_hit_fraction(params, t)

    @given(st.floats(1e-4, 10.0), st.floats(0.5, 15.0), st.floats(1.0, 200.0),
           st.floats(0.5, 15.0))
    @settings(max_examples=200, deadline=None)
    def test_enhanced_identity_reduces_to_point_formula(self, t, d, diff, r_rx):
        p = SystemParams(d=d, r_tx=0.0, r_rx=r_rx, diff_coeff=diff)
        m = ModelParams(ModelKind.ENHANCED, 1.0, 0.5, 0.5)
        assert model_hit_fraction(p, m, t) == pytest.approx(
            point_hit_fraction(p, t), abs=1e-12)

    def test_derived_enhanced_value_at_t1(self, params):
        # at t = 1, t^b3 = 1 for any b3, so the argument is 4/(400^0.5) = 0.2
        m = ModelParams(ModelKind.ENHANCED, 0.9, 0.5, 0.4)
        expected = 0.9 * (5.0 / 9.0) * ERFC_0_2
        assert model_hit_fraction(params, m, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_kind_coefficient_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ModelParams(ModelKind.PRIMITIVE, 1.0, b2=0.5)
        with pytest.raises(ValidationError):
            ModelParams(ModelKind.ENHANCED, 1.0)
        with pytest.raises(ValidationError):
            ModelParams(ModelKind.ENHANCED, 1.0, 0.5, -0.1)
        with pytest.raises(ValidationError):
            ModelParams(ModelKind.PRIMITIVE, 0.0)


class TestSampleModel:
    def test_primitive_matches_point_formula_per_bin(self, params):
        grid = TimeGrid(dt=0.1, t_end=0.3)
        sig = sample_model(params, ModelParams(ModelKind.PRIMITIVE, 1.0), grid)
        assert sig.grid.n_bins == 3
        for k in range(3):
            assert sig.cumulative_fraction[k] == point_hit_fraction(params, (k + 1) * 0.1)

    def test_single_bin(self, params):
        grid = TimeGrid(dt=0.5, t_end=0.5)
        sig = sample_model(params, ModelParams(ModelKind.ENHANCED, 1.1, 0.4, 0.6), grid)
        assert sig.cumulative_fraction.shape == (1,)

    def test_enhanced_identity_bitwise_equals_point_sampling(self, params):
        grid = TimeGrid(dt=1e-3, t_end=0.25)
        b = sample_point_formula(params, grid)
        for m in (ModelParams(ModelKind.ENHANCED, 1.0, 0.5, 0.5),
                  ModelParams(ModelKind.PRIMITIVE, 1.0)):
            a = sample_model(params, m, grid)
            assert np.array_equal(a.cumulative_fraction, b.cumulative_fraction)

    def test_output_satisfies_signal_invariants(self, params):
        grid = TimeGrid(dt=1e-2, t_end=1.0)
        sig = sample_model(params, ModelParams(ModelKind.ENHANCED, 1.2, 0.45, 0.55), grid)
        sig.validate()


class TestSirCurve:
    def _signal(self, values):
        grid = TimeGrid(dt=1.0, t_end=float(len(values)))
        return ReceivedSignal(grid, np.asarray(values, dtype=float))

    def test_half_of_final_gives_one(self):
        sir = sir_curve(self._signal([0.2, 0.4]))
        assert sir[0] == pytest.approx(1.0)

    def test_zero_bin_gives_zero(self):
        sir = sir_curve(self._signal([0.0, 0.1, 0.4]))
        assert sir[0] == 0.0

    def test_last_bin_is_infinite(self):
        sir = sir_curve(self._signal([0.1, 0.2, 0.3]))
        assert np.isposinf(sir[-1])

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            sir_curve(self._signal([0.0, 0.0, 0.0]))

    def test_reference_end_defaults_to_own_end(self):
        s = self._signal([0.1, 0.2, 0.4])
        assert np.array_equal(sir_curve(s, 0.4), sir_curve(s))
        with pytest.raises(ValidationError):
            sir_curve(s, 0.0)

    def test_exceeding_reference_gives_sentinel(self):
        out = sir_curve(self._signal([0.1, 0.5]), 0.3)
        assert out[0] == pytest.approx(0.5)
        assert np.isposinf(out[1])

    def test_nondecreasing_where_finite(self, params):
        grid = TimeGrid(dt=1e-2, t_end=1.0)
        sig = sample_point_formula(params, grid)
        sir = sir_curve(sig)
        finite = np.isfinite(sir)
        assert np.all(np.diff(sir[finite]) >= -1e-15)


class TestTimeGrid:
    def test_n_bins_exact(self):
        assert TimeGrid(1e-3, 1.0).n_bins == 1000
        assert TimeGrid(0.25, 1.0).n_bins == 4

    def test_invalid(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 1.0)
        with pytest.raises(ValidationError):
            TimeGrid(0.5, 0.2)

    def test_t_end_not_a_multiple_of_dt_rejected(self):
        for dt, t_end in ((0.3, 1.0), (0.25, 1.1), (1e-3, 1.0005)):
            with pytest.raises(ValidationError, match="multiple"):
                TimeGrid(dt, t_end)
        with pytest.raises(ValidationError):
            TimeGrid(1e-300, 1e300)

    def test_inexact_float_multiples_accepted(self):
        # 0.3 / 0.1 is 2.9999999999999996 in binary floats
        assert TimeGrid(0.1, 0.3).n_bins == 3
        assert TimeGrid(1e-3, 1.0).n_bins == 1000
        assert TimeGrid(0.005, 0.2).n_bins == 40

    def test_times_are_bin_ends(self):
        t = TimeGrid(0.5, 2.0).times()
        assert np.allclose(t, [0.5, 1.0, 1.5, 2.0])


class TestReceivedSignal:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ReceivedSignal(TimeGrid(0.5, 1.0), np.array([0.1]))

    def test_validate_flags_decreasing(self):
        sig = ReceivedSignal(TimeGrid(0.5, 1.0), np.array([0.4, 0.2]))
        with pytest.raises(ValidationError):
            sig.validate()

    def test_validate_flags_out_of_range(self):
        sig = ReceivedSignal(TimeGrid(0.5, 1.0), np.array([0.4, 1.2]))
        with pytest.raises(ValidationError):
            sig.validate()
