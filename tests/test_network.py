import logging
import math

import numpy as np
import pytest

import mcvd.network
from mcvd import (
    CaseRecord,
    ModelKind,
    ModelParams,
    Network,
    Provenance,
    SystemParams,
    ValidationError,
    forward,
    train,
)
from mcvd.fitting import default_bounds
from mcvd.network import N_INPUTS, _b2_from_k, _forward_scaled, _params_as_row, _scale, _targets

from checks import gradient_check, gradient_check_scaled


def random_network(seed=0, hidden=6, out_dim=3, sym_range=20.0):
    rng = np.random.default_rng(seed)
    kind = ModelKind.ENHANCED if out_dim == 3 else ModelKind.PRIMITIVE
    n_in = N_INPUTS[kind]
    return Network(
        kind=kind,
        w1=rng.uniform(-0.7, 0.7, (hidden, n_in)),
        b1=rng.uniform(-0.2, 0.2, hidden),
        w2=rng.uniform(-0.7, 0.7, (out_dim, hidden)),
        b2=rng.uniform(-0.2, 0.2, out_dim),
        in_min=np.full(n_in, -sym_range), in_max=np.full(n_in, sym_range),
        out_min=np.array([0.5, 0.2, 0.2])[:out_dim],
        out_max=np.array([1.5, 0.9, 0.9])[:out_dim],
    )


def case_at(row, kind):
    """A case whose network inputs are exactly ``row``: for the enhanced
    kind, r_rx = 2 and every length doubled, D quadrupled."""
    if kind is ModelKind.PRIMITIVE:
        return SystemParams(*row)
    return SystemParams(d=2.0 * row[0], r_tx=2.0 * row[1], r_rx=2.0, diff_coeff=4.0 * row[2])


def enhanced_record(p, b1, k, b3):
    """An enhanced record whose training targets are (b1, k, b3)."""
    return CaseRecord(p, ModelParams(ModelKind.ENHANCED, b1, _b2_from_k(p, k, b3), b3),
                      Provenance.TDS)


def _random_cases(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        d = rng.uniform(2, 10)
        rtx = rng.uniform(4, 10)
        rrx = rng.uniform(4, 10)
        dc = rng.uniform(50, 100)
        p = SystemParams(d=d, r_tx=rtx, r_rx=rrx, diff_coeff=dc)
        # the enhanced inputs d/r_rx, r_tx/r_rx, D/r_rx^2, centred and scaled
        x = (_params_as_row(p, ModelKind.ENHANCED) - [1.3, 1.4, 3.4]) / [1.2, 1.1, 2.9]
        yield p, x


def affine_dataset(n=40, seed=42):
    """Training targets (b1, k, b3) that are an exact affine function of the
    network's inputs, all coefficients inside the fitter bounds."""
    return [enhanced_record(p, 1.0 + 0.25 * x[0] + 0.1 * x[1] - 0.05 * x[2],
                            0.5 + 0.1 * x[1] - 0.1 * x[2] + 0.05 * x[0],
                            0.5 + 0.12 * x[2] + 0.08 * x[0])
            for p, x in _random_cases(n, seed)]


def small_fittable_dataset(n=10, seed=11):
    return [enhanced_record(p, 1.0 + 0.4 * np.tanh(x[0]), 0.5 + 0.2 * np.tanh(x[2]),
                            0.5 + 0.15 * np.tanh(x[1]))
            for p, x in _random_cases(n, seed)]


class TestNetworkShapes:
    @pytest.mark.parametrize("kind, n_in, out", [
        (ModelKind.ENHANCED, 4, 3),    # the primitive kind's four inputs
        (ModelKind.PRIMITIVE, 4, 3),   # the enhanced kind's three outputs
    ])
    def test_weights_that_do_not_fit_the_kind_refused(self, kind, n_in, out):
        h = 2
        with pytest.raises(ValidationError, match="inconsistent weight shapes"):
            Network(kind, w1=np.zeros((h, n_in)), b1=np.zeros(h), w2=np.zeros((out, h)),
                    b2=np.zeros(out), in_min=np.zeros(n_in), in_max=np.ones(n_in),
                    out_min=np.zeros(out), out_max=np.ones(out))


class TestForward:
    def test_zero_weights_give_target_midrange(self):
        net = random_network(out_dim=3)
        net.w1[:] = 0; net.b1[:] = 0; net.w2[:] = 0; net.b2[:] = 0
        p = SystemParams(d=4, r_tx=5, r_rx=5, diff_coeff=80)
        # the midrange of the targets (b1, k, b3)
        got = _targets(CaseRecord(p, forward(net, p), Provenance.TDS))
        mid = (net.out_min + net.out_max) / 2
        assert np.allclose(got, mid, atol=1e-12)

    def test_forward_deterministic(self):
        net = random_network(seed=3)
        p = SystemParams(d=7, r_tx=6, r_rx=9, diff_coeff=60)
        a = forward(net, p).coefficients()
        b = forward(net, p).coefficients()
        assert np.array_equal(a, b)

    def test_outputs_respect_fitter_bounds(self):
        rng = np.random.default_rng(9)
        bounds = default_bounds(ModelKind.ENHANCED)
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        for i in range(20):
            net = random_network(seed=100 + i)
            net.w2 *= 10.0  # force saturated outputs so clamping must act
            for _ in range(50):
                p = SystemParams(d=rng.uniform(0.5, 30), r_tx=rng.uniform(0, 20),
                                 r_rx=rng.uniform(0.5, 30),
                                 diff_coeff=rng.uniform(1, 300))
                c = forward(net, p).coefficients()
                assert np.all(c >= lo) and np.all(c <= hi)

    def test_extrapolation_is_allowed(self):
        net = random_network(sym_range=5.0)
        p = SystemParams(d=50.0, r_tx=0.0, r_rx=50.0, diff_coeff=500.0)
        forward(net, p)  # no exception: logged, not raised


def bound_spanning_dataset(kind, n=40, seed=8):
    """Coefficients affine in d that reach the fitter bounds at the ends of
    d's range, so a network trained on them predicts past the bounds when d
    extrapolates."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(default_bounds(kind)).T
    records = []
    for _ in range(n):
        d = rng.uniform(2, 10)
        b = lo + (hi - lo) * (d - 2) / 8
        params = SystemParams(d=d, r_tx=rng.uniform(4, 10), r_rx=rng.uniform(4, 10),
                              diff_coeff=rng.uniform(50, 100))
        records.append(CaseRecord(params, ModelParams(kind, *b),
                                  Provenance.TDS))
    return records


class TestForwardOnTrainedNetworks:
    @pytest.fixture(scope="class", params=["primitive", "enhanced"])
    def net(self, request):
        return train(bound_spanning_dataset(ModelKind(request.param)), hidden=4, seed=1)[0]

    def test_bitwise_equal_to_the_unfused_expression(self, net):
        bounds = default_bounds(net.kind)
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        rng = np.random.default_rng(5)
        n_in = net.w1.shape[1]
        inside = rng.uniform(net.in_min, net.in_max, (60, n_in))
        outside = rng.uniform(net.in_min - 3 * (net.in_max - net.in_min),
                              net.in_max + 3 * (net.in_max - net.in_min), (200, n_in))
        outside = np.abs(outside)
        outside[:, [0, -1]] += 0.1     # d and D stay positive, r_tx may be 0
        if net.kind is ModelKind.PRIMITIVE:
            outside[:, 2] += 0.1
        clamped = 0
        for row in np.vstack([inside, outside]):
            p = case_at(row, net.kind)
            raw = _params_as_row(p, net.kind)[None, :]
            assert np.array_equal(raw[0], row)
            scaled = 2.0 * (raw - net.in_min) / (net.in_max - net.in_min) - 1.0
            y = _forward_scaled(scaled, net.w1, net.b1, net.w2, net.b2)
            unclipped = net.out_min + (y + 1.0) * (net.out_max - net.out_min) / 2.0
            if net.kind is ModelKind.ENHANCED:
                # k back to b2: ln(r_rx^(1 - 2 b3) D^b3 / k) / ln(4D)
                b1, k, b3 = unclipped[0]
                log_k = math.log(k) if k > 0 else -math.inf
                unclipped[0, 1] = ((1.0 - 2.0 * b3) * math.log(p.r_rx)
                                   + b3 * math.log(p.diff_coeff) - log_k) \
                    / math.log(4.0 * p.diff_coeff)
            expected = np.clip(unclipped, lo, hi)[0]
            clamped += int(np.any(expected != unclipped[0]))
            got = forward(net, p)
            assert got.kind is net.kind
            assert got.coefficients().tobytes() == expected.tobytes()
        assert clamped > 0

    def test_extrapolation_logged_when_info_enabled(self, net, caplog):
        caplog.set_level(logging.INFO, logger="mcvd.network")
        forward(net, case_at((net.in_min + net.in_max) / 2, net.kind))
        assert not caplog.records
        forward(net, case_at(net.in_max + 1.0, net.kind))
        assert len(caplog.records) == 1 and "extrapolates" in caplog.records[0].message


class TestSimilarityCoordinates:
    def test_b2_from_k_inverts_the_target(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = SystemParams(d=rng.uniform(1, 12), r_tx=rng.uniform(0, 10),
                             r_rx=rng.uniform(3, 11), diff_coeff=rng.uniform(40, 120))
            b = ModelParams(ModelKind.ENHANCED, *rng.uniform([0.1, 0.05, 0.05], [5, 1.5, 1.5]))
            b1, k, b3 = _targets(CaseRecord(p, b, Provenance.TDS))
            assert (b1, b3) == (b.b1, b.b3)
            assert _b2_from_k(p, k, b3) == pytest.approx(b.b2, rel=1e-12, abs=1e-12)

    def test_targets_are_scale_free(self):
        # doubling every length and quadrupling D leaves inputs and targets
        p = SystemParams(d=3.0, r_tx=5.0, r_rx=6.0, diff_coeff=70.0)
        twin = SystemParams(d=6.0, r_tx=10.0, r_rx=12.0, diff_coeff=280.0)
        b = ModelParams(ModelKind.ENHANCED, 1.1, 0.5, 0.5)
        assert np.array_equal(_params_as_row(p, ModelKind.ENHANCED),
                              _params_as_row(twin, ModelKind.ENHANCED))
        assert _targets(CaseRecord(p, b, Provenance.TDS)) == pytest.approx(
            _targets(CaseRecord(twin, b, Provenance.TDS)), rel=1e-14)

    def test_b2_is_the_point_exponent_where_the_curve_ignores_it(self):
        # at 4D = 1, (4D)^b2 is 1 for every b2
        p = SystemParams(d=3.0, r_tx=5.0, r_rx=6.0, diff_coeff=0.25)
        assert _b2_from_k(p, 0.7, 0.6) == 0.5
        assert forward(random_network(seed=2), p).b2 == 0.5

    def test_nonpositive_k_clamps_b2_to_its_bound(self):
        p = SystemParams(d=3.0, r_tx=5.0, r_rx=6.0, diff_coeff=70.0)
        assert _b2_from_k(p, 0.0, 0.5) == math.inf
        assert _b2_from_k(p, -1.0, 0.5) == math.inf
        net = random_network(seed=1)
        net.w1[:] = 0; net.b1[:] = 0; net.w2[:] = 0
        net.b2[:] = [0.0, -10.0, 0.0]     # a k of out_min - 4.5 * range < 0
        assert forward(net, p).b2 == default_bounds(ModelKind.ENHANCED)[1][1]


class TestTrain:
    def test_affine_dataset_fits_to_small_error(self):
        net, report = train(affine_dataset(), hidden=4, seed=1)
        assert report.e_d <= 1e-6

    def test_duplicating_records_leaves_predictions_unchanged(self):
        records = small_fittable_dataset()
        net_a, rep_a = train(records, hidden=10, seed=2)
        net_b, rep_b = train(records + records, hidden=10, seed=2)
        for rec in records:
            pa = forward(net_a, rec.input).coefficients()
            pb = forward(net_b, rec.input).coefficients()
            assert np.max(np.abs(pa - pb)) <= 1e-6

    def test_single_repeated_record_is_predicted(self):
        p = SystemParams(d=5, r_tx=6, r_rx=7, diff_coeff=70)
        b = ModelParams(ModelKind.ENHANCED, 1.1, 0.45, 0.6)
        with pytest.warns(UserWarning):
            net, report = train([CaseRecord(p, b, Provenance.TDS)] * 12,
                                hidden=10, seed=3)
        assert report.degenerate_targets
        got = forward(net, p).coefficients()
        # normalized tolerance 1e-3; degenerate targets normalize on a
        # widened unit half-range, so the scale carries over directly
        assert np.max(np.abs(got - b.coefficients())) <= 1e-3

    def test_same_seed_identical_training(self):
        records = small_fittable_dataset()
        net_a, rep_a = train(records, hidden=6, seed=5)
        net_b, rep_b = train(records, hidden=6, seed=5)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(net_a, name), getattr(net_b, name))
        assert rep_a == rep_b

    def test_training_error_bounds_training_predictions(self):
        # compared in target space (b1, k, b3), where the error is measured
        records = small_fittable_dataset()
        net, report = train(records, hidden=10, seed=4)
        half_range = (net.out_max - net.out_min) / 2
        bound = np.sqrt(report.e_d) * half_range + 1e-9
        for rec in records:
            got = _targets(CaseRecord(rec.input, forward(net, rec.input), Provenance.TDS))
            assert np.all(np.abs(got - _targets(rec)) <= bound)

    def test_too_few_records_rejected(self):
        with pytest.raises(ValidationError):
            train(small_fittable_dataset(n=5))

    def test_mixed_kinds_rejected(self):
        mixed = small_fittable_dataset()
        p = mixed[0].input
        mixed = mixed + [CaseRecord(p, ModelParams(ModelKind.PRIMITIVE, 1.0),
                                    Provenance.TDS)]
        with pytest.raises(ValidationError):
            train(mixed)

    def test_jacobian_built_once_per_weight_vector(self, monkeypatch):
        # the Jacobian depends on the weights alone, so a second call at the
        # weights of the call before would repeat the work
        real, weights = mcvd.network._output_jacobian, []

        def recording(x_scaled, *layers):
            weights.append(np.concatenate([a.ravel() for a in layers]))
            return real(x_scaled, *layers)

        monkeypatch.setattr(mcvd.network, "_output_jacobian", recording)
        train(small_fittable_dataset(), hidden=4, seed=1)
        assert len(weights) > 1
        assert not any(np.array_equal(a, b) for a, b in zip(weights, weights[1:]))

    def test_gamma_within_weight_count(self):
        net, report = train(small_fittable_dataset(), hidden=6, seed=8)
        assert 0.0 <= report.gamma <= sum(a.size for a in (net.w1, net.b1, net.w2, net.b2))
        assert report.alpha > 0 and report.beta > 0

    def test_normalization_round_trip(self):
        records = small_fittable_dataset()
        net, _ = train(records, hidden=4, seed=1)
        raw = np.array([_params_as_row(r.input, net.kind) for r in records])
        scaled = _scale(raw, net.in_min, net.in_max)
        back = net.in_min + (scaled + 1.0) * (net.in_max - net.in_min) / 2
        assert np.max(np.abs(back - raw)) <= 1e-12 * np.max(np.abs(raw))


class TestGradientCheck:
    def test_random_networks(self):
        p = SystemParams(d=4, r_tx=5, r_rx=6, diff_coeff=90)
        rec = CaseRecord(p, ModelParams(ModelKind.ENHANCED, 1.0, 0.5, 0.5),
                         Provenance.TDS)
        for seed in range(5):
            net = random_network(seed=seed)
            assert gradient_check(net, rec) <= 1e-6

    @pytest.mark.parametrize("out_dim", [1, 3])
    def test_batch_of_records(self, out_dim):
        # several records, so each record's rows must land in its own block
        for seed in range(3):
            net = random_network(seed=seed, out_dim=out_dim)
            x = np.random.default_rng(seed + 10).uniform(-1, 1, (6, net.w1.shape[1]))
            assert gradient_check_scaled(net, x) <= 1e-6

    def test_zero_weight_network(self):
        net = random_network(seed=1)
        net.w1[:] = 0; net.b1[:] = 0; net.w2[:] = 0; net.b2[:] = 0
        p = SystemParams(d=4, r_tx=5, r_rx=6, diff_coeff=90)
        rec = CaseRecord(p, ModelParams(ModelKind.ENHANCED, 1.0, 0.5, 0.5),
                         Provenance.TDS)
        assert gradient_check(net, rec) <= 1e-8

    def test_symmetric_under_hidden_weight_sign_flip_with_negated_inputs(self):
        # tanh is odd: flipping the sign of the input weights while negating
        # the (symmetrically normalized) inputs reproduces the identical
        # arithmetic, so the reported error matches exactly
        net = random_network(seed=6, sym_range=15.0)
        p = SystemParams(d=4.0, r_tx=5.0, r_rx=6.0, diff_coeff=9.0)
        rec = CaseRecord(p, ModelParams(ModelKind.ENHANCED, 1.0, 0.5, 0.5),
                         Provenance.TDS)
        err = gradient_check(net, rec)

        flipped = random_network(seed=6, sym_range=15.0)
        flipped.w1 = -net.w1.copy()
        p_neg = SystemParams(d=4.0, r_tx=5.0, r_rx=6.0, diff_coeff=9.0)
        # negated inputs: mirror the raw vector through the symmetric range
        rec_neg = CaseRecord(
            SystemParams(d=p.d, r_tx=p.r_tx, r_rx=p.r_rx, diff_coeff=p.diff_coeff),
            rec.output, Provenance.TDS)
        x = _params_as_row(p, net.kind)
        scaled = _scale(x[None, :], net.in_min, net.in_max)
        y_orig = _forward_scaled(scaled, net.w1, net.b1, net.w2, net.b2)
        y_flip = _forward_scaled(-scaled, flipped.w1, flipped.b1, flipped.w2, flipped.b2)
        assert np.array_equal(y_orig, y_flip)
        err_flipped = gradient_check_scaled(flipped, -scaled)
        err_orig = gradient_check_scaled(net, scaled)
        assert err_orig == err_flipped

