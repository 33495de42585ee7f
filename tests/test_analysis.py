import numpy as np
import pytest

from mcvd import (
    CaseRecord,
    ModelKind,
    ModelParams,
    Provenance,
    ReceivedSignal,
    SimConfig,
    SystemParams,
    TimeGrid,
    ValidationError,
    evaluate_vds,
    export_curves,
    rmse,
    sample_model,
)
from mcvd.types import MissingArtifactError

from checks import spearman

GRID = TimeGrid(1e-2, 0.5)


def sig(values, grid=None):
    values = np.asarray(values, dtype=float)
    g = grid or TimeGrid(1.0, float(len(values)))
    return ReceivedSignal(g, values)


class TestRmse:
    def test_identical_signals_zero(self):
        a = sig([0.1, 0.2, 0.3])
        assert rmse(a, a, 3000) == 0.0

    def test_constant_offset(self):
        a = sig([0.11, 0.21, 0.31])
        b = sig([0.10, 0.20, 0.30])
        assert rmse(a, b, 3000) == pytest.approx(30.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = sig(np.sort(rng.uniform(0, 1, 8)))
            b = sig(np.sort(rng.uniform(0, 1, 8)))
            assert rmse(a, b, 3000) == rmse(b, a, 3000)

    def test_metric_properties(self):
        rng = np.random.default_rng(4)
        a = sig(np.sort(rng.uniform(0, 1, 10)))
        b = sig(np.sort(rng.uniform(0, 1, 10)))
        c = sig(np.sort(rng.uniform(0, 1, 10)))
        assert rmse(a, b, 100) >= 0
        assert rmse(a, b, 100) <= rmse(a, c, 100) + rmse(c, b, 100) + 1e-12

    def test_grid_mismatch_rejected(self):
        a = sig([0.1, 0.2])
        b = sig([0.1, 0.2, 0.3])
        with pytest.raises(ValidationError):
            rmse(a, b, 3000)


def _vds_setup(n_per_group=2):
    """Synthetic evaluation inputs: two d values x two r_rx values, with
    model curves built so that enhanced fits beat primitive fits."""
    cfg = SimConfig(n_molecules=3000, n_replications=2, grid=GRID)
    sims = []
    fits = []
    anns = []
    rng = np.random.default_rng(8)
    for d in (3.0, 7.0):
        for r_rx in (4.0, 8.0):
            for r_tx, dc in [(4.0, 60.0), (8.0, 80.0)][:n_per_group]:
                p = SystemParams(d=d, r_tx=r_tx, r_rx=r_rx, diff_coeff=dc)
                truth = ModelParams(ModelKind.ENHANCED, 1.1, 0.52, 0.55)
                clean = sample_model(p, truth, GRID).cumulative_fraction
                noisy = np.clip(clean + rng.normal(0, 5e-4, clean.size), 0, 1)
                sims.append((p, ReceivedSignal(GRID, noisy)))
                fits.append(CaseRecord(p, truth, Provenance.VDS))
                fits.append(CaseRecord(p, ModelParams(ModelKind.PRIMITIVE, 1.05),
                                       Provenance.VDS))
                anns.append(CaseRecord(p, ModelParams(
                    ModelKind.ENHANCED, 1.09, 0.52, 0.55), Provenance.ANN_PREDICTION))
                anns.append(CaseRecord(p, ModelParams(ModelKind.PRIMITIVE, 1.06),
                                       Provenance.ANN_PREDICTION))
    return sims, fits, anns, cfg


class TestEvaluateVds:
    def test_groups_partition_cases(self):
        sims, fits, anns, cfg = _vds_setup()
        groups = evaluate_vds(sims, fits, anns, cfg.n_molecules)
        assert len(groups) == 4  # 2 distances x 2 receiver radii
        assert sum(g.n_cases for g in groups) == len(sims)
        for g in groups:
            assert g.n_cases == 2

    def test_methods_reported(self):
        sims, fits, anns, cfg = _vds_setup()
        groups = evaluate_vds(sims, fits, anns, cfg.n_molecules)
        for g in groups:
            assert set(g.mean_rmse) == {"point_formula", "primitive_fit",
                                        "enhanced_fit", "primitive_ann",
                                        "enhanced_ann"}

    def test_enhanced_fit_beats_primitive_fit_in_every_group(self):
        sims, fits, anns, cfg = _vds_setup()
        for g in evaluate_vds(sims, fits, anns, cfg.n_molecules):
            assert g.mean_rmse["enhanced_fit"] <= g.mean_rmse["primitive_fit"]

    def test_group_mean_equals_member_mean(self):
        sims, fits, anns, cfg = _vds_setup()
        groups = evaluate_vds(sims, fits, anns, cfg.n_molecules)
        # recompute one group's enhanced-fit mean by hand
        g = groups[0]
        members = [(p, s) for (p, s) in sims if p.d == g.d and p.r_rx == g.r_rx]
        fit_map = {(r.input, r.output.kind): r.output for r in fits}
        vals = []
        for p, s in members:
            curve = sample_model(p, fit_map[(p, ModelKind.ENHANCED)], s.grid)
            vals.append(rmse(s, curve, cfg.n_molecules))
        assert g.mean_rmse["enhanced_fit"] == pytest.approx(np.mean(vals), abs=1e-12)

    def test_missing_records_enumerated(self):
        sims, fits, anns, cfg = _vds_setup()
        with pytest.raises(MissingArtifactError):
            evaluate_vds(sims, fits[2:], anns, cfg.n_molecules)


class TestEvaluateFullGrid:
    def test_full_validation_grid_gives_15_groups_of_9(self):
        # synthetic signals stand in for simulations: grouping is what matters
        from mcvd import study_grids
        _, vds = study_grids()
        cfg = SimConfig(n_molecules=3000, n_replications=2, grid=GRID)
        truth = ModelParams(ModelKind.ENHANCED, 1.1, 0.5, 0.55)
        sims = []
        fits = []
        for p in vds.cases():
            curve = sample_model(p, truth, GRID)
            sims.append((p, ReceivedSignal(GRID, curve.cumulative_fraction)))
            fits.append(CaseRecord(p, truth, Provenance.VDS))
        groups = evaluate_vds(sims, fits, [], cfg.n_molecules)
        assert len(groups) == 15  # 5 distances x 3 receiver radii
        assert all(g.n_cases == 9 for g in groups)  # 3 tx radii x 3 diff coeffs
        assert sum(g.n_cases for g in groups) == 135


class TestExportCurves:
    def test_showcase_distance_set_exports_three_bundles(self, tmp_path):
        # the standard showcase: three gaps at rtx 4, rrx 8, D 80
        truth = ModelParams(ModelKind.ENHANCED, 1.05, 0.5, 0.53)
        bundles = []
        for d in (5.0, 7.0, 9.0):
            p = SystemParams(d=d, r_tx=4.0, r_rx=8.0, diff_coeff=80.0)
            curve = sample_model(p, truth, GRID)
            sim = ReceivedSignal(GRID, curve.cumulative_fraction)
            out = tmp_path / f"d{d:.0f}"
            export_curves(p, sim, {"enhanced_fit": truth}, out, 3000)
            bundles.append(out)
        assert len(bundles) == 3
        for out in bundles:
            assert (out / "received_signal.svg").exists()
            assert (out / "sir.svg").exists()

    def test_bundle_contents_and_determinism(self, tmp_path):
        p = SystemParams(d=5.0, r_tx=4.0, r_rx=8.0, diff_coeff=80.0)
        truth = ModelParams(ModelKind.ENHANCED, 1.05, 0.5, 0.53)
        sim = sample_model(p, truth, GRID)
        sim = ReceivedSignal(GRID, sim.cumulative_fraction)
        models = {
            "enhanced_fit": truth,
            "primitive_fit": ModelParams(ModelKind.PRIMITIVE, 1.02),
        }
        out = tmp_path / "bundle"
        written = export_curves(p, sim, models, out, 3000)
        names = {w.name for w in written}
        assert "signal_simulation.csv" in names
        assert "signal_point_formula.csv" in names
        assert "signal_enhanced_fit.csv" in names
        assert "sir_own_simulation.csv" in names
        assert "sir_vs_sim_enhanced_fit.csv" in names
        assert "received_signal.svg" in names
        csv = (out / "signal_simulation.csv").read_text().splitlines()
        assert len(csv) == 1 + GRID.n_bins
        svg = (out / "received_signal.svg").read_text()
        assert svg.startswith("<?xml") and "<svg" in svg and "polyline" in svg

        before = {w.name: w.read_bytes() for w in written}
        for w in export_curves(p, sim, models, out, 3000):
            assert w.read_bytes() == before[w.name]


class TestSpearman:
    def test_perfect_trends(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [9, 7, 5, 1]) == pytest.approx(-1.0)

    def test_monotone_transform_invariant(self):
        x = [1.0, 2.0, 3.0, 5.0, 9.0]
        y = [2.0, 4.0, 4.5, 7.0, 50.0]
        assert spearman(x, y) == pytest.approx(1.0)

    def test_ties_average(self):
        assert abs(spearman([1, 1, 2], [3, 3, 5])) <= 1.0

    def test_length_guard(self):
        with pytest.raises(ValidationError):
            spearman([1.0], [2.0])
