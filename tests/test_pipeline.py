import json
import os
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mcvd import (
    CaseRecord,
    ModelKind,
    ModelParams,
    Provenance,
    SimConfig,
    SystemParams,
    TimeGrid,
    ValidationError,
    predict_vds,
    run_phase1,
    run_phase2,
    study_grids,
)
from mcvd.pipeline import (
    RunManifest,
    case_key,
    load_network,
    read_records_csv,
    read_signal_csv,
    reduced_grids,
    save_network,
    write_records_csv,
    write_signal_csv,
)
from mcvd.simulate import simulate_case, case_seed
from mcvd.network import train
from test_network import small_fittable_dataset
from test_simulate import RecordingPool


def tiny_cfg(seed=0):
    return SimConfig(n_molecules=120, n_replications=2, grid=TimeGrid(2e-3, 0.1),
                     seed=seed, substep_factor=1)


def tiny_grid():
    from mcvd.pipeline import ParameterGrid
    return ParameterGrid((2.0, 4.0), (0.0,), (100.0,), (5.0,), Provenance.TDS)


class TestGrids:
    def test_study_grid_counts(self):
        tds, vds = study_grids()
        assert tds.case_count() == 135
        assert vds.case_count() == 135
        assert len(tds.cases()) == 135
        assert len(vds.cases()) == 135

    def test_no_shared_cases(self):
        tds, vds = study_grids()
        assert set(tds.cases()).isdisjoint(vds.cases())

    def test_grid_values_match_study_ranges(self):
        tds, vds = study_grids()
        assert tds.distances == (2.0, 4.0, 6.0, 8.0, 10.0)
        assert vds.distances == (3.0, 5.0, 7.0, 9.0, 11.0)
        assert tds.tx_radii == (5.0, 7.5, 10.0)
        assert vds.tx_radii == (4.0, 6.0, 8.0)
        assert tds.diff_coeffs == (50.0, 75.0, 100.0)
        assert vds.diff_coeffs == (60.0, 70.0, 80.0)
        assert tds.rx_radii == (5.0, 7.5, 10.0)
        assert vds.rx_radii == (4.0, 6.0, 8.0)

    def test_reduced_grids_sizes(self):
        tds, vds = reduced_grids()
        assert tds.case_count() == 60
        assert vds.case_count() == 12


class TestSerialization:
    def test_signal_round_trip_is_bit_exact(self, tmp_path):
        p = SystemParams(d=3, r_tx=0, r_rx=5, diff_coeff=80)
        sig = simulate_case(p, tiny_cfg())
        path = tmp_path / "sig.csv"
        write_signal_csv(sig, path)
        back = read_signal_csv(path)
        assert np.array_equal(back.cumulative_fraction, sig.cumulative_fraction)
        assert back.grid == sig.grid
        header = path.read_text().splitlines()[0]
        assert header == "time_s,cumulative_fraction"

    def test_unevenly_spaced_signal_rows_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        header = "time_s,cumulative_fraction\n"
        path.write_text(header + "0.1,0.1\n0.2,0.2\n0.3,0.3\n")
        assert read_signal_csv(path).grid == TimeGrid(0.1, 0.3)
        for rows in ("0.1,0.1\n0.25,0.2\n0.3,0.3\n",   # a row off the grid
                     "0.1,0.1\n0.2,0.2\n0.4,0.3\n",    # a missing row
                     "0.1,0.1\n0.3,0.2\n0.2,0.3\n"):   # rows out of order
            path.write_text(header + rows)
            with pytest.raises(ValidationError, match="evenly spaced"):
                read_signal_csv(path)

    def test_records_round_trip(self, tmp_path):
        recs = [
            CaseRecord(SystemParams(d=2, r_tx=5, r_rx=7.5, diff_coeff=50),
                       ModelParams(ModelKind.ENHANCED, 1.0672915, 0.493, 0.512),
                       Provenance.TDS),
            CaseRecord(SystemParams(d=4, r_tx=10, r_rx=5, diff_coeff=100),
                       ModelParams(ModelKind.PRIMITIVE, 1.25), Provenance.TDS),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(recs, path)
        text = path.read_text()
        assert text.splitlines()[0] == "d_um,rtx_um,rrx_um,D_um2s,kind,b1,b2,b3"
        # primitive rows leave b2/b3 empty
        assert text.splitlines()[2].endswith(",,")
        back = read_records_csv(path, Provenance.TDS)
        assert back[0].output == recs[0].output
        assert back[1].output == recs[1].output
        assert back[0].input == recs[0].input

    def test_network_round_trip_bitwise(self, tmp_path):
        net, _ = train(small_fittable_dataset(), hidden=4, seed=3, max_epochs=5)
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        assert np.array_equal(back.flat_weights(), net.flat_weights())
        assert np.array_equal(back.in_min, net.in_min)
        assert np.array_equal(back.out_max, net.out_max)
        assert back.kind is net.kind


class TestPhase1:
    def test_single_case_grid_produces_matching_record(self, tmp_path):
        from mcvd.pipeline import ParameterGrid
        grid = ParameterGrid((3.0,), (0.0,), (100.0,), (5.0,), Provenance.TDS)
        cfg = tiny_cfg()
        records = run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path)
        assert len(records) == 1
        p = grid.cases()[0]
        sig_path = tmp_path / "signals" / f"sig_{case_key(p, cfg)}.csv"
        # the persisted signal is the case simulated under its derived seed
        direct = simulate_case(p, replace(cfg, seed=case_seed(cfg.seed, p)))
        assert np.array_equal(read_signal_csv(sig_path).cumulative_fraction,
                              direct.cumulative_fraction)
        # fitting the persisted signal reproduces the stored coefficients
        from mcvd import default_problem, fit
        refit = fit(default_problem(p, read_signal_csv(sig_path), ModelKind.ENHANCED))
        assert np.array_equal(refit.model.coefficients(),
                              records[0].output.coefficients())

    def test_rerun_reuses_artifacts_bitwise(self, tmp_path):
        grid = tiny_grid()
        cfg = tiny_cfg(seed=5)
        first = run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path)
        stamp = {f: f.stat().st_mtime_ns
                 for f in (tmp_path / "signals").iterdir()}
        second = run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path)
        for f in (tmp_path / "signals").iterdir():
            assert f.stat().st_mtime_ns == stamp[f]  # no recomputation
        for a, b in zip(first, second):
            assert np.array_equal(a.output.coefficients(), b.output.coefficients())

    def test_permuted_grid_gives_identical_signals(self, tmp_path):
        from mcvd.pipeline import ParameterGrid
        axes = ((2.0, 3.0), (0.0, 2.0), (60.0, 100.0), (4.0, 5.0))
        cfg = tiny_cfg(seed=9)
        run_phase1(ParameterGrid(*axes, Provenance.TDS), cfg, ModelKind.PRIMITIVE,
                   tmp_path / "fwd")
        run_phase1(ParameterGrid(*(a[::-1] for a in axes), Provenance.TDS), cfg,
                   ModelKind.PRIMITIVE, tmp_path / "rev", n_workers=2)
        fwd = sorted((tmp_path / "fwd" / "signals").iterdir())
        assert len(fwd) == 16
        for f in fwd:
            assert f.read_bytes() == (tmp_path / "rev" / "signals" / f.name).read_bytes()

    def test_resume_simulates_only_missing_signals(self, tmp_path):
        grid = tiny_grid()
        cfg = tiny_cfg(seed=5)
        run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path)
        records = tmp_path / "records_tds_enhanced.csv"
        before = records.read_bytes()
        signals = sorted((tmp_path / "signals").iterdir())
        lost, kept = signals[0], signals[1:]
        lost_bytes = lost.read_bytes()
        lost.unlink()
        stamp = {f: f.stat().st_mtime_ns for f in kept}
        run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path)
        assert lost.read_bytes() == lost_bytes
        assert all(f.stat().st_mtime_ns == stamp[f] for f in kept)
        assert records.read_bytes() == before

    def test_failures_replaced_not_appended_on_rerun(self, tmp_path):
        from mcvd.pipeline import ParameterGrid
        # 40 um from the receiver nothing arrives within 0.1 s: too few bins to fit
        grid = ParameterGrid((2.0, 40.0), (0.0,), (100.0,), (5.0,), Provenance.TDS)
        cfg = tiny_cfg()
        for _ in range(2):
            records = run_phase1(grid, cfg, ModelKind.PRIMITIVE, tmp_path)
            failures = RunManifest.load(tmp_path).failures
            assert len(records) == 1
            assert [(f["stage"], f["case"][0]) for f in failures] == [("phase1:TDS:primitive", "40")]
        run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path)
        assert len(RunManifest.load(tmp_path).failures) == 2

    def test_record_count_matches_case_count(self, tmp_path):
        grid = tiny_grid()
        records = run_phase1(grid, tiny_cfg(), ModelKind.PRIMITIVE, tmp_path)
        assert len(records) == grid.case_count()
        manifest = RunManifest.load(tmp_path)
        assert manifest.failures == []

    def test_manifest_lists_artifacts(self, tmp_path):
        grid = tiny_grid()
        cfg = tiny_cfg()
        run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path)
        manifest = RunManifest.load(tmp_path)
        for p in grid.cases():
            rel = manifest.artifacts[f"signal_{case_key(p, cfg)}"]
            assert (tmp_path / rel).exists()
        assert any(s["name"].startswith("phase1") for s in manifest.stages)

    def test_manifest_lists_only_signals_on_disk(self, tmp_path, monkeypatch):
        import mcvd.pipeline
        from mcvd.types import NumericError
        grid = tiny_grid()
        cfg = tiny_cfg()
        run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path)
        lost = tmp_path / "signals" / f"sig_{case_key(grid.cases()[1], cfg)}.csv"
        lost.unlink()
        real = mcvd.pipeline.simulate_case

        def failing_for_d4(p, case_cfg, **kwargs):
            if p.d == 4.0:
                raise NumericError("non-finite positions")
            return real(p, case_cfg, **kwargs)

        # the rerun fails to simulate the case whose signal was deleted
        monkeypatch.setattr(mcvd.pipeline, "simulate_case", failing_for_d4)
        run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path, n_workers=2)
        manifest = RunManifest.load(tmp_path)
        assert [f["case"][0] for f in manifest.failures] == ["4"]
        assert f"signal_{case_key(grid.cases()[0], cfg)}" in manifest.artifacts
        assert f"signal_{case_key(grid.cases()[1], cfg)}" not in manifest.artifacts
        for rel in manifest.artifacts.values():
            assert (tmp_path / rel).exists()

    def test_worker_count_below_one_rejected(self, tmp_path):
        for n_workers in (0, -2):
            with pytest.raises(ValidationError):
                run_phase1(tiny_grid(), tiny_cfg(), ModelKind.ENHANCED, tmp_path,
                           n_workers=n_workers)
        assert not (tmp_path / "manifest.json").exists()

    def test_process_pool_capped_at_fresh_case_count(self, tmp_path, monkeypatch):
        sizes = RecordingPool.install(monkeypatch)
        grid = tiny_grid()
        run_phase1(grid, tiny_cfg(), ModelKind.ENHANCED, tmp_path / "a", n_workers=8)
        assert sizes == [2]
        run_phase1(grid, tiny_cfg(), ModelKind.ENHANCED, tmp_path / "b", n_workers=10000)
        assert sizes == [2, 2]
        # a rerun with every signal on disk simulates nothing and opens no pool
        run_phase1(grid, tiny_cfg(), ModelKind.ENHANCED, tmp_path / "b", n_workers=8)
        assert sizes == [2, 2]
        serial = run_phase1(grid, tiny_cfg(), ModelKind.ENHANCED, tmp_path / "c")
        assert sizes == [2, 2]
        for f in sorted((tmp_path / "c" / "signals").iterdir()):
            assert f.read_bytes() == (tmp_path / "a" / "signals" / f.name).read_bytes()
        assert len(serial) == grid.case_count()

    def test_workers_forked_before_dispatcher_threads_start(self, tmp_path, monkeypatch):
        # forking a process that runs threads can deadlock the child; Python
        # 3.12+ warns (DeprecationWarning) when it happens
        threads_at_fork = []
        real_fork = os.fork

        def recording_fork():
            threads_at_fork.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", recording_fork)
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            records = run_phase1(tiny_grid(), tiny_cfg(), ModelKind.ENHANCED, tmp_path,
                                 n_workers=2)
        assert len(records) == 2
        assert threads_at_fork == [before, before]

    def test_stage_reports_duration_and_case_counts(self, tmp_path):
        grid = tiny_grid()
        cfg = tiny_cfg(seed=5)
        run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path, n_workers=2)
        (tmp_path / "signals" / f"sig_{case_key(grid.cases()[0], cfg)}.csv").unlink()
        run_phase1(grid, cfg, ModelKind.ENHANCED, tmp_path, n_workers=2)
        stages = RunManifest.load(tmp_path).stages
        counts = [(s["name"], s["simulated"], s["resumed"], s["failed"]) for s in stages]
        assert counts == [("phase1:TDS:enhanced", 2, 0, 0), ("phase1:TDS:enhanced", 1, 1, 0)]
        assert all(isinstance(s["duration_s"], float) and s["duration_s"] >= 0.0
                   for s in stages)


class TestPhase2:
    def test_same_seed_identical_network_bytes(self, tmp_path):
        records = small_fittable_dataset()
        run_phase2(records, hidden=5, seed=9, out_dir=tmp_path / "a")
        run_phase2(records, hidden=5, seed=9, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "network_enhanced.json").read_bytes()
        b = (tmp_path / "b" / "network_enhanced.json").read_bytes()
        assert a == b

    def test_primitive_dataset_gives_out_dim_one(self, tmp_path):
        records = [CaseRecord(r.input, ModelParams(ModelKind.PRIMITIVE, r.output.b1),
                              Provenance.TDS)
                   for r in small_fittable_dataset()]
        net, _ = run_phase2(records, hidden=4, seed=1, out_dir=tmp_path)
        assert net.out_dim == 1
        assert (tmp_path / "network_primitive.json").exists()
        payload = json.loads((tmp_path / "train_report_primitive.json").read_text())
        assert payload["epochs"] >= 1


class TestPredict:
    def test_one_record_per_input(self, tmp_path):
        net, _ = train(small_fittable_dataset(), hidden=4, seed=2, max_epochs=20)
        _, vds = study_grids()
        inputs = vds.cases()
        records = predict_vds(net, inputs)
        assert len(records) == 135
        assert all(r.provenance is Provenance.ANN_PREDICTION for r in records)

    def test_predictions_repeatable_and_bounded(self):
        net, _ = train(small_fittable_dataset(), hidden=4, seed=2, max_epochs=20)
        p = SystemParams(d=11, r_tx=8, r_rx=8, diff_coeff=80)
        a = predict_vds(net, [p])[0].output.coefficients()
        b = predict_vds(net, [p])[0].output.coefficients()
        assert np.array_equal(a, b)
        from mcvd.fitting import default_bounds
        lo = np.array([x[0] for x in default_bounds(net.kind)])
        hi = np.array([x[1] for x in default_bounds(net.kind)])
        assert np.all(a >= lo) and np.all(a <= hi)


class TestCaseSeed:
    def test_content_derived_not_positional(self):
        p1 = SystemParams(d=2, r_tx=0, r_rx=5, diff_coeff=100)
        p2 = SystemParams(d=4, r_tx=0, r_rx=5, diff_coeff=100)
        assert case_seed(0, p1) != case_seed(0, p2)
        assert case_seed(0, p1) == case_seed(0, SystemParams(d=2, r_tx=0, r_rx=5,
                                                             diff_coeff=100))
        assert case_seed(0, p1) != case_seed(1, p1)
