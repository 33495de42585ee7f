import hashlib
import json
import math
import os
import shutil
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mcvd import (
    CaseRecord,
    ModelKind,
    ModelParams,
    Network,
    Provenance,
    ReceivedSignal,
    SimConfig,
    SystemParams,
    TimeGrid,
    ValidationError,
    predict_vds,
    rmse,
    run_phase1,
    run_phase2,
    study_grids,
)
from mcvd.analysis import METHODS, RmseGroup, export_curves, write_groups_csv
from mcvd.pipeline import (
    RunManifest,
    case_key,
    load_network,
    read_records_csv,
    read_signal_csv,
    reduced_grids,
    save_network,
    signal_path,
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


# Fixed inputs that go through neither erfc nor an RNG, so the bytes each
# artifact format gives them depend on the writers alone.
PINNED_SIGNAL = ReceivedSignal(TimeGrid(0.1, 0.4), np.array([0.0, 0.1, 0.2, 1 / 3]))
PINNED_RECORDS = [
    CaseRecord(SystemParams(d=2, r_tx=5, r_rx=7.5, diff_coeff=50),
               ModelParams(ModelKind.ENHANCED, 1.0672915, 0.493, 0.512), Provenance.TDS),
    CaseRecord(SystemParams(d=4, r_tx=10, r_rx=5, diff_coeff=100),
               ModelParams(ModelKind.PRIMITIVE, 1.25), Provenance.TDS),
]
PINNED_GROUPS = [  # primitive_ann absent: its cells stay empty
    RmseGroup(d=3.0, r_rx=4.0, n_cases=2,
              mean_rmse={m: (i + 1) / 3 for i, m in enumerate(METHODS) if m != "primitive_ann"}),
    RmseGroup(d=11.0, r_rx=8.0, n_cases=1,
              mean_rmse={m: 0.1 * (i + 1) for i, m in enumerate(METHODS) if m != "primitive_ann"}),
]
PINNED_NETWORK = Network(
    kind=ModelKind.ENHANCED,
    w1=np.arange(6.0).reshape(2, 3) / 7, b1=np.array([0.1, -0.2]),
    w2=np.arange(6.0).reshape(3, 2) / 3, b2=np.array([1 / 3, 2 / 3, 1.0]),
    in_min=np.array([0.2, 0.5, 0.5]), in_max=np.array([2.0, 2.0, 4.0]),
    out_min=np.array([0.5, 0.4, 0.4]), out_max=np.array([1.5, 0.6, 0.6]))


def _export_simulation_signal(path):
    export_curves(SystemParams(d=3, r_tx=0, r_rx=5, diff_coeff=80), PINNED_SIGNAL, {},
                  path, n_molecules=1000)
    return path / "signal_simulation.csv"


def _written(write, obj):
    def to(path):
        write(obj, path)
        return path
    return to


SIGNAL_SHA256 = "b92dc86296171cb10cebf7c4c58a18d76999470c335b5ec34be0f3c52ee2c6ee"


class TestSerialization:
    @pytest.mark.parametrize("write, digest", [
        (_written(write_signal_csv, PINNED_SIGNAL), SIGNAL_SHA256),
        # the export bundle's simulation series is the signal CSV, byte for byte
        (_export_simulation_signal, SIGNAL_SHA256),
        (_written(write_records_csv, PINNED_RECORDS),
         "163c73cdf75f1e776e005b075d4d4059632d4aa3a77994bccacb8ca14b967769"),
        (_written(write_groups_csv, PINNED_GROUPS),
         "ca5109784fc3baf971dcf9791adc404c09a17cc6bcbe94d15014f0dc66203202"),
        (_written(save_network, PINNED_NETWORK),
         "13e73cec5805208867696e26f30096c01a45a5a554f4a0e5e129620f190a900d"),
    ], ids=["signal", "export_signal", "records", "groups", "network"])
    def test_artifact_bytes_pinned(self, tmp_path, write, digest):
        path = write(tmp_path / "artifact")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_signal_round_trip_is_bit_exact(self, tmp_path):
        p = SystemParams(d=3, r_tx=0, r_rx=5, diff_coeff=80)
        # 3 * 0.1 is 0.30000000000000004, the last time written for t_end 0.3
        for cfg in (tiny_cfg(), replace(tiny_cfg(), grid=TimeGrid(0.1, 0.3))):
            sig = simulate_case(p, cfg)
            path = tmp_path / "sig.csv"
            write_signal_csv(sig, path)
            back = read_signal_csv(path)
            assert np.array_equal(back.cumulative_fraction, sig.cumulative_fraction)
            assert back.grid == sig.grid
            assert rmse(sig, back, 1000) == 0.0
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
        recs = PINNED_RECORDS
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
        net, _ = train(small_fittable_dataset(), hidden=4, seed=3)
        path = tmp_path / "net.json"
        save_network(net, path)
        back = load_network(path)
        for name in ("w1", "b1", "w2", "b2", "in_min", "in_max", "out_min", "out_max"):
            assert np.array_equal(getattr(back, name), getattr(net, name))
        assert back.kind is net.kind

    def test_network_listing_its_layer_sizes_still_loads(self, tmp_path):
        # earlier writers of format 2 put "hidden" and "out_dim" after the
        # kind; the sizes are the arrays' shapes, so a reader ignores them
        path = tmp_path / "net.json"
        save_network(PINNED_NETWORK, path)
        data = json.loads(path.read_text())
        assert list(data) == ["format_version", "kind", "w1", "b1", "w2", "b2",
                              "in_min", "in_max", "out_min", "out_max"]
        path.write_text(json.dumps({"format_version": 2, "kind": "enhanced", "hidden": 2,
                                    "out_dim": 3, **data}, indent=1) + "\n")
        # the bytes such a writer gave PINNED_NETWORK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "0cbcdf76438aea31c0729e7edfee0c1eb8086846c1c9c523955c39cb540e3458"
        back = load_network(path)
        assert back.kind is PINNED_NETWORK.kind
        for name in ("w1", "b1", "w2", "b2", "in_min", "in_max", "out_min", "out_max"):
            assert np.array_equal(getattr(back, name), getattr(PINNED_NETWORK, name))

    def test_network_whose_kind_does_not_fit_its_outputs_refused(self, tmp_path):
        net = Network(ModelKind.ENHANCED, w1=np.zeros((2, 3)), b1=np.zeros(2),
                      w2=np.zeros((3, 2)), b2=np.zeros(3), in_min=np.zeros(3),
                      in_max=np.ones(3), out_min=np.zeros(3), out_max=np.ones(3))
        path = tmp_path / "net.json"
        save_network(net, path)
        data = json.loads(path.read_text())
        assert data["kind"] == "enhanced"
        data["kind"] = "primitive"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="inconsistent weight shapes"):
            load_network(path)

    def test_network_with_a_null_weight_refused(self, tmp_path):
        # read entry by entry: an array conversion would turn null into NaN
        path = tmp_path / "net.json"
        save_network(PINNED_NETWORK, path)
        data = json.loads(path.read_text())
        data["w1"][0][1] = None
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="malformed network"):
            load_network(path)

    @pytest.mark.parametrize("name, value", [("in_max", "inf"), ("w1", "inf"), ("b2", "nan")])
    def test_network_with_a_non_finite_entry_refused(self, tmp_path, name, value):
        # such a network would clamp every prediction to the output bounds
        path = tmp_path / "net.json"
        save_network(PINNED_NETWORK, path)
        data = json.loads(path.read_text())
        entries = data[name]
        if isinstance(entries[0], list):  # a matrix: its first row
            entries = entries[0]
        entries[-1] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="must be finite"):
            load_network(path)


class TestPhase1:
    def test_single_case_grid_produces_matching_record(self, tmp_path):
        from mcvd.pipeline import ParameterGrid
        grid = ParameterGrid((3.0,), (0.0,), (100.0,), (5.0,), Provenance.TDS)
        cfg = tiny_cfg()
        records = run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path)
        assert len(records) == 1
        p = grid.cases()[0]
        sig_path = tmp_path / "signals" / f"sig_{case_key(p, cfg)}.csv"
        # the persisted signal is the case simulated under its derived seed
        direct = simulate_case(p, replace(cfg, seed=case_seed(cfg.seed, p)))
        assert np.array_equal(read_signal_csv(sig_path).cumulative_fraction,
                              direct.cumulative_fraction)
        # fitting the persisted signal reproduces the stored coefficients
        from mcvd import FitProblem, fit
        refit = fit(FitProblem(p, read_signal_csv(sig_path), ModelKind.ENHANCED))
        assert np.array_equal(refit.model.coefficients(),
                              records[0].output.coefficients())

    def test_rerun_reuses_artifacts_bitwise(self, tmp_path, monkeypatch):
        import mcvd.pipeline
        calls = []
        real_read, real_batch = mcvd.pipeline.read_signal_csv, mcvd.pipeline.simulate_cases

        def read(path):
            calls.append("read_signal_csv")
            return real_read(path)

        def batch(cases, cfg):
            # one entry per signal the one-worker batch simulates
            for sig in real_batch(cases, cfg):
                calls.append("simulate_cases")
                yield sig

        monkeypatch.setattr(mcvd.pipeline, "read_signal_csv", read)
        monkeypatch.setattr(mcvd.pipeline, "simulate_cases", batch)
        grid = tiny_grid()
        cfg = tiny_cfg(seed=5)
        # one kind, then both kinds fitted to the one signal of each case
        for kinds in ([ModelKind.ENHANCED], [ModelKind.PRIMITIVE, ModelKind.ENHANCED]):
            run = tmp_path / str(len(kinds))
            calls.clear()
            first = run_phase1(grid, cfg, kinds, run)
            assert calls == ["simulate_cases"] * grid.case_count()
            assert [r.output.kind for r in first] \
                == [k for k in kinds for _ in range(grid.case_count())]
            stamp = {f: f.stat().st_mtime_ns for f in (run / "signals").iterdir()}
            calls.clear()
            second = run_phase1(grid, cfg, kinds, run)
            assert calls == ["read_signal_csv"] * grid.case_count()
            for f in (run / "signals").iterdir():
                assert f.stat().st_mtime_ns == stamp[f]  # no recomputation
            for a, b in zip(first, second, strict=True):
                assert np.array_equal(a.output.coefficients(), b.output.coefficients())
            # each kind's records are those of a call for that kind alone
            for kind in kinds:
                run_phase1(grid, cfg, [kind], tmp_path / "single")
                name = f"records_tds_{kind.value}.csv"
                assert (run / name).read_bytes() == (tmp_path / "single" / name).read_bytes()

    def test_permuted_grid_gives_identical_signals(self, tmp_path):
        from mcvd.pipeline import ParameterGrid
        axes = ((2.0, 3.0), (0.0, 2.0), (60.0, 100.0), (4.0, 5.0))
        cfg = tiny_cfg(seed=9)
        run_phase1(ParameterGrid(*axes, Provenance.TDS), cfg, [ModelKind.PRIMITIVE],
                   tmp_path / "fwd")
        run_phase1(ParameterGrid(*(a[::-1] for a in axes), Provenance.TDS), cfg,
                   [ModelKind.PRIMITIVE], tmp_path / "rev", n_workers=2)
        fwd = sorted((tmp_path / "fwd" / "signals").iterdir())
        assert len(fwd) == 16
        for f in fwd:
            assert f.read_bytes() == (tmp_path / "rev" / "signals" / f.name).read_bytes()

    def test_resume_simulates_only_missing_signals(self, tmp_path):
        grid = tiny_grid()
        cfg = tiny_cfg(seed=5)
        run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path)
        records = tmp_path / "records_tds_enhanced.csv"
        before = records.read_bytes()
        signals = sorted((tmp_path / "signals").iterdir())
        lost, kept = signals[0], signals[1:]
        lost_bytes = lost.read_bytes()
        lost.unlink()
        stamp = {f: f.stat().st_mtime_ns for f in kept}
        run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path)
        assert lost.read_bytes() == lost_bytes
        assert all(f.stat().st_mtime_ns == stamp[f] for f in kept)
        assert records.read_bytes() == before

    def test_failures_replaced_not_appended_on_rerun(self, tmp_path):
        from mcvd.pipeline import ParameterGrid
        # 40 um from the receiver nothing arrives within 0.1 s: too few bins to fit
        grid = ParameterGrid((2.0, 40.0), (0.0,), (100.0,), (5.0,), Provenance.TDS)
        cfg = tiny_cfg()
        for _ in range(2):
            records = run_phase1(grid, cfg, [ModelKind.PRIMITIVE], tmp_path)
            failures = RunManifest.load(tmp_path).failures
            assert len(records) == 1
            assert [(f["stage"], f["case"][0]) for f in failures] == [("phase1:TDS", "40")]
        # one entry per kind whose fit failed, naming the kind
        run_phase1(grid, cfg, [ModelKind.PRIMITIVE, ModelKind.ENHANCED], tmp_path)
        manifest = RunManifest.load(tmp_path)
        assert [f["error"].split(" fit: ")[0] for f in manifest.failures] \
            == ["primitive", "enhanced"]
        assert manifest.stages[-1]["failed"] == 1

    def test_record_count_matches_case_count(self, tmp_path):
        grid = tiny_grid()
        records = run_phase1(grid, tiny_cfg(), [ModelKind.PRIMITIVE], tmp_path)
        assert len(records) == grid.case_count()
        manifest = RunManifest.load(tmp_path)
        assert manifest.failures == []

    def test_manifest_lists_artifacts(self, tmp_path):
        grid = tiny_grid()
        cfg = tiny_cfg()
        run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        for p in grid.cases():
            rel = f"signals/sig_{case_key(p, cfg)}.csv"
            assert rel in manifest["artifacts"]
            assert (tmp_path / rel).exists()
        assert any(s["name"].startswith("phase1") for s in manifest["stages"])

    def test_manifest_lists_only_signals_on_disk(self, tmp_path, monkeypatch):
        import mcvd.pipeline
        from mcvd.types import NumericError
        grid = tiny_grid()
        cfg = tiny_cfg()
        run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path)
        lost = tmp_path / "signals" / f"sig_{case_key(grid.cases()[1], cfg)}.csv"
        lost.unlink()
        real = mcvd.pipeline.simulate_case

        def failing_for_d4(p, case_cfg, **kwargs):
            if p.d == 4.0:
                raise NumericError("non-finite positions")
            return real(p, case_cfg, **kwargs)

        # the rerun fails to simulate the case whose signal was deleted
        monkeypatch.setattr(mcvd.pipeline, "simulate_case", failing_for_d4)
        run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path, n_workers=2)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [f["case"][0] for f in manifest["failures"]] == ["4"]
        assert f"signals/sig_{case_key(grid.cases()[0], cfg)}.csv" in manifest["artifacts"]
        assert lost.relative_to(tmp_path).as_posix() not in manifest["artifacts"]
        for rel in manifest["artifacts"]:
            assert (tmp_path / rel).exists()

    def test_manifest_with_artifact_dict_resumes(self, tmp_path):
        # a manifest that keyed its artifacts by name and kept grid hashes
        # and a seed still resumes, and its next save lists the directory
        # instead and drops the seed
        grid = tiny_grid()
        cfg = tiny_cfg(seed=5)
        first = run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path / "a")
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        path = tmp_path / "b" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["grid_hashes"] = {"TDS": "0123456789abcdef"}
        manifest["seed"] = 5
        manifest["artifacts"] = {f"artifact_{i}": rel
                                 for i, rel in enumerate(manifest["artifacts"])}
        path.write_text(json.dumps(manifest))
        resumed = run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path / "b")
        assert [r.output.coefficients().tolist() for r in resumed] \
            == [r.output.coefficients().tolist() for r in first]
        manifest = json.loads(path.read_text())
        assert "grid_hashes" not in manifest and "seed" not in manifest
        assert manifest["artifacts"] == json.loads(
            (tmp_path / "a" / "manifest.json").read_text())["artifacts"]
        assert manifest["stages"][-1]["resumed"] == grid.case_count()

    def test_worker_count_below_one_rejected(self, tmp_path):
        for n_workers in (0, -2):
            with pytest.raises(ValidationError):
                run_phase1(tiny_grid(), tiny_cfg(), [ModelKind.ENHANCED], tmp_path,
                           n_workers=n_workers)
        assert not (tmp_path / "manifest.json").exists()

    def test_process_pool_capped_at_fresh_case_count(self, tmp_path, monkeypatch):
        sizes = RecordingPool.install(monkeypatch)
        grid = tiny_grid()
        run_phase1(grid, tiny_cfg(), [ModelKind.ENHANCED], tmp_path / "a", n_workers=8)
        assert sizes == [2]
        run_phase1(grid, tiny_cfg(), [ModelKind.ENHANCED], tmp_path / "b", n_workers=10000)
        assert sizes == [2, 2]
        # a rerun with every signal on disk simulates nothing and opens no pool
        run_phase1(grid, tiny_cfg(), [ModelKind.ENHANCED], tmp_path / "b", n_workers=8)
        assert sizes == [2, 2]
        serial = run_phase1(grid, tiny_cfg(), [ModelKind.ENHANCED], tmp_path / "c")
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
            records = run_phase1(tiny_grid(), tiny_cfg(), [ModelKind.ENHANCED], tmp_path,
                                 n_workers=2)
        assert len(records) == 2
        assert threads_at_fork == [before, before]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_interrupted_grid_keeps_the_signals_written(self, tmp_path, monkeypatch,
                                                        n_workers):
        import mcvd.pipeline
        from mcvd.pipeline import ParameterGrid
        grid = ParameterGrid((2.0, 3.0, 4.0, 5.0), (0.0,), (100.0,), (5.0,), Provenance.TDS)
        cfg = tiny_cfg(seed=5)
        kinds = [ModelKind.PRIMITIVE, ModelKind.ENHANCED]
        whole, cut = tmp_path / "whole", tmp_path / "cut"
        run_phase1(grid, cfg, kinds, whole, n_workers=n_workers)
        real_case, real_batch = mcvd.pipeline.simulate_case, mcvd.pipeline.simulate_cases
        third = grid.cases()[2]

        # two workers simulate case by case, one worker in one batch
        def interrupted_at_third(p, case_cfg, **kwargs):
            if p == third:
                raise KeyboardInterrupt
            return real_case(p, case_cfg, **kwargs)

        def batch_interrupted_at_third(cases, cfg):
            for (p, _), sig in zip(cases, real_batch(cases, cfg)):
                if p == third:
                    raise KeyboardInterrupt
                yield sig

        monkeypatch.setattr(mcvd.pipeline, "simulate_case", interrupted_at_third)
        monkeypatch.setattr(mcvd.pipeline, "simulate_cases", batch_interrupted_at_third)
        with pytest.raises(KeyboardInterrupt):
            run_phase1(grid, cfg, kinds, cut, n_workers=n_workers)
        # the cases before the interrupted one are on disk, and nothing else
        kept = [signal_path(cut, p, cfg) for p in grid.cases()[:2]]
        assert sorted(cut.rglob("*")) == sorted([cut / "signals", *kept])
        for path in kept:
            assert path.read_bytes() == (whole / path.relative_to(cut)).read_bytes()

        monkeypatch.undo()
        run_phase1(grid, cfg, kinds, cut, n_workers=n_workers)
        stage = RunManifest.load(cut).stages[-1]
        assert (stage["resumed"], stage["simulated"], stage["failed"]) == (2, 2, 0)
        for kind in kinds:
            name = f"records_tds_{kind.value}.csv"
            assert (cut / name).read_bytes() == (whole / name).read_bytes()

    def test_stage_reports_duration_and_case_counts(self, tmp_path):
        grid = tiny_grid()
        cfg = tiny_cfg(seed=5)
        run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path, n_workers=2)
        (tmp_path / "signals" / f"sig_{case_key(grid.cases()[0], cfg)}.csv").unlink()
        run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path, n_workers=2)
        stages = RunManifest.load(tmp_path).stages
        counts = [(s["name"], s["simulated"], s["resumed"], s["failed"]) for s in stages]
        assert counts == [("phase1:TDS", 2, 0, 0), ("phase1:TDS", 1, 1, 0)]
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
        assert net.w2.shape[0] == 1
        assert (tmp_path / "network_primitive.json").exists()
        payload = json.loads((tmp_path / "train_report_primitive.json").read_text())
        assert payload["epochs"] >= 1


class TestPredict:
    def test_one_record_per_input(self, tmp_path):
        net, _ = train(small_fittable_dataset(), hidden=4, seed=2)
        _, vds = study_grids()
        inputs = vds.cases()
        records = predict_vds(net, inputs)
        assert len(records) == 135
        assert all(r.provenance is Provenance.ANN_PREDICTION for r in records)

    def test_predictions_repeatable_and_bounded(self):
        net, _ = train(small_fittable_dataset(), hidden=4, seed=2)
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

    def test_negative_zero_radius_is_the_point_transmitter(self):
        # equal cases must draw the same streams and share one signal file
        point = SystemParams(d=3, r_tx=0.0, r_rx=5, diff_coeff=80)
        signed = SystemParams(d=3, r_tx=-0.0, r_rx=5, diff_coeff=80)
        assert signed == point
        assert math.copysign(1.0, signed.r_tx) == 1.0
        assert case_seed(0, signed) == case_seed(0, point)
        assert case_key(signed, tiny_cfg()) == case_key(point, tiny_cfg())


class TestCaseKey:
    # a changed key would make every resumed run simulate its grid again
    @pytest.mark.parametrize("p, cfg, key", [
        (SystemParams(d=7, r_tx=4, r_rx=8, diff_coeff=70),
         SimConfig(1000, 1, TimeGrid(1e-3, 1.0), seed=1, substep_factor=1), "e4fb041ff7a91e7d"),
        (SystemParams(d=4, r_tx=0, r_rx=5, diff_coeff=100),
         SimConfig(300, 3, TimeGrid(5e-3, 0.2), seed=7, substep_factor=3), "5fe9b69c5dcd9ef0"),
    ])
    def test_keys_pinned(self, p, cfg, key):
        assert case_key(p, cfg) == key
