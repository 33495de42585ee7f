import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcvd.pipeline
import mcvd.simulate
from mcvd.cli import (
    EXIT_MISSING_ARTIFACT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    build_parser,
    main,
)
from mcvd.types import NumericError, ValidationError


def run_cli(*args):
    return main(list(args))


# Stand-ins for the simulation kernel, defined at module level so that a
# worker process can unpickle them. They misbehave for the validation case
# BAD_CASE = (d, r_tx, r_rx), by default d=11, r_tx=8, r_rx=8, which no
# training case shares.
_REAL_HITS = mcvd.simulate._replication_hits
_TEST_PID = os.getpid()
BAD_CASE = (11.0, 8.0, 8.0)


def _is_bad_case(p) -> bool:
    if (p.d, p.r_tx, p.r_rx) != BAD_CASE:
        return False
    if os.getpid() == _TEST_PID:
        raise AssertionError("the kernel ran in the test process, not in a worker")
    return True


def _hits_numeric_failure(p, cfg, seed_seq):
    if _is_bad_case(p):
        raise NumericError("non-finite positions")
    return _REAL_HITS(p, cfg, seed_seq)


def _hits_worker_dies(p, cfg, seed_seq):
    if _is_bad_case(p):
        os._exit(1)
    return _REAL_HITS(p, cfg, seed_seq)


PIPELINE_RUN = ("--seed", "3", "--molecules", "150", "--replications", "2",
                "--dt", "0.005", "--t-end", "0.5", "--hidden", "4")


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One tiny end-to-end pipeline run shared by the CLI tests."""
    out = tmp_path_factory.mktemp("run")
    assert run_cli("pipeline", "--out", str(out), *PIPELINE_RUN) == EXIT_OK
    return out


def _tree(root: Path) -> dict[str, bytes]:
    return {f.relative_to(root).as_posix(): f.read_bytes()
            for f in root.rglob("*") if f.is_file()}


def _artifacts_match_disk(run: Path) -> bool:
    """Whether the manifest lists every other file of the run, sorted."""
    listed = json.loads((run / "manifest.json").read_text())["artifacts"]
    return listed == sorted(set(_tree(run)) - {"manifest.json"})


class TestSimulateCommand:
    def test_writes_signal(self, tmp_path):
        out = tmp_path / "sig.csv"
        code = run_cli("simulate", "--d", "4", "--rrx", "5", "--D", "100",
                       "--molecules", "100", "--replications", "2",
                       "--dt", "0.005", "--t-end", "0.1", "--seed", "1",
                       "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "time_s,cumulative_fraction"
        assert len(lines) == 21

    def test_invalid_params_exit_1(self, tmp_path):
        code = run_cli("simulate", "--d", "-4", "--rrx", "5", "--D", "100",
                       "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_VALIDATION
        # t_end not a multiple of dt
        code = run_cli("simulate", "--d", "4", "--rrx", "5", "--D", "100",
                       "--dt", "0.3", "--t-end", "1.0", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_VALIDATION

    def test_unknown_flag_exit_1(self, tmp_path):
        assert run_cli("simulate", "--nope", "1") == EXIT_VALIDATION


class TestFitCommand:
    def test_fit_signal_csv(self, tmp_path):
        sig_path = tmp_path / "sig.csv"
        run_cli("simulate", "--d", "3", "--rrx", "6", "--D", "90",
                "--molecules", "400", "--replications", "3",
                "--dt", "0.002", "--t-end", "0.2", "--seed", "2",
                "--out", str(sig_path))
        out = tmp_path / "rec.csv"
        code = run_cli("fit", "--signal", str(sig_path), "--d", "3", "--rrx", "6",
                       "--D", "90", "--model", "enhanced", "--out", str(out))
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0].startswith("d_um,")

    def test_out_into_a_new_directory(self, tmp_path):
        sig_path = tmp_path / "sig.csv"
        assert run_cli("simulate", "--d", "4", "--rrx", "5", "--D", "100",
                       "--molecules", "200", "--replications", "1",
                       "--dt", "0.005", "--t-end", "0.2", "--out", str(sig_path)) == EXIT_OK
        out = tmp_path / "new" / "rec.csv"
        assert run_cli("fit", "--signal", str(sig_path), "--d", "4", "--rrx", "5",
                       "--D", "100", "--out", str(out)) == EXIT_OK
        assert len(out.read_text().splitlines()) == 2

    def test_missing_signal_exit_2(self, tmp_path):
        code = run_cli("fit", "--signal", str(tmp_path / "none.csv"),
                       "--d", "3", "--rrx", "6", "--D", "90")
        assert code == EXIT_MISSING_ARTIFACT


class TestPipelineArtifacts:
    def test_expected_files(self, pipeline_run):
        out = pipeline_run
        assert (out / "manifest.json").exists()
        assert (out / "records_tds_enhanced.csv").exists()
        assert (out / "records_tds_primitive.csv").exists()
        assert (out / "records_vds_enhanced.csv").exists()
        assert (out / "network_enhanced.json").exists()
        assert (out / "network_primitive.json").exists()
        assert (out / "predictions_enhanced.csv").exists()
        assert (out / "evaluation" / "rmse_groups.csv").exists()
        assert not (out / "records").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == []
        # each grid is simulated and fitted for both kinds in one phase-1 stage
        assert [s["name"] for s in manifest["stages"]] == [
            "phase1:TDS", "phase2:primitive", "phase2:enhanced", "phase1:VDS", "evaluate"]
        assert "seed" not in manifest
        assert _artifacts_match_disk(out)

    def test_groups_csv_shape(self, pipeline_run):
        lines = (pipeline_run / "evaluation" / "rmse_groups.csv").read_text().splitlines()
        assert lines[0].startswith("d_um,rrx_um,n_cases,")
        # reduced VDS grid: 3 distances x 2 receiver radii = 6 groups
        assert len(lines) == 1 + 6

    def test_evaluate_command_rewrites_identical_groups(self, pipeline_run, tmp_path):
        out = tmp_path / "groups.csv"
        code = run_cli("evaluate", "--run", str(pipeline_run), "--out", str(out))
        assert code == EXIT_OK
        assert out.read_bytes() == (pipeline_run / "evaluation" / "rmse_groups.csv").read_bytes()

    def test_evaluate_missing_run_exit_2(self, tmp_path):
        assert run_cli("evaluate", "--run", str(tmp_path / "no_run")) == EXIT_MISSING_ARTIFACT

    def test_predict_from_trained_network(self, pipeline_run, tmp_path):
        out = tmp_path / "pred.csv"
        code = run_cli("predict", "--network", str(pipeline_run / "network_enhanced.json"),
                       "--d", "7", "--rtx", "6", "--rrx", "6", "--D", "70",
                       "--out", str(out))
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 2

    def test_predict_into_a_new_directory(self, pipeline_run, tmp_path):
        out = tmp_path / "new" / "p.csv"
        assert run_cli("predict", "--network", str(pipeline_run / "network_enhanced.json"),
                       "--grid", "vds", "--out", str(out)) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 135

    def test_network_of_the_old_format_refused(self, pipeline_run, tmp_path):
        # format 1 held an enhanced network trained on (d, r_tx, r_rx, D)
        # against (b1, b2, b3); its weights mean something else now
        text = (pipeline_run / "network_enhanced.json").read_text()
        assert '"format_version": 2,' in text
        old = tmp_path / "network_enhanced.json"
        old.write_text(text.replace('"format_version": 2,', '"format_version": 1,', 1))
        assert run_cli("predict", "--network", str(old), "--d", "7", "--rtx", "6",
                       "--rrx", "6", "--D", "70") == EXIT_VALIDATION

    def test_export_bundle(self, pipeline_run, tmp_path):
        out = tmp_path / "bundle"
        code = run_cli("export", "--run", str(pipeline_run),
                       "--d", "7", "--rtx", "4", "--rrx", "8", "--D", "70",
                       "--out", str(out))
        assert code == EXIT_OK
        assert (out / "received_signal.svg").exists()
        assert (out / "sir.svg").exists()
        assert (out / "signal_simulation.csv").exists()

    def test_rerun_under_other_config_refused(self, pipeline_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(pipeline_run, run)
        before = _tree(run)
        args = ["pipeline", "--out", str(run), *PIPELINE_RUN]
        assert run_cli(*args, "--molecules", "200") == EXIT_VALIDATION
        assert _tree(run) == before
        # a manifest of another format is refused by every command that
        # reads it, before anything is written
        manifest = run / "manifest.json"
        case = ("--d", "7", "--rtx", "4", "--rrx", "8", "--D", "70")
        for version in ("2", "1.0", "true"):
            manifest.write_text(before["manifest.json"].decode().replace(
                '"format_version": 1,', f'"format_version": {version},', 1))
            other_format = _tree(run)
            for command in (args, ["evaluate", "--run", str(run)],
                            ["export", "--run", str(run), *case],
                            ["train", "--records", str(run / "records_tds_enhanced.csv"),
                             "--out", str(run)]):
                assert run_cli(*command) == EXIT_VALIDATION
                assert _tree(run) == other_format
        manifest.write_bytes(before["manifest.json"])
        assert run_cli(*args) == EXIT_OK

    @pytest.mark.parametrize("field, value", [("n_molecules", 150.7), ("n_molecules", "150"),
                                              ("dt", "0.0050"), ("seed", None)])
    def test_sim_config_that_does_not_round_trip_refused(self, pipeline_run, tmp_path,
                                                          field, value):
        run = tmp_path / "run"
        shutil.copytree(pipeline_run, run)
        manifest = json.loads((run / "manifest.json").read_text())
        if value is None:
            del manifest["sim_config"][field]
        else:
            manifest["sim_config"][field] = value
        (run / "manifest.json").write_text(json.dumps(manifest))
        before = _tree(run)
        case = ("--d", "7", "--rtx", "4", "--rrx", "8", "--D", "70")
        assert run_cli("evaluate", "--run", str(run)) == EXIT_VALIDATION
        assert run_cli("export", "--run", str(run), *case) == EXIT_VALIDATION
        assert run_cli("pipeline", "--out", str(run), *PIPELINE_RUN) == EXIT_VALIDATION
        assert _tree(run) == before

    def test_sim_config_in_another_key_order_still_read(self, pipeline_run, tmp_path):
        # manifests once listed the seed before substep_factor
        run = tmp_path / "run"
        shutil.copytree(pipeline_run, run)
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["sim_config"] = dict(reversed(manifest["sim_config"].items()))
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("evaluate", "--run", str(run)) == EXIT_OK
        assert run_cli("pipeline", "--out", str(run), *PIPELINE_RUN) == EXIT_OK

    def test_export_lists_its_files_in_the_manifest(self, pipeline_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(pipeline_run, run)
        assert run_cli("export", "--run", str(run), "--d", "7", "--rtx", "4",
                       "--rrx", "8", "--D", "70") == EXIT_OK
        assert any(run.glob("exports/case_*/*.svg"))
        assert _artifacts_match_disk(run)

    def test_evaluate_lists_its_files_in_the_manifest(self, pipeline_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(pipeline_run, run)
        shutil.rmtree(run / "evaluation")
        mcvd.pipeline.RunManifest.load(run).save(run)
        assert run_cli("evaluate", "--run", str(run)) == EXIT_OK
        assert (run / "evaluation" / "rmse_groups.csv").exists()
        assert _artifacts_match_disk(run)

    def test_export_unknown_case_exit_2(self, pipeline_run, tmp_path):
        code = run_cli("export", "--run", str(pipeline_run),
                       "--d", "99", "--rtx", "4", "--rrx", "8", "--D", "70",
                       "--out", str(tmp_path / "b"))
        assert code == EXIT_MISSING_ARTIFACT


class TestPipelineFailures:
    """A pipeline run with failed cases writes every artifact, then exits
    nonzero: 3 when a case failed numerically, else 1."""

    SMALL_RUN = ("--seed", "3", "--molecules", "50", "--replications", "1",
                 "--dt", "0.01", "--t-end", "0.2", "--hidden", "2", "--model", "primitive")
    WORKER_RUN = ("--seed", "3", "--molecules", "150", "--replications", "2",
                  "--dt", "0.005", "--t-end", "0.5", "--hidden", "4", "--model", "primitive",
                  "--workers", "2")

    def test_cases_too_sparse_to_fit_exit_1(self, tmp_path, capsys):
        # 50 molecules over 20 bins leave the far cases with too few hits to
        # fit; with both kinds such a case has one failure per kind and
        # counts once
        for model, per_case in (("primitive", 1), ("both", 2)):
            out = tmp_path / model
            code = run_cli("pipeline", "--out", str(out), *self.SMALL_RUN, "--model", model)
            assert code == EXIT_VALIDATION
            failures = json.loads((out / "manifest.json").read_text())["failures"]
            assert failures and not any(f["numeric"] for f in failures)
            cases = {(f["stage"], tuple(f["case"])) for f in failures}
            assert len(failures) == per_case * len(cases)
            assert f"error: {len(cases)} failed cases" in capsys.readouterr().err
            assert (out / "evaluation" / "rmse_groups.csv").exists()

    def test_every_training_fit_failed_exit_1(self, tmp_path, monkeypatch, capsys):
        # with no training record, training's 10-record rule stops the run
        # after phase 1 has recorded its failures and before anything of
        # phase 2 is written
        def failing(problem):
            raise ValidationError("too few hits to fit")

        monkeypatch.setattr(mcvd.pipeline, "fit", failing)
        code = run_cli("pipeline", "--out", str(tmp_path), *self.SMALL_RUN)
        assert code == EXIT_VALIDATION
        assert "error: training requires at least 10 records" in capsys.readouterr().err
        failures = json.loads((tmp_path / "manifest.json").read_text())["failures"]
        assert {f["stage"] for f in failures} == {"phase1:TDS"}
        assert len(failures) == mcvd.pipeline.reduced_grids()[0].case_count()
        assert not list(tmp_path.glob("network_*.json"))
        assert not list(tmp_path.glob("train_report_*.json"))

    @pytest.mark.parametrize("stage_fn", ["fit", "simulate_case"])
    def test_numeric_case_failure_exit_3(self, tmp_path, monkeypatch, stage_fn):
        # one validation case fails numerically, in its fit or in its simulation
        real = getattr(mcvd.pipeline, stage_fn)

        def failing_once(*args, **kwargs):
            p = args[0].params if stage_fn == "fit" else args[0]
            if (p.d, p.r_tx, p.r_rx) == (11.0, 8.0, 8.0):
                raise NumericError("non-finite residuals")
            return real(*args, **kwargs)

        monkeypatch.setattr(mcvd.pipeline, stage_fn, failing_once)
        code = run_cli("pipeline", "--out", str(tmp_path), "--seed", "3",
                       "--molecules", "150", "--replications", "2", "--dt", "0.005",
                       "--t-end", "0.5", "--hidden", "4", "--model", "primitive",
                       "--workers", "2")
        assert code == EXIT_NUMERIC
        failures = json.loads((tmp_path / "manifest.json").read_text())["failures"]
        assert [(f["stage"], f["numeric"]) for f in failures] == [("phase1:VDS", True)]

    def test_numeric_failure_in_worker_process_exit_3(self, tmp_path, monkeypatch):
        # patched before the pool forks, so the workers run the stand-in
        monkeypatch.setattr(mcvd.simulate, "_replication_hits", _hits_numeric_failure)
        code = run_cli("pipeline", "--out", str(tmp_path), *self.WORKER_RUN)
        assert code == EXIT_NUMERIC
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [(f["stage"], f["case"][:3], f["numeric"]) for f in manifest["failures"]] \
            == [("phase1:VDS", ["11", "8", "8"], True)]
        assert "non-finite positions" in manifest["failures"][0]["error"]

    # the case whose worker dies as (d, r_tx, r_rx), in floats and as the
    # manifest spells it, the number of failures expected, and whether any VDS
    # case is left to evaluate
    @pytest.mark.parametrize("bad_case, case, n_failed, evaluated", [
        # the dead worker fails its case and any case another worker had in flight
        pytest.param(BAD_CASE, ["11", "8", "8"], (1, 2), True, id="d11_rtx8_rrx8"),
        # the first VDS case: the broken pool fails all 12 before any finishes
        pytest.param((3.0, 4.0, 4.0), ["3", "4", "4"], (12, 12), False, id="d3_rtx4_rrx4"),
    ])
    def test_worker_death_fails_cases_exit_1(self, tmp_path, bad_case, case, n_failed,
                                             evaluated):
        # run in a child interpreter, so that a hang fails by the timeout
        here = Path(__file__).resolve().parent
        script = ("import sys, mcvd.cli, mcvd.simulate, test_cli; "
                  f"test_cli.BAD_CASE = {bad_case!r}; "
                  "mcvd.simulate._replication_hits = test_cli._hits_worker_dies; "
                  "sys.exit(mcvd.cli.main(sys.argv[1:]))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
        args = ["pipeline", "--out", str(tmp_path), *self.WORKER_RUN]
        proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_VALIDATION, proc.stderr
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        failures = manifest["failures"]
        assert n_failed[0] <= len(failures) <= n_failed[1]
        assert case in [f["case"][:3] for f in failures]
        assert all(f["stage"] == "phase1:VDS" and not f["numeric"]
                   and "not in a worker" not in f["error"] for f in failures)
        vds = [s for s in manifest["stages"] if s["name"] == "phase1:VDS"]
        assert vds[-1]["failed"] == len(failures)
        assert (tmp_path / "evaluation" / "rmse_groups.csv").exists() == evaluated

        # a rerun without the stand-in simulates only the failed cases
        assert run_cli(*args) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["failures"] == []
        vds = [s for s in manifest["stages"] if s["name"] == "phase1:VDS"]
        assert (vds[-1]["simulated"], vds[-1]["resumed"]) == (len(failures), 12 - len(failures))

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_worker_count_below_one_exit_1(self, tmp_path, workers):
        code = run_cli("pipeline", "--out", str(tmp_path), *self.SMALL_RUN,
                       "--workers", workers)
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "manifest.json").exists()


class TestInvalidArguments:
    @pytest.mark.parametrize("command, flag, value", [
        *[(command, "--seed", "-1") for command in ("simulate", "train", "pipeline")],
        *[(command, "--hidden", value) for command in ("train", "pipeline")
          for value in ("0", "-1")],
    ])
    def test_negative_seed_or_hidden_below_one_exit_1(self, pipeline_run, tmp_path, capsys,
                                                     command, flag, value):
        out = tmp_path / "out"
        args = {
            "simulate": ("--d", "4", "--rrx", "5", "--D", "100", "--molecules", "50",
                         "--replications", "1", "--dt", "0.01", "--t-end", "0.1",
                         "--out", str(out / "sig.csv")),
            "train": ("--records", str(pipeline_run / "records_tds_enhanced.csv"),
                      "--out", str(out)),
            "pipeline": ("--out", str(out), *TestPipelineFailures.SMALL_RUN),
        }[command]
        # the flag comes last, so it overrides the one in SMALL_RUN
        assert run_cli(command, *args, flag, value) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() or _tree(out) == {}

    def test_train_on_fewer_than_10_records_creates_nothing(self, tmp_path, capsys):
        rows = "".join(f"{d},5,5,50,primitive,1.1,,\n" for d in range(1, 6))
        path = tmp_path / "records.csv"
        path.write_text("d_um,rtx_um,rrx_um,D_um2s,kind,b1,b2,b3\n" + rows)
        out = tmp_path / "newdir"
        assert run_cli("train", "--records", str(path), "--model", "primitive",
                       "--out", str(out)) == EXIT_VALIDATION
        assert "at least 10 records" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "train", "simulate", "pipeline"])
    def test_path_of_the_wrong_kind_exit_1(self, tmp_path, capsys, command):
        # a directory where a file is read or written, a file where a run
        # directory goes
        a_dir, a_file = tmp_path / "dir", tmp_path / "file"
        a_dir.mkdir()
        a_file.write_text("")
        args = {
            "fit": ("--signal", str(a_dir), "--d", "3", "--rrx", "6", "--D", "90"),
            "train": ("--records", str(a_dir), "--out", str(tmp_path / "out")),
            "simulate": ("--d", "4", "--rrx", "5", "--D", "100", "--molecules", "50",
                         "--replications", "1", "--dt", "0.01", "--t-end", "0.1",
                         "--out", str(a_dir)),
            "pipeline": ("--out", str(a_file), *TestPipelineFailures.SMALL_RUN),
        }[command]
        assert run_cli(command, *args) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not list(tmp_path.rglob("*.tmp"))


class TestParser:
    def test_full_study_flags_supported(self):
        # the full-scale study run is one flag away, but not executed in CI
        parser = build_parser()
        args = parser.parse_args([
            "pipeline", "--out", "x", "--grid", "full",
            "--replications", "500", "--molecules", "3000",
        ])
        assert args.grid == "full"
        assert args.replications == 500


def _is_float(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


# cell contents float() rejects; no separators, so the row structure stays
NOT_A_NUMBER = st.text(st.characters(blacklist_characters=",\n\r"),
                       max_size=6).filter(lambda s: not _is_float(s))


@st.composite
def corrupted_csv(draw, text: str) -> str:
    """One data cell of a CSV artifact deleted or replaced by a non-number."""
    lines = text.rstrip("\n").split("\n")
    i = draw(st.integers(1, len(lines) - 1))
    cells = lines[i].split(",")
    j = draw(st.integers(0, len(cells) - 1))
    if draw(st.booleans()):
        del cells[j]
    else:
        cells[j] = draw(NOT_A_NUMBER)
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _numeric_leaves(obj, path=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path] if isinstance(obj, str) and _is_float(obj) else []
    return [leaf for k, v in items for leaf in _numeric_leaves(v, path + (k,))]


@st.composite
def corrupted_json(draw, text: str, keys: tuple[str, ...]) -> str:
    """A JSON artifact truncated, missing one of the keys its reader needs,
    with one of those keys holding a value of the wrong type, or with one
    number under those keys replaced by a non-number."""
    how = draw(st.sampled_from(["truncate", "drop_key", "wrong_type", "bad_number"]))
    if how == "truncate":
        # every proper prefix lacks the closing brace of the top-level object
        return text[:draw(st.integers(0, text.rindex("}") - 1))]
    data = json.loads(text)
    if how == "drop_key":
        del data[draw(st.sampled_from(keys))]
    elif how == "wrong_type":
        key = draw(st.sampled_from(keys))
        data[key] = draw(st.sampled_from(
            [v for v in (None, [], {}) if type(v) is not type(data[key])]))
    else:
        path = draw(st.sampled_from(_numeric_leaves({k: data[k] for k in keys})))
        node = data
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = draw(NOT_A_NUMBER)
    return json.dumps(data)


CORRUPTION = settings(max_examples=25, deadline=None)
# a drawn lone surrogate is written as bytes that are not UTF-8, which the
# readers must reject like any other corruption
WRITE_SURROGATES = "surrogatepass"


class TestCorruptedArtifacts:
    """A malformed artifact is a validation error (exit 1), never a traceback."""

    @given(data=st.data())
    @CORRUPTION
    def test_signal_csv(self, pipeline_run, tmp_path_factory, data):
        original = sorted((pipeline_run / "signals").glob("sig_*.csv"))[0].read_text()
        path = tmp_path_factory.mktemp("bad") / "sig.csv"
        path.write_text(data.draw(corrupted_csv(original)), encoding="utf-8",
                        errors=WRITE_SURROGATES)
        assert run_cli("fit", "--signal", str(path), "--d", "3", "--rrx", "6",
                       "--D", "90") == EXIT_VALIDATION

    @given(data=st.data())
    @CORRUPTION
    def test_records_csv(self, pipeline_run, tmp_path_factory, data):
        original = (pipeline_run / "records_tds_enhanced.csv").read_text()
        tmp = tmp_path_factory.mktemp("bad")
        (tmp / "records.csv").write_text(data.draw(corrupted_csv(original)),
                                         encoding="utf-8", errors=WRITE_SURROGATES)
        assert run_cli("train", "--records", str(tmp / "records.csv"),
                       "--out", str(tmp / "out")) == EXIT_VALIDATION

    def test_primitive_record_with_exponents(self, tmp_path):
        # ten well-formed rows, enough to train on: only the last row can fail
        rows = "".join(f"{d},5,5,50,primitive,1.1,,\n" for d in range(1, 11))
        path = tmp_path / "records.csv"
        path.write_text("d_um,rtx_um,rrx_um,D_um2s,kind,b1,b2,b3\n" + rows
                        + "11,5,5,50,primitive,1.1,0.5,0.5\n")
        assert run_cli("train", "--records", str(path), "--model", "primitive",
                       "--out", str(tmp_path / "out")) == EXIT_VALIDATION
        assert not (tmp_path / "out").exists()

    @given(data=st.data())
    @CORRUPTION
    def test_network_json(self, pipeline_run, tmp_path_factory, data):
        original = (pipeline_run / "network_enhanced.json").read_text()
        keys = ("format_version", "kind", "w1", "b1", "w2", "b2",
                "in_min", "in_max", "out_min", "out_max")
        path = tmp_path_factory.mktemp("bad") / "net.json"
        path.write_text(data.draw(corrupted_json(original, keys)))
        assert run_cli("predict", "--network", str(path), "--d", "7", "--rtx", "6",
                       "--rrx", "6", "--D", "70") == EXIT_VALIDATION

    @given(data=st.data())
    @CORRUPTION
    def test_manifest_json(self, pipeline_run, tmp_path_factory, data):
        original = (pipeline_run / "manifest.json").read_text()
        keys = ("format_version", "sim_config", "stages", "failures")
        run = tmp_path_factory.mktemp("bad")
        (run / "manifest.json").write_text(data.draw(corrupted_json(original, keys)))
        assert run_cli("evaluate", "--run", str(run)) == EXIT_VALIDATION

    def test_manifest_failure_that_is_not_an_object(self, pipeline_run, tmp_path):
        # a resumed phase 1 filters the failures by stage before it runs
        manifest = json.loads((pipeline_run / "manifest.json").read_text())
        manifest["failures"] = ["phase1:TDS"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("pipeline", "--out", str(tmp_path), *TestPipelineFailures.SMALL_RUN) \
            == EXIT_VALIDATION

    @pytest.mark.parametrize("failure", [{"stage": "foo"}, {"case": ["4", "0", "5", "100"]},
                                         {"stage": 1, "case": ["4", "0", "5", "100"]},
                                         {"stage": "foo", "case": "4,0,5,100"},
                                         {"stage": "foo", "case": [["4"]]}])
    def test_manifest_failure_without_stage_or_case(self, pipeline_run, tmp_path, capsys,
                                                    failure):
        # the pipeline reads the failures of another stage only after the
        # whole run, to report them
        run = tmp_path / "run"
        shutil.copytree(pipeline_run, run)
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["failures"] = [failure]
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("pipeline", "--out", str(run), *PIPELINE_RUN) == EXIT_VALIDATION
        assert "lists a failure" in capsys.readouterr().err
        assert run_cli("evaluate", "--run", str(run)) == EXIT_VALIDATION
