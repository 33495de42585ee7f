"""The two workloads of the mcvd benchmark.

Every workload is a closed loop with one caller in one process: the next
operation starts when the previous one returns. The seed given to the
benchmark is the only source of inputs.

- study-cold: one ``mcvd pipeline`` invocation (reduced grid, both models,
  2 workers) into an empty directory. Simulation dominates, then fitting.
- predict-bulk: channel responses from physical parameters with the two
  networks trained at set-up: ``predict_vds``, ``sample_model`` and
  ``sir_curve`` per case and kind, then ``write_records_csv``. Curve
  sampling dominates; nothing is simulated or fitted.

Set-up is repeated ``setup_repeats`` times per run and must give identical
artifacts each time. For study-cold it is the start of a fresh interpreter
that imports the package, the part of a cold run that happens before any
study work.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mcvd.channel
import mcvd.cli
import mcvd.pipeline
from mcvd.fitting import default_bounds
from mcvd.types import ModelKind, Provenance, SystemParams, TimeGrid

import fidelity

MOLECULES = 1000        # desk scale: ~70 ms per simulated case on a 2-core Xeon
REPLICATIONS = 1
COLD_WORKERS = min(2, len(os.sched_getaffinity(0)))
PREDICT_BATCH = 250     # cases per timed operation; each case runs both kinds
PREDICT_STUDY_SEED = 0  # the study that trains the served networks
GRID = TimeGrid(1e-3, 1.0)

# parameter ranges of predict-bulk: the union of the TDS and VDS ranges and a
# little beyond, so some inputs make the networks extrapolate
PREDICT_RANGES = {"d": (1.5, 12.0), "r_tx": (0.0, 11.0), "r_rx": (3.5, 11.0),
                  "diff_coeff": (45.0, 110.0)}


@dataclass
class OpOutcome:
    run_dir: Path
    wall_s: float
    cases: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    files_written: int = 0
    bytes_written: int = 0


def tree_digest(root: Path, skip: frozenset = frozenset({"manifest.json"})) -> str:
    """sha256 over every file's relative path and bytes, in path order. The
    manifest is skipped: it holds timestamps."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if rel in skip:
            continue
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _study_argv(grid: str, workers: int, seed: int, out: Path) -> list[str]:
    return ["pipeline", "--grid", grid, "--model", "both", "--workers", str(workers),
            "--seed", str(seed), "--replications", str(REPLICATIONS),
            "--molecules", str(MOLECULES), "--out", str(out)]


def _run_cli(argv: list[str]) -> int:
    """Run the command in-process; its progress lines are not ours to print.
    ``mcvd.cli.main`` is looked up at call time so a traced run sees it."""
    with contextlib.redirect_stdout(io.StringIO()):
        return mcvd.cli.main(argv)


def _study_cases() -> int:
    tds, vds = mcvd.pipeline.reduced_grids()
    return (tds.case_count() + vds.case_count()) * len(ModelKind)


def _coefficient_problems(records) -> list[str]:
    problems = []
    for rec in records:
        c = rec.output.coefficients()
        lo, hi = np.array(default_bounds(rec.output.kind)).T
        if not (np.all(np.isfinite(c)) and np.all(c >= lo) and np.all(c <= hi)):
            problems.append(f"prediction {c.tolist()} for {rec.input} outside the fitter bounds")
    return problems


def _check_study(run_dir: Path, rc: int) -> tuple[list[str], int, int]:
    """Output checks of one pipeline run: (problems, cases, failed cases)."""
    cases = _study_cases()
    if rc != 0:
        return [f"pipeline exited with code {rc}"], cases, cases
    problems = []
    tds, vds = mcvd.pipeline.reduced_grids()
    found = 0
    for kind in ModelKind:
        for label, grid, prov in (("tds", tds, Provenance.TDS), ("vds", vds, Provenance.VDS)):
            recs = mcvd.pipeline.read_records_csv(
                run_dir / f"records_{label}_{kind.value}.csv", prov)
            found += len(recs)
            if len(recs) != grid.case_count():
                problems.append(f"{len(recs)} {label} {kind.value} records, "
                                f"expected {grid.case_count()}")
        preds = mcvd.pipeline.read_records_csv(
            run_dir / f"predictions_{kind.value}.csv", Provenance.ANN_PREDICTION)
        if len(preds) != vds.case_count():
            problems.append(f"{len(preds)} {kind.value} predictions, "
                            f"expected {vds.case_count()}")
        problems += _coefficient_problems(preds)
    failures = mcvd.pipeline.RunManifest.load(run_dir).failures
    if failures:
        problems.append(f"manifest lists {len(failures)} failed cases")
    failed = max(len(failures), cases - found)
    return problems, cases, (cases if problems and failed == 0 else min(failed, cases))


class Workload:
    name = ""
    # span names that must record calls in a traced operation
    required_spans: tuple[str, ...] = ()
    # span names that must record no calls (a skipped layer must stay skipped)
    forbidden_spans: tuple[str, ...] = ()
    setup_repeats = 2

    def __init__(self, work: Path, seed: int) -> None:
        self.work = Path(work)
        self.seed = seed
        self._ops = 0

    def setup_once(self, target: Path) -> str:
        """Build the fixture in ``target``; returns its digest."""
        raise NotImplementedError

    def setup(self) -> list[float]:
        """Set up ``setup_repeats`` times; keep the last fixture. Returns the
        durations; raises if the fixtures differ."""
        durations, digests = [], []
        for k in range(self.setup_repeats):
            target = self.work / f"setup-{k}"
            t0 = time.perf_counter()
            digests.append(self.setup_once(target))
            durations.append(time.perf_counter() - t0)
            if k + 1 < self.setup_repeats:
                shutil.rmtree(target, ignore_errors=True)
        if len(set(digests)) != 1:
            raise RuntimeError(f"{self.name}: set-up is not deterministic: {digests}")
        self.fixture = self.work / f"setup-{self.setup_repeats - 1}"
        return durations

    def fidelity(self, run_dir: Path) -> dict[str, float]:
        """Accuracy figures of the outputs this workload produced or serves."""
        raise NotImplementedError

    def operation(self, run_dir: Path):
        """The timed operation, writing into the empty directory run_dir."""
        raise NotImplementedError

    def check(self, run_dir: Path, result) -> tuple[list[str], int, int]:
        """Untimed output checks: (problems, cases attempted, cases failed)."""
        raise NotImplementedError

    def run_op(self) -> OpOutcome:
        run_dir = self.work / f"op-{self._ops}"
        self._ops += 1
        run_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            result = self.operation(run_dir)
            error = None
        except Exception as exc:   # an operation that raises counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if error is None:
            problems, cases, failed = self.check(run_dir, result)
        else:
            problems, cases, failed = [error], self.cases_per_op, self.cases_per_op
        written = [p for p in run_dir.rglob("*") if p.is_file()]
        return OpOutcome(
            run_dir=run_dir, wall_s=wall, cases=cases, failed=failed,
            digest=tree_digest(run_dir) if error is None else "",
            problems=problems, files_written=len(written),
            bytes_written=sum(p.stat().st_size for p in written))


class StudyCold(Workload):
    name = "study-cold"
    cases_per_op = _study_cases()
    required_spans = (
        "cli.main", "pipeline.run_phase1", "pipeline.run_phase2", "pipeline.predict_vds",
        "simulate.simulate_case", "fitting.fit", "channel.erfc", "network.train",
        "network.forward", "analysis.evaluate_vds", "analysis.rmse",
        "channel.sample_model", "channel.sample_point_formula",
        "pipeline.read_signal_csv", "pipeline.write_signal_csv",
        "pipeline.write_records_csv", "pipeline.save_network", "analysis.write_groups_csv",
    )
    setup_repeats = 3    # cheap: a fresh interpreter each time

    def setup_once(self, target: Path) -> str:
        # a fresh interpreter importing the package: what every cold run pays
        # before it can start; the study itself needs no fixture
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        # no timeout: a wait with one polls in steps of up to 50 ms, which
        # would quantize the figure
        subprocess.run([sys.executable, "-c", "import mcvd.cli"], env=env, check=True)
        return ""

    def operation(self, run_dir: Path) -> int:
        return _run_cli(_study_argv("reduced", COLD_WORKERS, self.seed, run_dir))

    def check(self, run_dir: Path, rc: int):
        return _check_study(run_dir, rc)

    def fidelity(self, run_dir: Path) -> dict[str, float]:
        return fidelity.study_metrics(run_dir)


class PredictBulk(Workload):
    name = "predict-bulk"
    cases_per_op = PREDICT_BATCH * len(ModelKind)
    required_spans = (
        "pipeline.load_network", "pipeline.predict_vds", "network.forward",
        "channel.sample_model", "channel.erfc", "channel.sir_curve",
        "pipeline.write_records_csv",
    )
    forbidden_spans = ("simulate.simulate_case", "fitting.fit", "network.train")

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        rng = np.random.default_rng(seed)
        cols = {k: rng.uniform(lo, hi, PREDICT_BATCH) for k, (lo, hi) in PREDICT_RANGES.items()}
        self.batch = [SystemParams(**{k: float(v[i]) for k, v in cols.items()})
                      for i in range(PREDICT_BATCH)]

    def setup_once(self, target: Path) -> str:
        """Train the two networks: a full reduced study with one worker. The
        study seed is fixed; the workload seed only draws the parameters."""
        rc = _run_cli(_study_argv("reduced", 1, PREDICT_STUDY_SEED, target))
        if rc != 0:
            raise RuntimeError(f"predict-bulk set-up: pipeline exited with code {rc}")
        return tree_digest(target)

    def operation(self, run_dir: Path) -> list[str]:
        nets = [mcvd.pipeline.load_network(self.fixture / f"network_{k.value}.json")
                for k in ModelKind]
        records, bad_responses = [], []
        for p in self.batch:
            for net in nets:
                rec = mcvd.pipeline.predict_vds(net, [p])[0]
                curve = mcvd.channel.sample_model(p, rec.output, GRID)
                sir = mcvd.channel.sir_curve(curve)
                if np.isnan(sir).any() or not np.all(np.isfinite(curve.cumulative_fraction)):
                    bad_responses.append(f"non-finite response for {p} ({net.kind.value})")
                records.append(rec)
        mcvd.pipeline.write_records_csv(records, run_dir / "predictions.csv")
        return bad_responses

    def check(self, run_dir: Path, bad_responses: list[str]):
        problems = list(bad_responses)
        recs = mcvd.pipeline.read_records_csv(run_dir / "predictions.csv",
                                              Provenance.ANN_PREDICTION)
        if len(recs) != self.cases_per_op:
            problems.append(f"{len(recs)} predictions written, expected {self.cases_per_op}")
        bad = _coefficient_problems(recs)
        failed = len(bad) + len(bad_responses)
        problems += bad
        if problems and failed == 0:
            failed = self.cases_per_op
        return problems, self.cases_per_op, min(failed, self.cases_per_op)

    def fidelity(self, run_dir: Path) -> dict[str, float]:
        # the accuracy of the networks this workload serves, on the VDS cases
        # of the study that trained them
        return fidelity.study_metrics(self.fixture)


WORKLOADS = {w.name: w for w in (StudyCold, PredictBulk)}
