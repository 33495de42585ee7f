"""End-to-end orchestration: parameter grids, simulation + fitting (phase 1),
network training (phase 2), prediction, and file persistence.

Every run lives in its own directory under a single manifest. One writer and
one reader here serve every artifact: CSV tables (signals and export series
`time_s,<column>`, case records `d_um,rtx_um,rrx_um,D_um2s,kind,b1,b2,b3`)
and JSON documents (networks, training reports, the manifest), whose
`format_version` every reader checks: `NETWORK_FORMAT_VERSION` for networks,
whose enhanced kind learns in similarity coordinates since version 2, and
`FORMAT_VERSION` for the rest.
All floats are serialized with 17 significant digits so artifacts round-trip
bit-exactly; files are committed atomically (write temp, rename; a failed
write deletes its temp file), and a write creates its file's missing
directories, so no caller makes one. Phase 1 writes each case's signal as
the case finishes in grid order, so an interrupt loses only the cases in
flight and the stage's records; a rerun recognizes every signal on disk by
a content hash of its parameters, the configuration and the simulator
version, and reads it instead of simulating again. Fits are not persisted per case; a
rerun fits every case again, which is deterministic.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Iterable, Iterator, Sequence
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .fitting import FitProblem, fit
from .network import CaseRecord, Network, TrainReport, forward, train
from .simulate import (
    SIM_VERSION,
    SimConfig,
    case_seed,
    process_pool,
    simulate_case,
    simulate_cases,
)
from .types import (
    MissingArtifactError,
    ModelKind,
    ModelParams,
    NumericError,
    Provenance,
    ReceivedSignal,
    SystemParams,
    TimeGrid,
    ValidationError,
)

__all__ = [
    "ParameterGrid",
    "RunManifest",
    "study_grids",
    "reduced_grids",
    "run_phase1",
    "run_phase2",
    "predict_vds",
    "write_signal_csv",
    "read_signal_csv",
    "write_records_csv",
    "read_records_csv",
    "save_network",
    "load_network",
    "case_key",
    "signal_path",
    "run_config",
]

FORMAT_VERSION = 1
NETWORK_FORMAT_VERSION = 2


def _fmt(x: float) -> str:
    """17 significant digits: lossless for IEEE doubles."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ParameterGrid:
    distances: tuple[float, ...]
    tx_radii: tuple[float, ...]
    diff_coeffs: tuple[float, ...]
    rx_radii: tuple[float, ...]
    label: Provenance

    def case_count(self) -> int:
        return (len(self.distances) * len(self.tx_radii)
                * len(self.diff_coeffs) * len(self.rx_radii))

    def cases(self) -> list[SystemParams]:
        """Cartesian product in d, r_tx, D, r_rx order."""
        return [
            SystemParams(d=d, r_tx=rtx, r_rx=rrx, diff_coeff=dc)
            for d in self.distances
            for rtx in self.tx_radii
            for dc in self.diff_coeffs
            for rrx in self.rx_radii
        ]


def study_grids() -> tuple[ParameterGrid, ParameterGrid]:
    """The training and validation parameter grids (135 cases each)."""
    tds = ParameterGrid((2.0, 4.0, 6.0, 8.0, 10.0), (5.0, 7.5, 10.0), (50.0, 75.0, 100.0),
                        (5.0, 7.5, 10.0), Provenance.TDS)
    vds = ParameterGrid((3.0, 5.0, 7.0, 9.0, 11.0), (4.0, 6.0, 8.0), (60.0, 70.0, 80.0),
                        (4.0, 6.0, 8.0), Provenance.VDS)
    return tds, vds


def reduced_grids() -> tuple[ParameterGrid, ParameterGrid]:
    """Desk-scale subsets of the full grids: 60 training cases spanning every
    distance, 12 validation cases spanning three distances and both receiver
    radii extremes."""
    tds = ParameterGrid((2.0, 4.0, 6.0, 8.0, 10.0), (5.0, 10.0), (50.0, 100.0),
                        (5.0, 7.5, 10.0), Provenance.TDS)
    vds = ParameterGrid((3.0, 7.0, 11.0), (4.0, 8.0), (70.0,), (4.0, 8.0),
                        Provenance.VDS)
    return tds, vds


# ---------------------------------------------------------------------------
# serialization


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        tmp.write_text(data, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_text(path: Path) -> str:
    if not path.exists():
        raise MissingArtifactError(str(path))
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc


def _write_csv(path: Path, header: str, rows: Iterable[Sequence[str]]) -> None:
    """A header line, then one line of comma-separated cells per row."""
    lines = [header, *(",".join(cells) for cells in rows)]
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def _read_csv(path: Path, header: str) -> list[list[str]]:
    """The cells of every row after the header line, which must be ``header``."""
    lines = _read_text(path).strip().split("\n")
    if lines[0] != header:
        raise ValidationError(f"unexpected CSV header in {path}: expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def _write_series(path: Path, column: str, times: np.ndarray, values: np.ndarray) -> None:
    """A time series: ``time_s,<column>``, one row per bin."""
    _write_csv(path, f"time_s,{column}", ((_fmt(t), _fmt(v)) for t, v in zip(times, values)))


def _write_json(path: Path, version: int, payload: dict) -> None:
    """A JSON artifact: ``format_version`` first, then ``payload``'s keys."""
    _atomic_write(Path(path), json.dumps({"format_version": version, **payload},
                                         indent=1) + "\n")


def _read_json(path: Path, version: int) -> dict:
    """A JSON artifact's object; any ``format_version`` but ``version`` is refused."""
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} does not hold a JSON object")
    found = data.get("format_version")
    if type(found) is not int or found != version:  # also refuses true and 1.0
        raise ValidationError(f"unsupported format_version {found!r} in {path}; "
                              f"this version reads {version}")
    return data


def write_signal_csv(sig: ReceivedSignal, path: Path) -> None:
    _write_series(path, "cumulative_fraction", sig.grid.times(), sig.cumulative_fraction)


def read_signal_csv(path: Path) -> ReceivedSignal:
    path = Path(path)
    rows = _read_csv(path, "time_s,cumulative_fraction")
    if not rows:
        raise ValidationError(f"no signal rows in {path}")
    try:
        times = np.array([float(t) for t, _v in rows])
        values = np.array([float(v) for _t, v in rows])
    except ValueError as exc:
        raise ValidationError(f"malformed signal row in {path}: {exc}") from exc
    grid = TimeGrid(dt=times[0], t_end=times[-1])
    if times.size != grid.n_bins or not np.all(np.abs(times - grid.times()) <= 1e-9 * grid.t_end):
        raise ValidationError(f"signal times in {path} are not evenly spaced")
    return ReceivedSignal(grid, values)


_RECORDS_HEADER = "d_um,rtx_um,rrx_um,D_um2s,kind,b1,b2,b3"


def write_records_csv(records: list[CaseRecord], path: Path) -> None:
    # a primitive row leaves its b2 and b3 cells empty
    _write_csv(path, _RECORDS_HEADER, (
        [*map(_fmt, (r.input.d, r.input.r_tx, r.input.r_rx, r.input.diff_coeff)),
         r.output.kind.value, _fmt(r.output.b1),
         *("" if b is None else _fmt(b) for b in (r.output.b2, r.output.b3))]
        for r in records))


def read_records_csv(path: Path, provenance: Provenance) -> list[CaseRecord]:
    path = Path(path)
    records = []
    for row in _read_csv(path, _RECORDS_HEADER):
        try:
            d, rtx, rrx, dc, kind, b1, b2, b3 = row
            params = SystemParams(d=float(d), r_tx=float(rtx), r_rx=float(rrx),
                                  diff_coeff=float(dc))
            # empty exponents are None, so ModelParams rejects a primitive row
            # that carries them and an enhanced row that lacks them
            model = ModelParams(ModelKind(kind), float(b1), float(b2) if b2 else None,
                                float(b3) if b3 else None)
        except ValueError as exc:
            raise ValidationError(f"malformed record row {row} in {path}: {exc}") from exc
        records.append(CaseRecord(params, model, provenance))
    return records


# the arrays of a network document, in the order it lists them after the
# kind: matrices as lists of rows, vectors as lists; the layer sizes are
# their shapes
_NETWORK_ARRAYS = ("w1", "b1", "w2", "b2", "in_min", "in_max", "out_min", "out_max")


def save_network(net: Network, path: Path) -> None:
    _write_json(path, NETWORK_FORMAT_VERSION, {
        "kind": net.kind.value,
        **{name: [[_fmt(v) for v in row] if np.ndim(row) else _fmt(row)
                  for row in getattr(net, name)] for name in _NETWORK_ARRAYS},
    })


def load_network(path: Path) -> Network:
    """A saved network. Every weight is read with ``float``, so a ``null``
    or a non-numeric entry is refused, as are weights whose shapes do not
    fit the network's kind."""
    path = Path(path)
    data = _read_json(path, NETWORK_FORMAT_VERSION)
    try:
        return Network(ModelKind(data["kind"]), **{
            name: np.array([[float(v) for v in row] if isinstance(row, list) else float(row)
                            for row in data[name]])
            for name in _NETWORK_ARRAYS})
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network in {path}: {exc!r}") from exc


def case_key(p: SystemParams, cfg: SimConfig) -> str:
    """Content hash identifying one simulated case under one configuration
    and one simulator version."""
    key = "|".join([f"sim{SIM_VERSION}", _fmt(p.d), _fmt(p.r_tx), _fmt(p.r_rx),
                    _fmt(p.diff_coeff), *map(str, _sim_config_dict(cfg).values())])
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def signal_path(run_dir: Path, p: SystemParams, cfg: SimConfig) -> Path:
    """Where a run directory keeps the signal of one simulated case."""
    return Path(run_dir) / "signals" / f"sig_{case_key(p, cfg)}.csv"


# ---------------------------------------------------------------------------
# manifest


@dataclass
class RunManifest:
    """A run directory's simulation configuration, stage log and per-case
    failures; each save also lists the files the directory holds."""
    sim_config: dict
    stages: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @staticmethod
    def path_in(out_dir: Path) -> Path:
        return Path(out_dir) / "manifest.json"

    def add_stage(self, name: str, duration_s: float, simulated: int = 0,
                  resumed: int = 0, failed: int = 0) -> None:
        """Record a finished stage: its wall time and how many cases it
        simulated, read back from an earlier run, and failed."""
        self.stages.append({
            "name": name,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "duration_s": round(duration_s, 3),
            "simulated": simulated, "resumed": resumed, "failed": failed,
        })

    def save(self, out_dir: Path) -> None:
        """Write the manifest. Its ``artifacts`` list every other file under
        ``out_dir`` as of this save: relative POSIX paths, sorted."""
        files = [(Path(root) / name).relative_to(out_dir).as_posix()
                 for root, _dirs, names in os.walk(out_dir) for name in names]
        _write_json(self.path_in(out_dir), FORMAT_VERSION, {
            "sim_config": self.sim_config,
            "stages": self.stages,
            "artifacts": sorted(f for f in files if f != "manifest.json"),
            "failures": self.failures,
        })

    @staticmethod
    def load(out_dir: Path) -> "RunManifest":
        path = RunManifest.path_in(out_dir)
        data = _read_json(path, FORMAT_VERSION)
        fields = {"sim_config": dict, "stages": list, "failures": list}
        for name, kind in fields.items():
            if not isinstance(data.get(name), kind):
                raise ValidationError(f"manifest {path} lacks a {kind.__name__} {name!r}")
        for f in data["failures"]:
            if not (isinstance(f, dict) and isinstance(f.get("stage"), str)
                    and isinstance(f.get("case"), list)
                    and all(isinstance(cell, str) for cell in f["case"])):
                raise ValidationError(f"manifest {path} lists a failure {f!r} that lacks "
                                      "a 'stage' string or a 'case' list of strings")
        return RunManifest(**{name: data[name] for name in fields})


def _sim_config_dict(cfg: SimConfig) -> dict:
    return {
        "n_molecules": cfg.n_molecules,
        "n_replications": cfg.n_replications,
        "dt": _fmt(cfg.grid.dt),
        "t_end": _fmt(cfg.grid.t_end),
        "substep_factor": cfg.substep_factor,
        "seed": cfg.seed,
    }


def _same_record(a: dict, b: dict) -> bool:
    """Whether two records are the same JSON in any key order: 1, 1.0 and true differ."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def run_config(run_dir: Path) -> SimConfig:
    """The simulation configuration recorded in a run directory's manifest,
    which must be the record ``run_phase1`` writes for it."""
    sc = RunManifest.load(run_dir).sim_config
    try:
        cfg = SimConfig(n_molecules=int(sc["n_molecules"]),
                        n_replications=int(sc["n_replications"]),
                        grid=TimeGrid(float(sc["dt"]), float(sc["t_end"])),
                        seed=int(sc["seed"]), substep_factor=int(sc["substep_factor"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed sim_config in the manifest of {run_dir}: {exc!r}") from exc
    if not _same_record(_sim_config_dict(cfg), sc):
        raise ValidationError(f"malformed sim_config in the manifest of {run_dir}: {sc}")
    return cfg


def _load_or_create_manifest(out_dir: Path, sim_config: dict) -> RunManifest:
    try:
        return RunManifest.load(out_dir)
    except MissingArtifactError:
        return RunManifest(sim_config=sim_config)


# ---------------------------------------------------------------------------
# pipeline stages


def run_phase1(grid: ParameterGrid, cfg: SimConfig, kinds: Sequence[ModelKind],
               out_dir: Path, n_workers: int = 1) -> list[CaseRecord]:
    """Simulate every grid case once and fit each of ``kinds`` to its signal;
    persist the signals and one ``records_<label>_<kind>.csv`` per kind.
    The records are returned kind by kind, each kind's in grid order.

    A case whose signal file exists (same parameters, configuration and
    simulator version) is read instead of simulated; every case is fitted
    again, so a resumed run reuses the simulations and rewrites the records.

    With one worker, every replication of every fresh case is a task of
    one kernel batch in the calling thread (``simulate_cases``), in grid
    order. With ``n_workers > 1`` and at least one case to simulate, up to
    that many threads read or simulate the cases, one pool task per
    replication, and the kernels run in one pool of
    ``min(n_workers, fresh cases)`` worker processes, opened for this call
    and started before any thread, so no process forks while threads run.
    A grid read back whole opens neither. The calling thread takes the
    cases in grid order: it writes each fresh signal as soon as its case is
    done, then fits the case, and reads each resumed case from disk in
    between. A case that fails does not stop the rest of the grid: the
    manifest's failures record it under the stage ``phase1:<label>``, once
    per kind whose fit failed or once if its signal did, replacing the
    stage's entries from an earlier run. A worker that dies breaks the
    pool, and an exception raised in the one-worker batch ends the batch;
    in both cases every case not yet done fails, and the signals already
    written stay. An exception that leaves the loop, such as an interrupt,
    cancels the cases not yet started and writes no records or manifest.
    Either way a rerun in the same directory reads the signals on disk and
    simulates only the rest.
    The manifest records the stage's duration and case counts. A run
    directory holds one simulation configuration: a manifest that records
    another is refused before anything is written.
    """
    if n_workers < 1:
        raise ValidationError("n_workers must be >= 1")
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    records: dict[ModelKind, list[CaseRecord]] = {ModelKind(k): [] for k in kinds}
    stage = f"phase1:{grid.label.value}"
    sim_config = _sim_config_dict(cfg)
    manifest = _load_or_create_manifest(out_dir, sim_config)
    # an empty configuration comes from a run that only trained a network
    if manifest.sim_config and not _same_record(manifest.sim_config, sim_config):
        raise ValidationError(f"{out_dir} holds a run under another simulation "
                              f"configuration: {manifest.sim_config}")
    manifest.sim_config = sim_config
    manifest.failures = [f for f in manifest.failures if f["stage"] != stage]
    cases = grid.cases()
    paths = [signal_path(out_dir, p, cfg) for p in cases]
    fresh = [not path.exists() for path in paths]
    simulated = resumed = 0

    with ExitStack() as stack:
        pool, dispatch = None, map
        if n_workers > 1 and any(fresh):
            pool = stack.enter_context(process_pool(min(n_workers, sum(fresh))))
            # with fork, the first task starts every worker process
            pool.submit(int).result()
            threads = ThreadPoolExecutor(max_workers=min(n_workers, len(cases)))
            # leaving the loop early cancels the cases no thread has started
            stack.callback(threads.shutdown, cancel_futures=True)
            dispatch = threads.map
        else:
            batch = _in_process(simulate_cases([(p, case_seed(cfg.seed, p)) for p, is_new
                                                in zip(cases, fresh) if is_new], cfg))

        def load_or_simulate(i: int) -> ReceivedSignal | Exception:
            try:
                if not fresh[i]:
                    return read_signal_csv(paths[i])
                if pool is None:
                    return next(batch)
                return simulate_case(cases[i], replace(cfg, seed=case_seed(cfg.seed, cases[i])),
                                     pool=pool)
            except Exception as exc:  # recorded below; the other cases go on
                return exc

        for p, path, is_new, outcome in zip(cases, paths, fresh,
                                            dispatch(load_or_simulate, range(len(cases)))):
            errors = []
            if not isinstance(outcome, ReceivedSignal):
                errors.append((str(outcome), outcome))
            else:
                if is_new:
                    write_signal_csv(outcome, path)
                simulated += is_new
                resumed += not is_new
                for kind, recs in records.items():
                    try:
                        recs.append(
                            CaseRecord(p, fit(FitProblem(p, outcome, kind)).model, grid.label))
                    except Exception as exc:
                        errors.append((f"{kind.value} fit: {exc}", exc))
            manifest.failures.extend({
                "stage": stage,
                "case": [_fmt(p.d), _fmt(p.r_tx), _fmt(p.r_rx), _fmt(p.diff_coeff)],
                "error": message,
                "numeric": isinstance(exc, NumericError),
            } for message, exc in errors)

    for kind, recs in records.items():
        write_records_csv(recs, out_dir / f"records_{grid.label.value.lower()}_{kind.value}.csv")
    manifest.add_stage(stage, time.perf_counter() - t0, simulated=simulated, resumed=resumed,
                       failed=len({tuple(f["case"]) for f in manifest.failures
                                   if f["stage"] == stage}))
    manifest.save(out_dir)
    return [r for recs in records.values() for r in recs]


def _in_process(signals: Iterator[ReceivedSignal]) -> Iterator[ReceivedSignal | Exception]:
    """The signals of a batch in order; once the batch raises an exception,
    that exception in place of every signal left."""
    try:
        yield from signals
    except Exception as exc:
        while True:
            yield exc


def run_phase2(tds: list[CaseRecord], hidden: int, seed: int,
               out_dir: Path) -> tuple[Network, TrainReport]:
    """Train a network on phase-1 records and persist it with its report,
    which holds the report's fields in order, each float with ``_fmt``.
    ``train`` refuses fewer than 10 records before anything is created."""
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    net, report = train(tds, hidden=hidden, seed=seed)
    manifest = _load_or_create_manifest(out_dir, {})
    save_network(net, out_dir / f"network_{net.kind.value}.json")
    _write_json(out_dir / f"train_report_{net.kind.value}.json", FORMAT_VERSION,
                {name: _fmt(v) if isinstance(v, float) else v
                 for name, v in asdict(report).items()})
    manifest.add_stage(f"phase2:{net.kind.value}", time.perf_counter() - t0)
    manifest.save(out_dir)
    return net, report


def predict_vds(net: Network, vds_inputs: list[SystemParams]) -> list[CaseRecord]:
    """Predict coefficients from system parameters alone (no simulation data
    enters: the operation takes nothing else)."""
    return [CaseRecord(p, forward(net, p), Provenance.ANN_PREDICTION)
            for p in vds_inputs]
