"""End-to-end orchestration: parameter grids, simulation + fitting (phase 1),
network training (phase 2), prediction, and file persistence.

Every run lives in its own directory under a single manifest. Signals are
CSV (`time_s,cumulative_fraction`), case records are CSV
(`d_um,rtx_um,rrx_um,D_um2s,kind,b1,b2,b3`), networks are versioned JSON.
All floats are serialized with 17 significant digits so artifacts round-trip
bit-exactly; files are committed atomically (write temp, rename) which makes
interrupted runs resumable: the signal of an already-simulated case is
recognized by a content hash of its parameters, the configuration and the
simulator version, and read instead of simulated again. Fits are not
persisted per case; a rerun fits every case again, which is deterministic.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fitting import default_problem, fit
from .network import N_INPUTS, CaseRecord, Network, TrainReport, forward, train
from .simulate import SIM_VERSION, SimConfig, case_seed, process_pool, simulate_case
from .types import (
    MissingArtifactError,
    ModelKind,
    ModelParams,
    NumericError,
    Provenance,
    ReceivedSignal,
    Source,
    SystemParams,
    TimeGrid,
    ValidationError,
)

__all__ = [
    "ParameterGrid",
    "RunManifest",
    "study_grids",
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
]

FORMAT_VERSION = 1

TDS_DISTANCES = (2.0, 4.0, 6.0, 8.0, 10.0)
VDS_DISTANCES = (3.0, 5.0, 7.0, 9.0, 11.0)
TDS_TX_RADII = (5.0, 7.5, 10.0)
VDS_TX_RADII = (4.0, 6.0, 8.0)
TDS_DIFF_COEFFS = (50.0, 75.0, 100.0)
VDS_DIFF_COEFFS = (60.0, 70.0, 80.0)
TDS_RX_RADII = (5.0, 7.5, 10.0)
VDS_RX_RADII = (4.0, 6.0, 8.0)


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", Provenance(self.label))

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

    def content_hash(self) -> str:
        key = json.dumps({
            "distances": self.distances, "tx_radii": self.tx_radii,
            "diff_coeffs": self.diff_coeffs, "rx_radii": self.rx_radii,
            "label": self.label.value,
        }, sort_keys=True)
        return hashlib.sha256(key.encode()).hexdigest()[:16]


def study_grids() -> tuple[ParameterGrid, ParameterGrid]:
    """The training and validation parameter grids (135 cases each)."""
    tds = ParameterGrid(TDS_DISTANCES, TDS_TX_RADII, TDS_DIFF_COEFFS,
                        TDS_RX_RADII, Provenance.TDS)
    vds = ParameterGrid(VDS_DISTANCES, VDS_TX_RADII, VDS_DIFF_COEFFS,
                        VDS_RX_RADII, Provenance.VDS)
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
    tmp.write_text(data, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _read_text(path: Path) -> str:
    if not path.exists():
        raise MissingArtifactError(str(path))
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_json(path: Path) -> dict:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path} does not hold a JSON object")
    return data


def signal_csv_text(sig: ReceivedSignal) -> str:
    lines = ["time_s,cumulative_fraction"]
    times = sig.grid.times()
    for t, v in zip(times, sig.cumulative_fraction):
        lines.append(f"{_fmt(t)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def write_signal_csv(sig: ReceivedSignal, path: Path) -> None:
    _atomic_write(Path(path), signal_csv_text(sig))


def read_signal_csv(path: Path, source: Source = Source.SIMULATION) -> ReceivedSignal:
    path = Path(path)
    rows = _read_text(path).strip().split("\n")
    if rows[0] != "time_s,cumulative_fraction":
        raise ValidationError(f"unexpected signal CSV header in {path}")
    if len(rows) < 2:
        raise ValidationError(f"no signal rows in {path}")
    times = []
    values = []
    for row in rows[1:]:
        try:
            t_str, v_str = row.split(",")
            times.append(float(t_str))
            values.append(float(v_str))
        except ValueError as exc:
            raise ValidationError(f"malformed signal row {row!r} in {path}: {exc}") from exc
    times = np.asarray(times)
    grid = TimeGrid(dt=times[0], t_end=times[-1])
    if times.size != grid.n_bins or not np.all(np.abs(times - grid.times()) <= 1e-9 * grid.t_end):
        raise ValidationError(f"signal times in {path} are not evenly spaced")
    return ReceivedSignal(grid, np.asarray(values), source)


def _record_row(rec: CaseRecord) -> str:
    p, m = rec.input, rec.output
    b2 = _fmt(m.b2) if m.b2 is not None else ""
    b3 = _fmt(m.b3) if m.b3 is not None else ""
    return (f"{_fmt(p.d)},{_fmt(p.r_tx)},{_fmt(p.r_rx)},{_fmt(p.diff_coeff)},"
            f"{m.kind.value},{_fmt(m.b1)},{b2},{b3}")


def records_csv_text(records: list[CaseRecord]) -> str:
    lines = ["d_um,rtx_um,rrx_um,D_um2s,kind,b1,b2,b3"]
    lines.extend(_record_row(r) for r in records)
    return "\n".join(lines) + "\n"


def write_records_csv(records: list[CaseRecord], path: Path) -> None:
    _atomic_write(Path(path), records_csv_text(records))


def read_records_csv(path: Path, provenance: Provenance) -> list[CaseRecord]:
    path = Path(path)
    rows = _read_text(path).strip().split("\n")
    if rows[0] != "d_um,rtx_um,rrx_um,D_um2s,kind,b1,b2,b3":
        raise ValidationError(f"unexpected records CSV header in {path}")
    records = []
    for row in rows[1:]:
        try:
            d, rtx, rrx, dc, kind, b1, b2, b3 = row.split(",")
            params = SystemParams(d=float(d), r_tx=float(rtx), r_rx=float(rrx),
                                  diff_coeff=float(dc))
            if ModelKind(kind) is ModelKind.PRIMITIVE:
                model = ModelParams(ModelKind.PRIMITIVE, float(b1))
            else:
                model = ModelParams(ModelKind.ENHANCED, float(b1), float(b2), float(b3))
        except ValueError as exc:
            raise ValidationError(f"malformed record row {row!r} in {path}: {exc}") from exc
        records.append(CaseRecord(params, model, provenance))
    return records


def _network_payload(net: Network) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": net.kind.value,
        "hidden": net.hidden,
        "out_dim": net.out_dim,
        "w1": [[_fmt(v) for v in row] for row in net.w1],
        "b1": [_fmt(v) for v in net.b1],
        "w2": [[_fmt(v) for v in row] for row in net.w2],
        "b2": [_fmt(v) for v in net.b2],
        "in_min": [_fmt(v) for v in net.in_min],
        "in_max": [_fmt(v) for v in net.in_max],
        "out_min": [_fmt(v) for v in net.out_min],
        "out_max": [_fmt(v) for v in net.out_max],
    }


def save_network(net: Network, path: Path) -> None:
    _atomic_write(Path(path), json.dumps(_network_payload(net), indent=1) + "\n")


def load_network(path: Path) -> Network:
    path = Path(path)
    data = _read_json(path)
    if data.get("format_version") != FORMAT_VERSION:
        raise ValidationError(f"unsupported network format in {path}")
    as_arr = lambda rows: np.array([[float(v) for v in row] for row in rows])
    as_vec = lambda row: np.array([float(v) for v in row])
    try:
        net = Network(
            kind=ModelKind(data["kind"]),
            w1=as_arr(data["w1"]), b1=as_vec(data["b1"]),
            w2=as_arr(data["w2"]), b2=as_vec(data["b2"]),
            in_min=as_vec(data["in_min"]), in_max=as_vec(data["in_max"]),
            out_min=as_vec(data["out_min"]), out_max=as_vec(data["out_max"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network in {path}: {exc!r}") from exc
    h, o = net.hidden, net.out_dim
    shapes = [a.shape for a in (net.w1, net.b1, net.w2, net.b2,
                                net.in_min, net.in_max, net.out_min, net.out_max)]
    if shapes != [(h, N_INPUTS), (h,), (o, h), (o,), (N_INPUTS,), (N_INPUTS,), (o,), (o,)]:
        raise ValidationError(f"inconsistent weight shapes in network {path}")
    return net


def case_key(p: SystemParams, cfg: SimConfig) -> str:
    """Content hash identifying one simulated case under one configuration
    and one simulator version."""
    key = "|".join([
        f"sim{SIM_VERSION}",
        _fmt(p.d), _fmt(p.r_tx), _fmt(p.r_rx), _fmt(p.diff_coeff),
        str(cfg.n_molecules), str(cfg.n_replications),
        _fmt(cfg.grid.dt), _fmt(cfg.grid.t_end), str(cfg.substep_factor),
        str(cfg.seed),
    ])
    return hashlib.sha256(key.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# manifest


@dataclass
class RunManifest:
    seed: int
    sim_config: dict
    grid_hashes: dict = field(default_factory=dict)
    stages: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
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

    def add_artifact(self, key: str, rel_path: str) -> None:
        self.artifacts[key] = rel_path

    def save(self, out_dir: Path) -> None:
        payload = {
            "format_version": FORMAT_VERSION,
            "seed": self.seed,
            "sim_config": self.sim_config,
            "grid_hashes": self.grid_hashes,
            "stages": self.stages,
            "artifacts": self.artifacts,
            "failures": self.failures,
        }
        _atomic_write(self.path_in(out_dir), json.dumps(payload, indent=1) + "\n")

    @staticmethod
    def load(out_dir: Path) -> "RunManifest":
        path = RunManifest.path_in(out_dir)
        data = _read_json(path)
        fields = {"seed": int, "sim_config": dict, "grid_hashes": dict,
                  "stages": list, "artifacts": dict, "failures": list}
        for name, kind in fields.items():
            if not isinstance(data.get(name), kind):
                raise ValidationError(f"manifest {path} lacks a {kind.__name__} {name!r}")
        if not all(isinstance(f, dict) for f in data["failures"]):
            raise ValidationError(f"manifest {path} lists a failure that is not an object")
        return RunManifest(**{name: data[name] for name in fields})


def _sim_config_dict(cfg: SimConfig) -> dict:
    return {
        "n_molecules": cfg.n_molecules,
        "n_replications": cfg.n_replications,
        "dt": _fmt(cfg.grid.dt),
        "t_end": _fmt(cfg.grid.t_end),
        "seed": cfg.seed,
        "substep_factor": cfg.substep_factor,
    }


def _load_or_create_manifest(out_dir: Path, cfg: SimConfig) -> RunManifest:
    try:
        return RunManifest.load(out_dir)
    except MissingArtifactError:
        return RunManifest(seed=cfg.seed, sim_config=_sim_config_dict(cfg))


# ---------------------------------------------------------------------------
# pipeline stages


def run_phase1(grid: ParameterGrid, cfg: SimConfig, kind: ModelKind,
               out_dir: Path, n_workers: int = 1) -> list[CaseRecord]:
    """Simulate and fit every grid case; persist the signals and the records.

    A case whose signal file exists (same parameters, configuration and
    simulator version) is read instead of simulated; every case is fitted
    again, so a resumed run reuses the simulations and rewrites
    ``records_<label>_<kind>.csv``.

    With ``n_workers > 1`` up to that many threads read or simulate the
    cases. The kernels run in one pool of ``min(n_workers, fresh cases)``
    worker processes, opened for this call and started before any thread,
    so no process forks while threads run; each thread waits for its case's
    kernel. This thread writes every file, in grid order, and fits every
    case. A case that fails (a worker that dies fails the cases it leaves
    unfinished) does not stop the rest of the grid: it is recorded in the
    manifest's failures under this stage's name, replacing the stage's
    entries from an earlier run. The manifest lists the signal of every case
    that has one on disk, and the stage's duration and case counts.
    """
    if n_workers < 1:
        raise ValidationError("n_workers must be >= 1")
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    (out_dir / "signals").mkdir(parents=True, exist_ok=True)
    kind = ModelKind(kind)
    stage = f"phase1:{grid.label.value}:{kind.value}"
    manifest = _load_or_create_manifest(out_dir, cfg)
    manifest.grid_hashes[grid.label.value] = grid.content_hash()
    manifest.failures = [f for f in manifest.failures if f.get("stage") != stage]
    cases = grid.cases()
    keys = [case_key(p, cfg) for p in cases]
    paths = [out_dir / "signals" / f"sig_{key}.csv" for key in keys]
    fresh = [not path.exists() for path in paths]

    with ExitStack() as stack:
        pool = None
        if n_workers > 1 and any(fresh):
            pool = stack.enter_context(process_pool(min(n_workers, sum(fresh))))
            # with fork, the first task starts every worker process
            pool.submit(int).result()

        def load_or_simulate(i: int) -> ReceivedSignal | Exception:
            try:
                if not fresh[i]:
                    return read_signal_csv(paths[i])
                return simulate_case(cases[i], replace(cfg, seed=case_seed(cfg.seed, cases[i])),
                                     pool=pool)
            except Exception as exc:  # recorded below; the other cases go on
                return exc

        if n_workers > 1 and len(cases) > 1:
            with ThreadPoolExecutor(max_workers=min(n_workers, len(cases))) as threads:
                outcomes = list(threads.map(load_or_simulate, range(len(cases))))
        else:
            outcomes = list(map(load_or_simulate, range(len(cases))))

    for path, is_new, outcome in zip(paths, fresh, outcomes):
        if is_new and isinstance(outcome, ReceivedSignal):
            write_signal_csv(outcome, path)

    records: list[CaseRecord] = []
    for p, outcome in zip(cases, outcomes):
        if isinstance(outcome, ReceivedSignal):
            try:
                records.append(CaseRecord(p, fit(default_problem(p, outcome, kind)).model,
                                          grid.label))
                continue
            except Exception as exc:
                outcome = exc
        manifest.failures.append({
            "stage": stage,
            "case": [_fmt(p.d), _fmt(p.r_tx), _fmt(p.r_rx), _fmt(p.diff_coeff)],
            "error": str(outcome),
            "numeric": isinstance(outcome, NumericError),
        })

    combined = out_dir / f"records_{grid.label.value.lower()}_{kind.value}.csv"
    write_records_csv(records, combined)
    got = [isinstance(outcome, ReceivedSignal) for outcome in outcomes]
    manifest.add_stage(stage, time.perf_counter() - t0,
                       simulated=sum(g and f for g, f in zip(got, fresh)),
                       resumed=sum(g and not f for g, f in zip(got, fresh)),
                       failed=len(cases) - len(records))
    manifest.add_artifact(f"records_{grid.label.value}_{kind.value}", combined.name)
    for key, ok in zip(keys, got):
        if ok:
            manifest.add_artifact(f"signal_{key}", f"signals/sig_{key}.csv")
        else:
            manifest.artifacts.pop(f"signal_{key}", None)
    manifest.save(out_dir)
    return records


def run_phase2(tds: list[CaseRecord], hidden: int, seed: int,
               out_dir: Path) -> tuple[Network, TrainReport]:
    """Train a network on phase-1 records and persist it with its report."""
    if not tds:
        raise ValidationError("phase 2 requires a nonempty training dataset")
    t0 = time.perf_counter()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    net, report = train(tds, hidden=hidden, seed=seed)
    net_path = out_dir / f"network_{net.kind.value}.json"
    save_network(net, net_path)
    report_payload = {
        "format_version": FORMAT_VERSION,
        "epochs": report.epochs,
        "e_d": _fmt(report.e_d), "e_w": _fmt(report.e_w),
        "alpha": _fmt(report.alpha), "beta": _fmt(report.beta),
        "gamma": _fmt(report.gamma),
        "degenerate_targets": report.degenerate_targets,
    }
    report_path = out_dir / f"train_report_{net.kind.value}.json"
    _atomic_write(report_path, json.dumps(report_payload, indent=1) + "\n")
    try:
        manifest = RunManifest.load(out_dir)
    except MissingArtifactError:
        manifest = RunManifest(seed=seed, sim_config={})
    manifest.add_stage(f"phase2:{net.kind.value}", time.perf_counter() - t0)
    manifest.add_artifact(f"network_{net.kind.value}", net_path.name)
    manifest.add_artifact(f"train_report_{net.kind.value}", report_path.name)
    manifest.save(out_dir)
    return net, report


def predict_vds(net: Network, vds_inputs: list[SystemParams]) -> list[CaseRecord]:
    """Predict coefficients from system parameters alone (no simulation data
    enters: the operation takes nothing else)."""
    return [CaseRecord(p, forward(net, p), Provenance.ANN_PREDICTION)
            for p in vds_inputs]
