"""End-to-end orchestration: parameter grids, simulation + fitting (phase 1),
network training (phase 2), prediction, and file persistence.

Every run lives in its own directory under a single manifest. Signals are
CSV (`time_s,cumulative_fraction`), case records are CSV
(`d_um,rtx_um,rrx_um,D_um2s,kind,b1,b2,b3`), networks are versioned JSON.
All floats are serialized with 17 significant digits so artifacts round-trip
bit-exactly; files are committed atomically (write temp, rename) which makes
interrupted runs resumable: already-persisted cases are recognized by a
content hash of their parameters and configuration and skipped.
"""
from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fitting import FitResult, default_problem, fit
from .network import N_INPUTS, CaseRecord, Network, TrainReport, forward, train
from .simulate import SimConfig, case_seed, simulate_case
from .types import (
    MissingArtifactError,
    ModelKind,
    ModelParams,
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
    """Content hash identifying one simulated case under one configuration."""
    key = "|".join([
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

    def add_stage(self, name: str) -> None:
        self.stages.append({"name": name, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())})

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


def _record_json_path(out_dir: Path, key: str, kind: ModelKind) -> Path:
    return out_dir / "records" / f"rec_{kind.value}_{key}.json"


def _write_record_json(path: Path, rec: CaseRecord, result: FitResult) -> None:
    m = rec.output
    payload = {
        "format_version": FORMAT_VERSION,
        "d": _fmt(rec.input.d), "r_tx": _fmt(rec.input.r_tx),
        "r_rx": _fmt(rec.input.r_rx), "diff_coeff": _fmt(rec.input.diff_coeff),
        "kind": m.kind.value,
        "coefficients": [_fmt(c) for c in m.coefficients()],
        "provenance": rec.provenance.value,
        "rss": _fmt(result.rss),
        "n_iterations": result.n_iterations,
        "converged": result.converged,
    }
    _atomic_write(path, json.dumps(payload, indent=1) + "\n")


def _read_record_json(path: Path) -> CaseRecord:
    data = _read_json(path)
    try:
        params = SystemParams(d=float(data["d"]), r_tx=float(data["r_tx"]),
                              r_rx=float(data["r_rx"]), diff_coeff=float(data["diff_coeff"]))
        model = ModelParams.from_coefficients(ModelKind(data["kind"]),
                                              [float(c) for c in data["coefficients"]])
        return CaseRecord(params, model, Provenance(data["provenance"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed case record {path}: {exc!r}") from exc


def _simulate_case_cached(p: SystemParams, cfg: SimConfig,
                          out_dir: Path) -> tuple[ReceivedSignal, bool]:
    """Read the persisted signal when present, else simulate. Returns the
    signal and whether it still needs to be written (callers own the write so
    a parallel phase keeps one writer)."""
    sig_path = Path(out_dir) / "signals" / f"sig_{case_key(p, cfg)}.csv"
    if sig_path.exists():
        return read_signal_csv(sig_path, Source.SIMULATION), False
    per_case = SimConfig(cfg.n_molecules, cfg.n_replications, cfg.grid,
                         case_seed(cfg.seed, p), cfg.substep_factor)
    return simulate_case(p, per_case), True


def simulate_or_load_case(p: SystemParams, cfg: SimConfig, out_dir: Path) -> ReceivedSignal:
    """Per-case simulation with persistence and content-hash resumability."""
    out_dir = Path(out_dir)
    sig, needs_write = _simulate_case_cached(p, cfg, out_dir)
    if needs_write:
        sig_path = out_dir / "signals" / f"sig_{case_key(p, cfg)}.csv"
        sig_path.parent.mkdir(parents=True, exist_ok=True)
        write_signal_csv(sig, sig_path)
    return sig


def run_phase1(grid: ParameterGrid, cfg: SimConfig, kind: ModelKind,
               out_dir: Path, n_workers: int = 1) -> list[CaseRecord]:
    """Simulate and fit every grid case, persisting signals and records.

    Resumable: cases whose record file already exists are loaded, cases whose
    signal exists are refit without resimulation. Per-case failures are
    recorded in the manifest and do not stop the rest of the grid.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = ModelKind(kind)
    manifest = _load_or_create_manifest(out_dir, cfg)
    manifest.grid_hashes[grid.label.value] = grid.content_hash()
    cases = grid.cases()
    keys = [case_key(p, cfg) for p in cases]

    todo = [i for i, k in enumerate(keys)
            if not _record_json_path(out_dir, k, kind).exists()]

    def sim_one(i: int) -> tuple[ReceivedSignal, bool]:
        return _simulate_case_cached(cases[i], cfg, out_dir)

    # workers only compute; this thread is the sole writer
    signals: dict[int, ReceivedSignal] = {}
    errors: dict[int, str] = {}
    results: dict[int, tuple[ReceivedSignal, bool]] = {}
    if n_workers > 1 and len(todo) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = {i: pool.submit(sim_one, i) for i in todo}
        for i, fut in futures.items():
            try:
                results[i] = fut.result()
            except Exception as exc:
                errors[i] = str(exc)
    else:
        for i in todo:
            try:
                results[i] = sim_one(i)
            except Exception as exc:
                errors[i] = str(exc)
    for i, (sig, needs_write) in results.items():
        if needs_write:
            sig_path = out_dir / "signals" / f"sig_{keys[i]}.csv"
            sig_path.parent.mkdir(parents=True, exist_ok=True)
            write_signal_csv(sig, sig_path)
        signals[i] = sig

    records: list[CaseRecord] = []
    for i, (p, key) in enumerate(zip(cases, keys)):
        rec_path = _record_json_path(out_dir, key, kind)
        if rec_path.exists():
            records.append(_read_record_json(rec_path))
            continue
        case_id = [_fmt(p.d), _fmt(p.r_tx), _fmt(p.r_rx), _fmt(p.diff_coeff)]
        if i in errors:
            manifest.failures.append({"case": case_id, "error": errors[i]})
            continue
        try:
            result = fit(default_problem(p, signals[i], kind))
            rec = CaseRecord(p, result.model, grid.label)
        except Exception as exc:
            manifest.failures.append({"case": case_id, "error": str(exc)})
            continue
        rec_path.parent.mkdir(parents=True, exist_ok=True)
        _write_record_json(rec_path, rec, result)
        records.append(rec)

    combined = out_dir / f"records_{grid.label.value.lower()}_{kind.value}.csv"
    write_records_csv(records, combined)
    manifest.add_stage(f"phase1:{grid.label.value}:{kind.value}")
    manifest.add_artifact(f"records_{grid.label.value}_{kind.value}", combined.name)
    for key in keys:
        manifest.add_artifact(f"signal_{key}", f"signals/sig_{key}.csv")
    manifest.save(out_dir)
    return records


def run_phase2(tds: list[CaseRecord], hidden: int, seed: int,
               out_dir: Path) -> tuple[Network, TrainReport]:
    """Train a network on phase-1 records and persist it with its report."""
    if not tds:
        raise ValidationError("phase 2 requires a nonempty training dataset")
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
    manifest.add_stage(f"phase2:{net.kind.value}")
    manifest.add_artifact(f"network_{net.kind.value}", net_path.name)
    manifest.add_artifact(f"train_report_{net.kind.value}", report_path.name)
    manifest.save(out_dir)
    return net, report


def predict_vds(net: Network, vds_inputs: list[SystemParams]) -> list[CaseRecord]:
    """Predict coefficients from system parameters alone (no simulation data
    enters: the operation takes nothing else)."""
    return [CaseRecord(p, forward(net, p), Provenance.ANN_PREDICTION)
            for p in vds_inputs]
