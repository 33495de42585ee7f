"""Evaluation of the modeling methods against simulation: per-case RMSE in
molecules, grouped means over (d, r_rx), SIR comparisons, and plot-ready
exports (CSV plus static SVG charts)."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import sample_model, sample_point_formula, sir_curve
from .network import CaseRecord
from .pipeline import _atomic_write, _fmt, _write_csv, _write_series
from .svg import line_chart
from .types import (
    MissingArtifactError,
    ModelKind,
    ModelParams,
    ReceivedSignal,
    SystemParams,
    ValidationError,
)

__all__ = [
    "METHODS",
    "RmseGroup",
    "rmse",
    "evaluate_vds",
    "export_curves",
]

# method labels used in group tables and export file names
METHODS = ("point_formula", "primitive_fit", "enhanced_fit",
           "primitive_ann", "enhanced_ann")


def rmse(signal_a: ReceivedSignal, signal_b: ReceivedSignal, n_molecules: int) -> float:
    """Root mean squared deviation in molecule counts over the shared grid."""
    if signal_a.grid != signal_b.grid:
        raise ValidationError("rmse requires signals on identical grids")
    diff = n_molecules * (signal_a.cumulative_fraction - signal_b.cumulative_fraction)
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass
class RmseGroup:
    d: float
    r_rx: float
    n_cases: int
    mean_rmse: dict[str, float]


def _records_by_case(records: list[CaseRecord]) -> dict[SystemParams, dict[ModelKind, ModelParams]]:
    table: dict[SystemParams, dict[ModelKind, ModelParams]] = {}
    for rec in records:
        table.setdefault(rec.input, {})[rec.output.kind] = rec.output
    return table


def evaluate_vds(vds_sims: list[tuple[SystemParams, ReceivedSignal]],
                 fit_records: list[CaseRecord],
                 ann_records: list[CaseRecord],
                 n_molecules: int) -> list[RmseGroup]:
    """Per-case RMSE of every available method against simulation, averaged
    into (d, r_rx) groups.

    RMSE is reported in molecules per emission (fraction error times the
    ``n_molecules`` molecules of one emission). Cases missing from either
    record set are enumerated in one error.
    """
    tables = {"fit": _records_by_case(fit_records), "ann": _records_by_case(ann_records)}
    per_case: dict[SystemParams, dict[str, float]] = {}
    missing: list[str] = []
    for p, sim in vds_sims:
        row = {"point_formula": rmse(sim, sample_point_formula(p, sim.grid), n_molecules)}
        for label, table in tables.items():
            models = table.get(p, {})
            if table and not models:
                missing.append(f"{label} records missing for case {p}")
            for kind in ModelKind:
                if kind in models:
                    curve = sample_model(p, models[kind], sim.grid)
                    row[f"{kind.value}_{label}"] = rmse(sim, curve, n_molecules)
        per_case[p] = row
    if missing:
        raise MissingArtifactError("; ".join(missing))

    groups: dict[tuple[float, float], list[dict[str, float]]] = {}
    for p, row in per_case.items():
        groups.setdefault((p.d, p.r_rx), []).append(row)
    out = []
    for (d, r_rx) in sorted(groups):
        rows = groups[(d, r_rx)]
        means = {}
        for m in METHODS:
            vals = [row[m] for row in rows if m in row]
            if vals:
                means[m] = float(np.mean(vals))
        out.append(RmseGroup(d=d, r_rx=r_rx, n_cases=len(rows), mean_rmse=means))
    return out


def write_groups_csv(groups: list[RmseGroup], path: Path) -> None:
    """One row per group; a method absent from a group leaves its cell empty."""
    _write_csv(path, ",".join(("d_um", "rrx_um", "n_cases", *METHODS)), (
        [_fmt(g.d), _fmt(g.r_rx), str(g.n_cases),
         *(_fmt(g.mean_rmse[m]) if m in g.mean_rmse else "" for m in METHODS)]
        for g in groups))


def export_curves(p: SystemParams, sim: ReceivedSignal,
                  models: dict[str, ModelParams], out_dir: Path,
                  n_molecules: int) -> list[Path]:
    """Write per-method signal and SIR CSVs plus combined SVG charts for one
    case. SIR files come in two variants: each curve against its own final
    value, and against the simulation's final value. Output is byte-stable:
    re-exporting produces identical files.
    """
    out_dir = Path(out_dir)
    times = sim.grid.times()
    curves: dict[str, ReceivedSignal] = {"simulation": sim}
    curves["point_formula"] = sample_point_formula(p, sim.grid)
    for name, m in models.items():
        curves[name] = sample_model(p, m, sim.grid)

    written: list[Path] = []
    signal_series = []
    sir_own_series = []
    sir_vs_sim_series = []
    for name, sig in curves.items():
        sir_own = sir_curve(sig)
        sir_ref = sir_curve(sig, sim.final_fraction)
        for stem, column, values in (("signal", "cumulative_fraction", sig.cumulative_fraction),
                                     ("sir_own", "sir", sir_own),
                                     ("sir_vs_sim", "sir", sir_ref)):
            path = out_dir / f"{stem}_{name}.csv"
            _write_series(path, column, times, values)
            written.append(path)
        signal_series.append((name, times, n_molecules * sig.cumulative_fraction))
        sir_own_series.append((name, times, sir_own))
        sir_vs_sim_series.append((name, times, sir_ref))

    charts = {
        "received_signal.svg": (signal_series, f"Received signal (d={p.d} um)",
                                "molecules received"),
        "sir.svg": (sir_own_series, f"SIR, own end value (d={p.d} um)", "SIR"),
        "sir_vs_sim.svg": (sir_vs_sim_series, f"SIR vs simulation end (d={p.d} um)", "SIR"),
    }
    for name, (series, title, y_label) in charts.items():
        path = out_dir / name
        _atomic_write(path, line_chart(series, title=title, x_label="time [s]",
                                       y_label=y_label))
        written.append(path)
    return written
