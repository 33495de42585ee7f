"""Accuracy figures, computed untimed from the public API and a run's
artifacts, so that a speed-up cannot hide a loss of fidelity."""
from __future__ import annotations

import math
import os
import statistics
from pathlib import Path

import numpy as np

from mcvd.analysis import rmse
from mcvd.channel import point_hit_fraction, sample_model
from mcvd.pipeline import RunManifest, case_key, read_records_csv, read_signal_csv
from mcvd.simulate import SimConfig, simulate_case
from mcvd.types import ModelKind, Provenance, SystemParams, TimeGrid

# acceptance criterion 1's point-transmitter case
ORACLE_CASE = SystemParams(d=4.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0)
ORACLE_MOLECULES = 3000
ORACLE_REPLICATIONS = 4
SUBSTEP_FACTORS = (1, 3, 10)
# the simulator's own replication pool; replications draw from their own
# streams, so the result does not depend on this
ORACLE_WORKERS = min(2, len(os.sched_getaffinity(0)))


def simulator_deviation(seed: int, substep_factor: int) -> tuple[float, float]:
    """Max over bins of |S_sim - F| for the oracle case, and the Monte Carlo
    standard error sqrt(F (1 - F) / n_emitted) at that bin."""
    cfg = SimConfig(n_molecules=ORACLE_MOLECULES, n_replications=ORACLE_REPLICATIONS,
                    grid=TimeGrid(1e-3, 1.0), seed=seed, substep_factor=substep_factor)
    sim = simulate_case(ORACLE_CASE, cfg, n_workers=ORACLE_WORKERS).cumulative_fraction
    exact = np.array([point_hit_fraction(ORACLE_CASE, t) for t in cfg.grid.times()])
    dev = np.abs(sim - exact)
    k = int(np.argmax(dev))
    se = math.sqrt(exact[k] * (1.0 - exact[k]) / cfg.n_emitted)
    return float(dev[k]), se


def simulator_metrics(seed: int) -> dict[str, float]:
    out = {}
    for factor in SUBSTEP_FACTORS:
        dev, se = simulator_deviation(seed, factor)
        out[f"sim_max_dev_sub{factor}"] = dev
        out[f"sim_max_dev_sub{factor}_se"] = se
    return out


def _sim_config(run_dir: Path) -> SimConfig:
    sc = RunManifest.load(run_dir).sim_config
    return SimConfig(n_molecules=int(sc["n_molecules"]),
                     n_replications=int(sc["n_replications"]),
                     grid=TimeGrid(float(sc["dt"]), float(sc["t_end"])),
                     seed=int(sc["seed"]), substep_factor=int(sc["substep_factor"]))


def study_metrics(run_dir: Path) -> dict[str, float]:
    """Mean per-case RMSE (molecules) of each method over the run's VDS
    cases, and criterion 5's statistic: the share of cases whose enhanced-ANN
    RMSE is at most twice their enhanced curve-fit RMSE."""
    run_dir = Path(run_dir)
    cfg = _sim_config(run_dir)
    models: dict[tuple[str, ModelKind], dict[SystemParams, object]] = {}
    for kind in ModelKind:
        for method, name, prov in (("fit", f"records_vds_{kind.value}.csv", Provenance.VDS),
                                   ("ann", f"predictions_{kind.value}.csv",
                                    Provenance.ANN_PREDICTION)):
            models[(method, kind)] = {r.input: r.output
                                      for r in read_records_csv(run_dir / name, prov)}
    cases = list(models[("fit", ModelKind.ENHANCED)])
    errors: dict[tuple[str, ModelKind], list[float]] = {key: [] for key in models}
    for p in cases:
        sim = read_signal_csv(run_dir / "signals" / f"sig_{case_key(p, cfg)}.csv")
        for key, table in models.items():
            errors[key].append(rmse(sim, sample_model(p, table[p], sim.grid), cfg.n_molecules))
    out = {f"rmse_{method}_{kind.value}_mol": statistics.fmean(errors[(method, kind)])
           for method in ("fit", "ann") for kind in ModelKind}
    ann = errors[("ann", ModelKind.ENHANCED)]
    fit = errors[("fit", ModelKind.ENHANCED)]
    out["ann_within_2x_frac"] = sum(a <= 2.0 * f for a, f in zip(ann, fit)) / len(cases)
    return out
