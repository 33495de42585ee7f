"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy Monte Carlo criteria run at their stated sizes; expect several
minutes of wall time. Run with `pytest -s tests/test_acceptance.py` to watch
the per-criterion lines appear.
"""
import os
from dataclasses import replace

import numpy as np
import pytest

from mcvd import (
    CaseRecord,
    FitProblem,
    ModelKind,
    ModelParams,
    Provenance,
    ReceivedSignal,
    SimConfig,
    SystemParams,
    TimeGrid,
    fit,
    forward,
    point_hit_fraction,
    rmse,
    run_phase1,
    run_phase2,
    sample_model,
    simulate_case,
    study_grids,
    train,
)
from mcvd.channel import erfc
from mcvd.pipeline import ParameterGrid
from mcvd.simulate import case_seed, process_pool

from checks import gradient_check, jacobian_check, spearman
from erfc_oracle import ERFC_TABLE
from test_network import random_network

# worker processes for the Monte Carlo criteria: the runner's cores, at most
# four; the signals do not depend on the count
WORKERS = min(4, os.cpu_count() or 1)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def simulate_grid_case(p: SystemParams, cfg: SimConfig, pool=None):
    """The case as ``run_phase1`` simulates it: under its content-derived seed.
    Its replications run on ``pool`` when one is given."""
    return simulate_case(p, replace(cfg, seed=case_seed(cfg.seed, p)), pool=pool)


# ---------------------------------------------------------------------------
# criterion 1: simulation agrees with the analytic point-transmitter formula


def test_criterion_1_analytic_oracle_agreement():
    p = SystemParams(d=4.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0)
    cfg = SimConfig(n_molecules=3000, n_replications=50, grid=TimeGrid(1e-3, 1.0),
                    seed=101, substep_factor=10)   # dt_sub = 0.1 ms
    with process_pool(WORKERS) as pool:
        sig = simulate_case(p, cfg, pool=pool)
    exact = np.array([point_hit_fraction(p, t) for t in cfg.grid.times()])
    dev = float(np.max(np.abs(sig.cumulative_fraction - exact)))
    ok = dev <= 0.015
    report(1, ok, f"max |simulated - analytic| over bins = {dev:.5f} (limit 0.015)")
    assert ok


def test_criterion_1_bound_at_the_study_step():
    # the same case and bound at the step the study runs, dt = 1 ms: the
    # Brownian-bridge test removes the absorption bias of a coarse step
    p = SystemParams(d=4.0, r_tx=0.0, r_rx=5.0, diff_coeff=100.0)
    cfg = SimConfig(n_molecules=3000, n_replications=50, grid=TimeGrid(1e-3, 1.0),
                    seed=101, substep_factor=1)
    with process_pool(WORKERS) as pool:
        sig = simulate_case(p, cfg, pool=pool)
    exact = np.array([point_hit_fraction(p, t) for t in cfg.grid.times()])
    dev = float(np.max(np.abs(sig.cumulative_fraction - exact)))
    assert dev <= 0.015, f"max |simulated - analytic| at substep 1 = {dev:.5f} (limit 0.015)"


# ---------------------------------------------------------------------------
# criterion 2: reflecting transmitter body raises the hitting probability


def test_criterion_2_spherical_transmitter_uplift():
    n_traj = 150_000
    cfg_kw = dict(n_molecules=3000, n_replications=50, grid=TimeGrid(1e-3, 1.0),
                  substep_factor=1)
    with process_pool(WORKERS) as pool:
        sph = simulate_case(SystemParams(d=5.0, r_tx=4.0, r_rx=8.0, diff_coeff=80.0),
                            SimConfig(seed=202, **cfg_kw), pool=pool)
        pnt = simulate_case(SystemParams(d=5.0, r_tx=0.0, r_rx=8.0, diff_coeff=80.0),
                            SimConfig(seed=203, **cfg_kw), pool=pool)
    f_sph, f_pnt = sph.final_fraction, pnt.final_fraction
    se = np.sqrt(f_sph * (1 - f_sph) / n_traj + f_pnt * (1 - f_pnt) / n_traj)
    z = (f_sph - f_pnt) / se
    ok = z > 3.0
    report(2, ok, f"uplift {f_sph:.4f} vs {f_pnt:.4f}, z = {z:.1f} combined SEs (limit 3)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: fitter recovery, noiseless and under per-bin noise


def test_criterion_3_fitter_recovery():
    # identifiability-friendly case: with 4D = e the diffusion factor
    # (4D)^b2 = e^b2 stays within [1.05, 4.5] over the whole bound box, and
    # the receiver/gap ratio keeps every synthetic curve a valid fraction
    p = SystemParams(d=1.0, r_tx=0.0, r_rx=0.25, diff_coeff=2.0)
    grid = TimeGrid(1e-4, 1.0)
    lo = np.array([0.1, 0.05, 0.05])
    hi = np.array([5.0, 1.5, 1.5])
    rng = np.random.default_rng(20240501)

    noiseless_ok = 0
    for _ in range(50):
        truth = ModelParams(ModelKind.ENHANCED, *rng.uniform(lo, hi))
        target = sample_model(p, truth, grid)
        got = fit(FitProblem(p, target, ModelKind.ENHANCED)).model
        rel = np.max(np.abs(got.coefficients() - truth.coefficients())
                     / truth.coefficients())
        noiseless_ok += rel <= 1e-4

    noisy_ok = 0
    for _ in range(50):
        truth = ModelParams(ModelKind.ENHANCED, *rng.uniform(lo, hi))
        clean = sample_model(p, truth, grid).cumulative_fraction
        noisy = ReceivedSignal(grid, clean + rng.normal(0.0, 0.003, clean.size))
        got = fit(FitProblem(p, noisy, ModelKind.ENHANCED)).model
        rel = np.max(np.abs(got.coefficients() - truth.coefficients())
                     / truth.coefficients())
        noisy_ok += rel <= 5e-2

    ok = noiseless_ok == 50 and noisy_ok >= 45
    report(3, ok, f"noiseless {noiseless_ok}/50 at 1e-4 (need 50), "
                  f"noisy {noisy_ok}/50 at 5e-2 (need 45)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: the enhanced model fits simulation data better


def test_criterion_4_model_ordering():
    grid = TimeGrid(1e-3, 1.0)
    cases = [SystemParams(d=d, r_tx=rtx, r_rx=rrx, diff_coeff=75.0)
             for d in (4.0, 8.0) for rtx in (5.0, 10.0) for rrx in (5.0, 10.0)]
    cfg = SimConfig(n_molecules=3000, n_replications=20, grid=grid, seed=404)
    with process_pool(WORKERS) as pool:
        sims = [simulate_grid_case(p, cfg, pool) for p in cases]
    wins = 0
    for p, sig in zip(cases, sims):
        r_enh = rmse(sig, sample_model(
            p, fit(FitProblem(p, sig, ModelKind.ENHANCED)).model, grid), 3000)
        r_prim = rmse(sig, sample_model(
            p, fit(FitProblem(p, sig, ModelKind.PRIMITIVE)).model, grid), 3000)
        wins += r_enh < r_prim
    ok = wins == len(cases)
    report(4, ok, f"enhanced fit beats primitive fit in {wins}/{len(cases)} cases (need 8/8)")
    assert ok


# ---------------------------------------------------------------------------
# criteria 5 and 6 share one phase-1 / phase-2 / validation run


FIT_SEED = 708   # the realization the curve-fit baseline is fitted to


@pytest.fixture(scope="module")
def generalization_run(tmp_path_factory):
    """Phase 1 on 108 training cases, phase 2, then 12 interior validation
    cases with per-case fit and prediction RMSE. Every simulation runs on
    ``WORKERS`` worker processes, which gives the same bytes as one.

    Both RMSEs are taken against the seed-707 signal of each case. The
    network's prediction comes from the physical parameters alone; the
    curve fit is fitted to a second, independent 20-replication realization
    (seed 708). A fit to the scored signal itself would absorb that
    realization's own sampling noise (b1 follows the level of the count) and
    so undercut even the exact expected curve; out of sample, both
    predictors answer the same question: how well do they stand in for a
    case nobody simulated?
    """
    out = tmp_path_factory.mktemp("acc_phase")
    grid = TimeGrid(1e-3, 1.0)
    # full-dimension support around the validation points (interpolation only)
    tds_grid = ParameterGrid((2.0, 4.0, 6.0, 8.0), (5.0, 7.5, 10.0),
                             (50.0, 75.0, 100.0), (5.0, 7.5, 10.0), Provenance.TDS)
    vds_grid = ParameterGrid((3.0, 5.0, 7.0), (6.0, 8.0), (70.0,), (6.0, 8.0),
                             Provenance.VDS)
    tds_cfg = SimConfig(n_molecules=3000, n_replications=10, grid=grid, seed=505)
    records = run_phase1(tds_grid, tds_cfg, [ModelKind.ENHANCED], out, n_workers=WORKERS)
    net, _report = train(records, hidden=16, seed=0)
    vds_cfg = SimConfig(n_molecules=3000, n_replications=20, grid=grid, seed=707)
    fit_cfg = SimConfig(n_molecules=3000, n_replications=20, grid=grid, seed=FIT_SEED)
    rows = []
    with process_pool(WORKERS) as pool:
        for p in vds_grid.cases():
            sig = simulate_grid_case(p, vds_cfg, pool)
            fit_sig = simulate_grid_case(p, fit_cfg, pool)
            b_fit = fit(FitProblem(p, fit_sig, ModelKind.ENHANCED)).model
            r_fit = rmse(sig, sample_model(p, b_fit, grid), 3000)
            r_ann = rmse(sig, sample_model(p, forward(net, p), grid), 3000)
            rows.append((p, sig, r_fit, r_ann))
    return rows


def test_criterion_5_ann_generalization(generalization_run):
    rows = generalization_run
    ratios = [r_ann / r_fit for _p, _sig, r_fit, r_ann in rows]
    within = sum(1 for r in ratios if r <= 2.0)
    need = int(np.ceil(0.8 * len(rows)))
    worst = int(np.argmax(ratios))
    wp = rows[worst][0]
    ok = within >= need
    report(5, ok, f"prediction RMSE within 2x of out-of-sample curve-fit RMSE "
                  f"(fit to seed {FIT_SEED}) on {within}/{len(rows)} validation "
                  f"cases (need {need}); worst ratio {ratios[worst]:.2f} at "
                  f"d={wp.d}, r_tx={wp.r_tx}, r_rx={wp.r_rx}")
    assert ok


def test_criterion_5_rejects_point_formula(generalization_run):
    # the enhanced identity is the point-transmitter formula; it ignores r_tx,
    # so the corrected criterion must still turn it down
    rows = generalization_run
    point = ModelParams(ModelKind.ENHANCED, 1.0, 0.5, 0.5)
    within = sum(1 for p, sig, r_fit, _r_ann in rows
                 if rmse(sig, sample_model(p, point, sig.grid), 3000) <= 2.0 * r_fit)
    need = int(np.ceil(0.8 * len(rows)))
    assert within < need, f"point formula within 2x on {within}/{len(rows)}"


def test_criterion_6_distance_trend(generalization_run):
    rows = generalization_run
    groups: dict[tuple, list] = {}
    for p, _sig, _r_fit, r_ann in rows:
        groups.setdefault((p.d, p.r_rx), []).append(r_ann)
    rhos = {}
    for r_rx in sorted({rr for (_d, rr) in groups}):
        ds = sorted(d for (d, rr) in groups if rr == r_rx)
        means = [float(np.mean(groups[(d, r_rx)])) for d in ds]
        rhos[r_rx] = spearman(ds, means)
    ok = all(rho < 0 for rho in rhos.values())
    detail = ", ".join(f"r_rx={rr}: rho={rho:+.2f}" for rr, rho in rhos.items())
    report(6, ok, f"prediction RMSE falls with distance in every stratum ({detail})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: numerical hygiene


def test_criterion_7_numerical_hygiene(tmp_path):
    # network gradient check
    rec = CaseRecord(SystemParams(d=4, r_tx=5, r_rx=6, diff_coeff=90),
                     ModelParams(ModelKind.ENHANCED, 1.0, 0.5, 0.5), Provenance.TDS)
    grad_err = max(gradient_check(random_network(seed=s), rec) for s in range(3))

    # fitter Jacobian check
    rng = np.random.default_rng(77)
    jac_err = 0.0
    for _ in range(20):
        p = SystemParams(d=rng.uniform(1, 11), r_tx=0.0, r_rx=rng.uniform(2, 10),
                         diff_coeff=rng.uniform(20, 120))
        coeffs = rng.uniform([0.2, 0.1, 0.1], [3.0, 1.2, 1.2])
        jac_err = max(jac_err, jacobian_check(p, ModelKind.ENHANCED, coeffs))

    # erfc against the frozen high-precision oracle
    erfc_err = max(abs(erfc(x) - v) for x, v in ERFC_TABLE)

    # pipeline reproducibility: 1 worker vs 8 workers, bitwise artifacts
    grid = ParameterGrid((2.0, 4.0), (3.0,), (80.0,), (5.0,), Provenance.TDS)
    cfg = SimConfig(n_molecules=200, n_replications=2, grid=TimeGrid(5e-3, 0.2),
                    seed=9, substep_factor=1)
    recs_a = run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path / "a", n_workers=1)
    recs_b = run_phase1(grid, cfg, [ModelKind.ENHANCED], tmp_path / "b", n_workers=8)
    run_phase2(recs_a + recs_a + recs_a + recs_a + recs_a, hidden=4, seed=3,
               out_dir=tmp_path / "a")
    run_phase2(recs_b + recs_b + recs_b + recs_b + recs_b, hidden=4, seed=3,
               out_dir=tmp_path / "b")
    bitwise = True
    for rel in ["records_tds_enhanced.csv", "network_enhanced.json"]:
        bitwise &= (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    for f in sorted((tmp_path / "a" / "signals").iterdir()):
        bitwise &= f.read_bytes() == (tmp_path / "b" / "signals" / f.name).read_bytes()

    ok = grad_err <= 1e-6 and jac_err <= 1e-6 and erfc_err <= 1e-12 and bitwise
    report(7, ok, f"gradient check {grad_err:.2e} (<=1e-6), Jacobian check "
                  f"{jac_err:.2e} (<=1e-6), erfc vs oracle {erfc_err:.2e} (<=1e-12), "
                  f"1-vs-8-worker artifacts bitwise identical: {bitwise}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: the full-scale study is supported but not executed here


def test_criterion_8_full_study_supported():
    tds, vds = study_grids()
    full_cfg = SimConfig(n_molecules=3000, n_replications=500,
                         grid=TimeGrid(1e-3, 1.0), seed=0)
    from mcvd.cli import build_parser
    args = build_parser().parse_args([
        "pipeline", "--out", "full_run", "--grid", "full",
        "--replications", "500",
    ])
    ok = (tds.case_count() == 135 and vds.case_count() == 135
          and set(tds.cases()).isdisjoint(vds.cases())
          and full_cfg.n_replications == 500
          and args.grid == "full" and args.replications == 500)
    report(8, ok, "270-case, 500-replication study reachable via "
                  "`mcvd pipeline --grid full --replications 500` (not run in CI)")
    assert ok
