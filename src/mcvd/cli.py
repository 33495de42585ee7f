"""Command-line interface.

Subcommands: simulate, fit, train, predict, evaluate, export, pipeline.
Exit codes: 0 success, 1 validation error, 2 missing artifact, 3 numeric
failure.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis
from .fitting import FitProblem, fit
from .network import DEFAULT_HIDDEN, CaseRecord, forward
from .pipeline import (
    RunManifest,
    case_key,
    load_network,
    predict_vds,
    read_records_csv,
    read_signal_csv,
    reduced_grids,
    run_config,
    run_phase1,
    run_phase2,
    signal_path,
    study_grids,
    write_records_csv,
    write_signal_csv,
)
from .simulate import SimConfig, simulate_case
from .types import (
    MissingArtifactError,
    ModelKind,
    NumericError,
    Provenance,
    SystemParams,
    TimeGrid,
    ValidationError,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISSING_ARTIFACT = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise ValidationError(message)


def _add_case_args(sp, required=True) -> None:
    sp.add_argument("--d", type=float, required=required, help="gap to receiver surface [um]")
    sp.add_argument("--rtx", type=float, default=0.0, help="transmitter radius [um], 0 = point")
    sp.add_argument("--rrx", type=float, required=required, help="receiver radius [um]")
    sp.add_argument("--D", type=float, dest="diff", required=required,
                    help="diffusion coefficient [um^2/s]")


def _add_sim_args(sp) -> None:
    sp.add_argument("--molecules", type=int, default=3000)
    sp.add_argument("--replications", type=int, default=50,
                    help="50 by default; pass 500 for the full-scale study")
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--t-end", type=float, default=1.0)
    sp.add_argument("--substeps", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)


def _sim_config(args) -> SimConfig:
    return SimConfig(n_molecules=args.molecules, n_replications=args.replications,
                     grid=TimeGrid(args.dt, args.t_end), seed=args.seed,
                     substep_factor=args.substeps)


def _case(args) -> SystemParams:
    return SystemParams(d=args.d, r_tx=args.rtx, r_rx=args.rrx, diff_coeff=args.diff)


def _cmd_simulate(args) -> int:
    sig = simulate_case(_case(args), _sim_config(args))
    out = Path(args.out)
    write_signal_csv(sig, out)
    print(f"simulated {args.molecules}x{args.replications} molecules; "
          f"final fraction {sig.final_fraction:.6f} -> {out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    sig = read_signal_csv(Path(args.signal))
    result = fit(FitProblem(_case(args), sig, ModelKind(args.model)))
    rec = CaseRecord(_case(args), result.model, Provenance.TDS)
    coeffs = ", ".join(f"{c:.8g}" for c in result.model.coefficients())
    print(f"fit {args.model}: b = ({coeffs}), rss = {result.rss:.6e}, "
          f"iterations = {result.n_iterations}, converged = {result.converged}")
    if args.out:
        write_records_csv([rec], Path(args.out))
    return EXIT_OK


def _cmd_train(args) -> int:
    records = read_records_csv(Path(args.records), Provenance.TDS)
    records = [r for r in records if r.output.kind is ModelKind(args.model)]
    if not records:
        raise ValidationError(f"no {args.model} records in {args.records}")
    _net, report = run_phase2(records, hidden=args.hidden, seed=args.seed,
                              out_dir=Path(args.out))
    print(f"trained {args.model} network: epochs={report.epochs}, "
          f"E_D={report.e_d:.3e}, E_W={report.e_w:.3e}, gamma={report.gamma:.2f}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    net = load_network(Path(args.network))
    if args.grid:
        tds, vds = study_grids()
        cases = (tds if args.grid == "tds" else vds).cases()
    else:
        if args.d is None or args.rrx is None or args.diff is None:
            raise ValidationError("predict needs --grid or a full --d/--rtx/--rrx/--D case")
        cases = [_case(args)]
    records = predict_vds(net, cases)
    if args.out:
        write_records_csv(records, Path(args.out))
        print(f"wrote {len(records)} predictions -> {args.out}")
    else:
        for r in records:
            coeffs = ", ".join(f"{c:.8g}" for c in r.output.coefficients())
            print(f"d={r.input.d} rtx={r.input.r_tx} rrx={r.input.r_rx} "
                  f"D={r.input.diff_coeff}: b = ({coeffs})")
    return EXIT_OK


def _run_records(run_dir: Path, stem: str, provenance: Provenance) -> list[CaseRecord]:
    """The records of every ``<stem>_<kind>.csv`` in a run directory."""
    records: list[CaseRecord] = []
    for kind in ModelKind:
        path = run_dir / f"{stem}_{kind.value}.csv"
        if path.exists():
            records.extend(read_records_csv(path, provenance))
    return records


def _evaluate(run_dir: Path, cfg: SimConfig, out: Path) -> list:
    """Grouped RMSE of the run's VDS fits and predictions, written to out."""
    fits = _run_records(run_dir, "records_vds", Provenance.VDS)
    if not fits:
        raise MissingArtifactError(f"no VDS fit records under {run_dir}")
    anns = _run_records(run_dir, "predictions", Provenance.ANN_PREDICTION)
    sims = [(p, read_signal_csv(signal_path(run_dir, p, cfg)))
            for p in dict.fromkeys(r.input for r in fits)]
    groups = analysis.evaluate_vds(sims, fits, anns, cfg.n_molecules)
    analysis.write_groups_csv(groups, out)
    return groups


def _cmd_evaluate(args) -> int:
    run_dir = Path(args.run)
    cfg = run_config(run_dir)
    out = Path(args.out) if args.out else run_dir / "evaluation" / "rmse_groups.csv"
    groups = _evaluate(run_dir, cfg, out)
    RunManifest.load(run_dir).save(run_dir)
    print(f"{len(groups)} (d, r_rx) groups -> {out}")
    for g in groups:
        cells = ", ".join(f"{m}={v:.2f}" for m, v in g.mean_rmse.items())
        print(f"  d={g.d} r_rx={g.r_rx} n={g.n_cases}: {cells}")
    return EXIT_OK


def _cmd_export(args) -> int:
    run_dir = Path(args.run)
    cfg = run_config(run_dir)
    p = _case(args)
    sim = read_signal_csv(signal_path(run_dir, p, cfg))
    fits = {r.output.kind: r.output
            for r in _run_records(run_dir, "records_vds", Provenance.VDS) if r.input == p}
    # series order sets the chart colours: each kind's fit, then its network
    models = {}
    for kind in ModelKind:
        if kind in fits:
            models[f"{kind.value}_fit"] = fits[kind]
        net_path = run_dir / f"network_{kind.value}.json"
        if net_path.exists():
            models[f"{kind.value}_ann"] = forward(load_network(net_path), p)
    out = Path(args.out) if args.out else run_dir / "exports" / f"case_{case_key(p, cfg)}"
    written = analysis.export_curves(p, sim, models, out, cfg.n_molecules)
    RunManifest.load(run_dir).save(run_dir)
    print(f"exported {len(written)} files -> {out}")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    out_dir = Path(args.out)
    cfg = _sim_config(args)
    if args.hidden < 1:  # training would refuse it only after phase 1
        raise ValidationError("hidden must be >= 1")
    if args.grid == "full":
        tds_grid, vds_grid = study_grids()
    else:
        tds_grid, vds_grid = reduced_grids()
    kinds = [ModelKind.PRIMITIVE, ModelKind.ENHANCED] if args.model == "both" \
        else [ModelKind(args.model)]
    tds_records = run_phase1(tds_grid, cfg, kinds, out_dir, n_workers=args.workers)
    print(f"phase1 TDS: {len(tds_records)} records")
    nets = {}
    for kind in kinds:
        nets[kind], report = run_phase2([r for r in tds_records if r.output.kind is kind],
                                        hidden=args.hidden, seed=args.seed, out_dir=out_dir)
        print(f"phase2 {kind.value}: epochs={report.epochs} E_D={report.e_d:.3e}")
    vds_records = run_phase1(vds_grid, cfg, kinds, out_dir, n_workers=args.workers)
    print(f"phase1 VDS: {len(vds_records)} records")
    for kind, net in nets.items():
        predictions = predict_vds(net, [r.input for r in vds_records if r.output.kind is kind])
        write_records_csv(predictions, out_dir / f"predictions_{kind.value}.csv")
    manifest = RunManifest.load(out_dir)
    # with every VDS case failed there is nothing to evaluate, only failures to report
    if vds_records:
        t0 = time.perf_counter()
        eval_path = out_dir / "evaluation" / "rmse_groups.csv"
        groups = _evaluate(out_dir, cfg, eval_path)
        manifest.add_stage("evaluate", time.perf_counter() - t0)
        print(f"pipeline complete: {len(groups)} RMSE groups -> {eval_path}")
    manifest.save(out_dir)
    if manifest.failures:
        # a case whose fits failed for both kinds has one failure per kind
        cases = {(f["stage"], tuple(f["case"])) for f in manifest.failures}
        print(f"error: {len(cases)} failed cases; see 'failures' in "
              f"{RunManifest.path_in(out_dir)}", file=sys.stderr)
        return EXIT_NUMERIC if any(f.get("numeric") for f in manifest.failures) \
            else EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mcvd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run one Monte Carlo case", parents=[])
    _add_case_args(sp)
    _add_sim_args(sp)
    sp.add_argument("--out", required=True, help="output signal CSV")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("fit", help="fit model coefficients to a signal CSV")
    _add_case_args(sp)
    sp.add_argument("--signal", required=True)
    sp.add_argument("--model", choices=["primitive", "enhanced"], default="enhanced")
    sp.add_argument("--out", help="optional records CSV")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("train", help="train a network on a records CSV")
    sp.add_argument("--records", required=True)
    sp.add_argument("--model", choices=["primitive", "enhanced"], default="enhanced")
    sp.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="run directory for the network artifacts")
    sp.set_defaults(func=_cmd_train)

    sp = sub.add_parser("predict", help="predict coefficients from system parameters")
    _add_case_args(sp, required=False)
    sp.add_argument("--network", required=True)
    sp.add_argument("--grid", choices=["tds", "vds"])
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("evaluate", help="grouped RMSE tables for a pipeline run")
    sp.add_argument("--run", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_evaluate)

    sp = sub.add_parser("export", help="plot-ready CSV + SVG bundle for one case")
    _add_case_args(sp)
    sp.add_argument("--run", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_export)

    sp = sub.add_parser("pipeline", help="full two-phase run: simulate, fit, train, "
                                         "predict, evaluate")
    _add_sim_args(sp)
    sp.add_argument("--out", required=True)
    sp.add_argument("--grid", choices=["reduced", "full"], default="reduced",
                    help="full runs the complete 270-case study")
    sp.add_argument("--model", choices=["primitive", "enhanced", "both"], default="both")
    sp.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FileNotFoundError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except OSError as exc:  # a path of the wrong kind, say a directory given for a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
