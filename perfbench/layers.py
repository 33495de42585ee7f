"""Trace points of the mcvd benchmark and the per-layer metrics derived from
their spans.

Each trace point is a module-level public name at the place the package (or
the benchmark's own prediction loop) looks it up when calling, so wrapping
it catches the call: ``mcvd.pipeline.fit`` is the name ``run_phase1`` calls,
``mcvd.fitting.erfc`` the one the fitter calls, ``mcvd.channel.erfc`` the one
the curve samplers call. A span's layer is the part of its name before the
first dot.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracing import Span, Tracer, self_times

LAYERS = ("simulate", "fitting", "channel", "network", "pipeline", "analysis", "cli")
KINDS = ("primitive", "enhanced")
FULL_STUDY_CASE_REPLICATIONS = 270 * 500


def molecule_steps(cumulative_fraction, n_emitted: int, substep_factor: int) -> int:
    """Molecule-steps the simulator took for one signal (computed).

    Before step j of bin j, n_emitted * (1 - F_{j-1}) molecules are still in
    flight (F_0 = 0). With one substep per bin this is exact; with more it
    counts every substep of a bin at the bin's starting population.
    """
    f = np.asarray(cumulative_fraction, dtype=float)
    before = np.concatenate(([0.0], f[:-1]))
    alive = np.rint(n_emitted * (1.0 - before))
    return int(substep_factor) * int(alive.sum())


def _simulate_attrs(args, kwargs, signal) -> dict:
    cfg = args[1]
    return {"molecule_steps": molecule_steps(signal.cumulative_fraction, cfg.n_emitted,
                                             cfg.substep_factor),
            "replications": cfg.n_replications}


def _fit_attrs(args, kwargs, result) -> dict:
    problem = args[0]
    lo = np.array([b[0] for b in problem.bounds])
    hi = np.array([b[1] for b in problem.bounds])
    x = result.model.coefficients()
    return {"kind": problem.kind.value, "iterations": result.n_iterations,
            "converged": bool(result.converged),
            "at_bound": bool(np.any(np.isclose(x, lo) | np.isclose(x, hi)))}


def _train_attrs(args, kwargs, result) -> dict:
    net, report = result
    return {"kind": net.kind.value, "epochs": report.epochs, "gamma": report.gamma}


def _erfc_attrs(args, kwargs, result) -> dict:
    return {"points": int(np.size(args[0]))}


# (module, attribute, span name, attribute extractor)
TRACE_POINTS = [
    ("mcvd.cli", "main", "cli.main", None),
    ("mcvd.cli", "run_phase1", "pipeline.run_phase1", None),
    ("mcvd.cli", "run_phase2", "pipeline.run_phase2", None),
    ("mcvd.cli", "predict_vds", "pipeline.predict_vds", None),
    ("mcvd.cli", "read_signal_csv", "pipeline.read_signal_csv", None),
    ("mcvd.cli", "read_records_csv", "pipeline.read_records_csv", None),
    ("mcvd.cli", "write_records_csv", "pipeline.write_records_csv", None),
    ("mcvd.pipeline", "simulate_case", "simulate.simulate_case", _simulate_attrs),
    ("mcvd.pipeline", "fit", "fitting.fit", _fit_attrs),
    ("mcvd.pipeline", "train", "network.train", _train_attrs),
    ("mcvd.pipeline", "forward", "network.forward", None),
    ("mcvd.pipeline", "predict_vds", "pipeline.predict_vds", None),
    ("mcvd.pipeline", "read_signal_csv", "pipeline.read_signal_csv", None),
    ("mcvd.pipeline", "write_signal_csv", "pipeline.write_signal_csv", None),
    ("mcvd.pipeline", "write_records_csv", "pipeline.write_records_csv", None),
    ("mcvd.pipeline", "save_network", "pipeline.save_network", None),
    ("mcvd.pipeline", "load_network", "pipeline.load_network", None),
    ("mcvd.fitting", "erfc", "channel.erfc", _erfc_attrs),
    ("mcvd.channel", "erfc", "channel.erfc", _erfc_attrs),
    ("mcvd.channel", "sample_model", "channel.sample_model", None),
    ("mcvd.channel", "sir_curve", "channel.sir_curve", None),
    ("mcvd.analysis", "sample_model", "channel.sample_model", None),
    ("mcvd.analysis", "sample_point_formula", "channel.sample_point_formula", None),
    ("mcvd.analysis", "evaluate_vds", "analysis.evaluate_vds", None),
    ("mcvd.analysis", "rmse", "analysis.rmse", None),
    ("mcvd.analysis", "write_groups_csv", "analysis.write_groups_csv", None),
]

IO_SPANS = frozenset({
    "pipeline.read_signal_csv", "pipeline.write_signal_csv",
    "pipeline.read_records_csv", "pipeline.write_records_csv",
    "pipeline.save_network", "pipeline.load_network", "analysis.write_groups_csv",
})

SAMPLER_SPANS = frozenset({"channel.sample_model", "channel.sample_point_formula"})


def install(tracer: Tracer) -> Tracer:
    for module, attr, name, attrs in TRACE_POINTS:
        tracer.patch(module, attr, name, attrs)
    return tracer


def _p50(spans: list[Span], scale: float) -> float:
    return statistics.median(s.duration for s in spans) * scale if spans else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out


def per_layer_metrics(spans: list[Span], files_written: int, bytes_written: int) -> dict[str, float]:
    """Per-layer figures from the spans of one traced operation."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    done: dict[str, list[Span]] = defaultdict(list)   # calls that returned a result
    for s in spans:
        by_name[s.name].append(s)
        if "error" not in s.attrs:
            done[s.name].append(s)
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    layer_self = layer_self_seconds(spans)

    def busy(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    m: dict[str, float] = {}

    sims = by_name["simulate.simulate_case"]
    sim_busy = busy("simulate.simulate_case")
    window = max(s.end for s in sims) - min(s.start for s in sims) if sims else 0.0
    steps = sum(s.attrs["molecule_steps"] for s in done["simulate.simulate_case"])
    reps = sum(s.attrs["replications"] for s in done["simulate.simulate_case"])
    m["simulate.calls"] = len(sims)
    m["simulate.case_s.p50"] = _p50(sims, 1.0)
    m["simulate.busy_s"] = sim_busy
    m["simulate.molecule_steps"] = steps
    m["simulate.molecule_steps_per_s"] = steps / window if window else 0.0
    m["simulate.concurrency"] = sim_busy / window if window else 0.0
    m["simulate.full_study_projected_h"] = (
        window / reps * FULL_STUDY_CASE_REPLICATIONS / 3600.0 if reps else 0.0)
    m["simulate.self_s"] = layer_self["simulate"]

    fits = done["fitting.fit"]
    for kind in KINDS:
        of_kind = [s for s in fits if s.attrs.get("kind") == kind]
        m[f"fitting.calls.{kind}"] = len(of_kind)
        m[f"fitting.fit_ms.{kind}.p50"] = _p50(of_kind, 1e3)
        m[f"fitting.iterations.{kind}"] = _mean([s.attrs["iterations"] for s in of_kind])
    m["fitting.converged_frac"] = _mean([float(s.attrs["converged"]) for s in fits])
    m["fitting.at_bound"] = sum(1 for s in fits if s.attrs["at_bound"])
    m["fitting.self_s"] = layer_self["fitting"]

    erfcs = by_name["channel.erfc"]
    points = sum(s.attrs["points"] for s in done["channel.erfc"])

    def erfc_under(parents: frozenset) -> float:
        return sum(s.duration for s in erfcs
                   if s.parent is not None and by_id[s.parent].name in parents)

    m["channel.erfc.calls"] = len(erfcs)
    m["channel.erfc.points"] = points
    m["channel.erfc.us_per_1000"] = busy("channel.erfc") / points * 1e9 if points else 0.0
    m["channel.erfc.in_fit_s"] = erfc_under(frozenset({"fitting.fit"}))
    m["channel.erfc.in_sample_s"] = erfc_under(SAMPLER_SPANS)
    m["channel.sample_model_us.p50"] = _p50(by_name["channel.sample_model"], 1e6)
    m["channel.self_s"] = layer_self["channel"]

    trains = done["network.train"]
    for kind in KINDS:
        of_kind = [s for s in trains if s.attrs.get("kind") == kind]
        m[f"network.train_s.{kind}"] = sum(s.duration for s in of_kind)
        m[f"network.epochs.{kind}"] = sum(s.attrs["epochs"] for s in of_kind)
        m[f"network.gamma.{kind}"] = _mean([s.attrs["gamma"] for s in of_kind])
    m["network.forward_us.p50"] = _p50(by_name["network.forward"], 1e6)
    m["network.forward.calls"] = len(by_name["network.forward"])
    m["network.self_s"] = layer_self["network"]

    m["pipeline.phase1_s"] = busy("pipeline.run_phase1")
    m["pipeline.phase2_s"] = busy("pipeline.run_phase2")
    m["pipeline.phase1.self_s"] = sum(own[s.id] for s in by_name["pipeline.run_phase1"])
    m["pipeline.io_s"] = sum(s.duration for s in spans if s.name in IO_SPANS)
    m["pipeline.signal_reads"] = len(by_name["pipeline.read_signal_csv"])
    m["pipeline.signal_writes"] = len(by_name["pipeline.write_signal_csv"])
    m["pipeline.bytes_written"] = bytes_written
    m["pipeline.files_written"] = files_written
    m["pipeline.self_s"] = layer_self["pipeline"]

    m["analysis.evaluate_s"] = busy("analysis.evaluate_vds")
    m["analysis.rmse.calls"] = len(by_name["analysis.rmse"])
    m["analysis.self_s"] = layer_self["analysis"]

    m["cli.self_s"] = layer_self["cli"]
    return m
