#!/usr/bin/env python3
"""Benchmark of the mcvd toolkit: end-to-end figures of two workloads, and
per-layer figures from a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study-cold --seed 1 --seconds 35 --trace 0

``--trace 0`` repeats the workload's timed operation for at least
``--seconds`` seconds (and at least MIN_OPS times) and reports the
end-to-end metrics of BENCHMARK.json: the median operation wall time, the
median set-up time and the peak resident memory. ``--trace 1`` runs one
untraced and one traced operation and reports the per-layer metrics: span
figures per layer, the tracing overhead and the accuracy figures (simulator
deviation from the closed form, RMSE of fits and networks against
simulation). The workloads are described in workloads.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` counts
(case, model kind) outputs, and ``failed`` those whose output checks failed.
The full record of the run (environment, every operation, spans when
traced) is written to ``.bench_runs/``. Nothing in ``src/mcvd`` is changed:
tracing wraps module-level names from outside and restores them.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS may start no threads of its own: only the program's --workers run
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_runs"
MIN_OPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["study-cold", "predict-bulk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor, version = cfg.get("name", "unknown"), cfg.get("version", "unknown")
    except (TypeError, KeyError):
        vendor = version = "unknown"
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return {"vendor": vendor, "version": version,
            "threads": threads if threads is not None else "unknown"}


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    # only a repository rooted here counts, not one that happens to enclose it
    top = _git("rev-parse", "--show-toplevel")
    commit = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT.resolve() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "blas": _blas(),
        "cpu_model": _cpu_model(),
        "git_commit": commit or "unknown",
        "git_dirty": (status != "") if status is not None else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _layer_table(spans) -> str:
    import layers
    shares = layers.layer_self_seconds(spans)
    total = sum(shares.values()) or 1.0
    rows = sorted(shares.items(), key=lambda kv: -kv[1])
    return "; ".join(f"{name} {sec:.3f}s ({100 * sec / total:.1f}%)" for name, sec in rows)


def run(args, spec: dict, work: Path) -> tuple[dict, dict]:
    import fidelity
    import layers
    from tracing import Tracer, require_calls
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](work, args.seed)
    setup = wl.setup()
    outcomes = []
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "setup_s": setup}
    problems: list[str] = []
    if args.trace:
        outcomes.append(wl.run_op())
        shutil.rmtree(outcomes[0].run_dir)
        with layers.install(Tracer()) as tracer:
            outcomes.append(wl.run_op())
        require_calls(tracer.spans, list(wl.required_spans))
        spans = tracer.spans
        for name in wl.forbidden_spans:
            n = sum(1 for s in spans if s.name == name)
            if n:
                problems.append(f"{n} calls to {name}, which {wl.name} must not run")
                outcomes[-1].failed = outcomes[-1].cases
        metrics = layers.per_layer_metrics(spans, outcomes[-1].files_written,
                                           outcomes[-1].bytes_written)
        metrics["trace.overhead_s"] = outcomes[1].wall_s - outcomes[0].wall_s
        metrics.update(wl.fidelity(outcomes[1].run_dir))
        shutil.rmtree(outcomes[1].run_dir)
        metrics.update(fidelity.simulator_metrics(args.seed))
        print(f"self time by layer, summed over threads (traced op {outcomes[1].wall_s:.3f}s "
              "wall): " + _layer_table(spans))
        t0 = min((s.start for s in spans), default=0.0)   # span times relative to the first
        record["spans"] = [{"id": s.id, "name": s.name, "parent": s.parent,
                            "start": s.start - t0, "end": s.end - t0, "attrs": s.attrs}
                           for s in spans]
    else:
        t0 = time.perf_counter()
        fid = None
        while len(outcomes) < MIN_OPS or time.perf_counter() - t0 < args.seconds:
            outcomes.append(wl.run_op())
            if fid is None and not outcomes[-1].problems:
                fid = wl.fidelity(outcomes[-1].run_dir)
            shutil.rmtree(outcomes[-1].run_dir)
        metrics = {
            "op_wall_s": statistics.median(o.wall_s for o in outcomes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print("accuracy: " + ", ".join(f"{k} {v:.4g}" for k, v in (fid or {}).items()))

    # determinism contract: one seed, identical artifacts on every repeat
    for o in outcomes[1:]:
        if o.digest != outcomes[0].digest:
            o.problems.append("artifacts differ from the first operation's")
            o.failed = o.cases
    for o in outcomes:
        problems += o.problems
    attempted = sum(o.cases for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if args.trace:
        metrics["fail_frac"] = failed / attempted

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(declared):
        raise RuntimeError(f"computed metrics do not match BENCHMARK.json {kind}: "
                           f"missing {sorted(set(declared) - set(metrics))}, "
                           f"undeclared {sorted(set(metrics) - set(declared))}")
    walls = [o.wall_s for o in outcomes]
    print(f"{args.workload} seed {args.seed}: {len(outcomes)} operations, wall s "
          + " ".join(f"{w:.3f}" for w in walls) + "; set-up s "
          + " ".join(f"{s:.3f}" for s in setup)
          + f"; failed {failed}/{attempted} (fail_frac {failed / attempted:.4g})")
    for p in problems:
        print(f"check failed: {p}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    record.update(ops=[{"wall_s": o.wall_s, "cases": o.cases, "failed": o.failed,
                        "digest": o.digest, "problems": o.problems} for o in outcomes],
                  result=result)
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mcvd" / "__init__.py").is_file():
        print(f"error: no mcvd package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    try:
        result, record = run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    record["environment"] = env
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
