"""logconmix benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload mc_catalog --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy. With ``--trace 0`` the
workload runs untraced and the run reports the end-to-end metrics; with
``--trace 1`` it runs untraced, then again with every layer boundary traced
(see ``layers.py``), then times the kernel primitives on each backend, and
reports the per-layer metrics. Either way the outputs are checked, the
metrics are printed by name and unit, a record with the machine, versions,
backend and seed goes to ``perfbench/results/``, and the last line of stdout
is one JSON object. The exit code is 1 when an output is wrong (README.md
says which checks make it so), 2 without sources, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_RUNS = 10  # fresh imports timed before the workload, and as many after it
WORKLOAD_NAMES = ("mc_catalog", "pvalue_cli")
DESIGN = {"mc_catalog": ("layer", "kernels"), "pvalue_cli": ("span", "em.pilot_kde")}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="logconmix benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import logconmix from this checkout's src/; None if it is absent."""
    if not (SRC / "logconmix" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import logconmix
    if Path(logconmix.__file__).resolve().parent != (SRC / "logconmix").resolve():
        return None
    return logconmix


def _setup_walls():
    """Wall times of SETUP_RUNS fresh interpreters importing logconmix.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    walls = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import logconmix.cli"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        walls.append(perf_counter() - t0)
    return walls


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _machine(args):
    import numpy as np
    from logconmix import kernels
    from workloads import NPROC, WORKERS
    return {
        "nproc": NPROC,
        "workers": WORKERS,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": kernels.BACKEND,
        "available_backends": kernels.available_backends(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _workload_kwargs(name):
    if name == "pvalue_cli":
        RESULTS.mkdir(exist_ok=True)
        return {"workdir": str(RESULTS)}
    return {}


def _issue_metrics(name, outcome, accuracy, fail_frac, setup_s, rss_mb):
    """The metrics as the workload's users name them: (name, value, unit, note)."""
    import workloads
    walls = outcome.op_walls
    ref_s = statistics.median(outcome.ref_walls)
    rows = [("op_ref_gmean", op_ref_gmean(outcome), "ratio",
             f"geometric mean over {len(walls)} operations of wall / nearby reference wall"),
            ("ref_s_p50", ref_s, "s", f"median of {len(outcome.ref_walls)} reference runs")]
    if name == "mc_catalog":
        rows.append(("rep_s_p50", statistics.median(walls), "s",
                     f"median over {len(walls)} scenario cells of cell wall / reps"))
        rows.append(("reps_per_s", outcome.ops / outcome.serial_wall, "1/s", "workers=1"))
        if outcome.parallel_wall:
            rows.append(("reps_per_s_parallel", outcome.parallel_ops / outcome.parallel_wall,
                         "1/s", f"workers={workloads.WORKERS}"))
    else:
        rows.append(("pipeline_s", statistics.median(walls), "s",
                     f"median of {len(walls)} tstats+fit pipelines"))
    for key in ("mse_p", "mse_mu", "cla_error", "p_abs_err"):
        rows.append((key, accuracy[key], "1", ""))
    rows.append(("fail_frac", fail_frac, "1", f"{sum(map(bool, outcome.failures))}"
                 f" of {outcome.ops} operations"))
    if rss_mb is not None:
        rows.append(("peak_rss_mb", rss_mb, "MB", ""))
    if setup_s is not None:
        rows.append(("setup_s", setup_s, "s", f"median of {2 * SETUP_RUNS} fresh imports,"
                     " half before and half after the workload"))
    return rows


def op_ref_gmean(outcome):
    return math.exp(statistics.fmean(math.log(r) for r in outcome.op_ratios))


def _traced(name, args, outcome, kwargs, ref):
    """Replay the untraced pass's rounds with tracing on; per-layer metrics."""
    import layers
    import primitives
    import workloads

    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        if name == "mc_catalog":
            kwargs = dict(kwargs, parallel=False)
        traced = workloads.WORKLOADS[name](args.seed, args.seconds, ref,
                                           rounds=outcome.rounds, tracer=tracer, **kwargs)
    finally:
        tracer.uninstall()
    overhead = traced.serial_wall / outcome.serial_wall - 1.0
    metrics = layers.layer_metrics(tracer, overhead)
    checks = layers.consistency(tracer, overhead)
    if traced.errors:
        checks.append(("traced_outputs", False, "; ".join(traced.errors)))

    # Replications per second, from the untraced pass; 0 where nothing ran
    # in parallel. Throughput is a per-layer figure because the cap-hit
    # replications that the catalog keeps make it vary too much from seed
    # to seed for an end-to-end bound.
    serial_rate = outcome.ops / outcome.serial_wall if outcome.parallel_wall else 0.0
    parallel_rate = outcome.parallel_ops / outcome.parallel_wall if outcome.parallel_wall else 0.0
    metrics["simulate.reps_per_s"] = (serial_rate, "1/s")
    metrics["simulate.reps_per_s_parallel"] = (parallel_rate, "1/s")
    metrics["simulate.parallel_efficiency"] = (
        parallel_rate / (workloads.WORKERS * serial_rate) if serial_rate else 0.0, "ratio")

    selfs = layers.layer_self_times(tracer)
    per_name = {n: own for n, (_, _, own) in tracer.totals().items()}
    top_layer = max(selfs, key=selfs.get)
    top_name = max(per_name, key=per_name.get)
    print("layer self times (s): " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
    print(f"largest layer by self time: {top_layer}; largest single self time: {top_name} "
          f"({per_name[top_name]:.3f} s)")
    # What each workload was chosen to stress; a change in the program can
    # move the answer, which is then a reason to revisit the workloads.
    kind, expected = DESIGN[name]
    found = top_layer if kind == "layer" else top_name
    print(f"design check: largest {kind} by self time is {expected}: "
          f"{'yes' if found == expected else 'no, it is ' + found}")
    for check, ok, detail in checks:
        print(f"trace check {check}: {'ok' if ok else 'FAILED'} ({detail})")

    probes = primitives.run(args.seed)
    for backend in ("python", "cython"):
        if backend not in probes:
            print(f"{backend}: not importable")
            continue
        p = probes[backend]
        for key, (value, unit) in p.items():
            print(f"primitive [{backend}] {key} = {value!r} {unit}")
        iters, steps = p["em_n1000.iterations"][0], p["em_n1000.newton_steps"][0]
        kernel_s, over = p["em_n1000.kernel_s"][0], p["em_n1000.overhead_s_per_iter"][0]
        if iters and steps:
            print(f"EM n=1000 [{backend}]: {p['em_n1000.traced_s'][0]:.4f} s = {iters} iterations"
                  f" x ({steps / iters:.2f} Newton steps x {kernel_s / steps * 1e6:.1f} us"
                  f" kernel time + {over * 1e3:.3f} ms overhead)")
    from logconmix import kernels
    for key, value in probes[kernels.BACKEND].items():
        metrics[f"probe.{key}"] = value

    RESULTS.mkdir(exist_ok=True)
    tracer.write_csv(RESULTS / f"spans-{name}-seed{args.seed}.csv")
    extra = {"layer_self_s": selfs, "checks": [list(c) for c in checks],
             "probes": {b: {k: v[0] for k, v in m.items()} for b, m in probes.items()},
             "raised": {k: v for k, v in tracer.counts.items() if ".raised:" in k}}
    return metrics, all(ok for _, ok, _ in checks), extra


def main(argv=None):
    args = _parse_args(argv)
    if _import_package() is None:
        print(f"error: no logconmix sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    from reference import Reference

    machine = _machine(args)
    print("machine: " + json.dumps(machine, sort_keys=True))
    return _run(args, machine, Reference())


def _run(args, machine, ref):
    import workloads

    name = args.workload
    kwargs = _workload_kwargs(name)
    # Set-up is timed on both sides of the workload, so that the median
    # spans the machine's state over the whole run.
    setup_walls = _setup_walls() if args.trace == 0 else []
    outcome = workloads.WORKLOADS[name](args.seed, args.seconds, ref, **kwargs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_walls += _setup_walls() if args.trace == 0 else []
    setup_s = statistics.median(setup_walls) if setup_walls else None

    op_s = statistics.median(outcome.op_walls)
    ref_s = statistics.median(outcome.ref_walls)
    failed = sum(1 for f in outcome.failures if f)
    fail_frac = failed / outcome.ops
    accuracy = workloads.accuracy_means(outcome)
    for metric, value, unit, note in _issue_metrics(
            name, outcome, accuracy, fail_frac, setup_s, rss_mb if args.trace == 0 else None):
        print(f"metric {metric} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    reasons = {}
    for fails in outcome.failures:
        for reason in fails:
            reasons[reason] = reasons.get(reason, 0) + 1
    print("failed operations by reason: " + json.dumps(reasons, sort_keys=True))
    for note in outcome.notes:
        print(f"note: {note}")
    for error in outcome.errors:
        print(f"output check FAILED: {error}")
    correct = not outcome.errors
    extra = {}

    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ref_gmean": (op_ref_gmean(outcome), "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics, traced_ok, extra = _traced(name, args, outcome, kwargs, ref)
        correct = correct and traced_ok
        metrics["op_s_p50"] = (op_s, "s")
        metrics["ref_s_p50"] = (ref_s, "s")
        metrics["fail_frac"] = (fail_frac, "ratio")
        for key, value in accuracy.items():
            metrics[key] = (value, "ratio")

    result = {
        "correct": correct,
        "attempted": outcome.ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(machine=machine, rounds=outcome.rounds, op_walls=outcome.op_walls,
                  ref_walls=outcome.ref_walls, op_ratios=outcome.op_ratios,
                  setup_walls=setup_walls, failure_reasons=reasons,
                  errors=outcome.errors, notes=outcome.notes, result=result, **extra)
    with open(RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
