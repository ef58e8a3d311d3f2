"""The benchmark workloads and the checks on their outputs.

Every input is generated here from the workload seed; the program receives
only the generated samples or files. A workload runs a whole number of
rounds of fixed work: as many as fit in the time budget at the round's
nominal length (``ROUND_SECONDS``), and at least one. The count depends on
the budget alone, never on how fast the rounds ran, so a seed always gives
the same operations and the same outputs, failed operations included. A
traced replay runs the same rounds.

- ``mc_catalog``: ``simulate.run_scenario`` over models 1-6 x p in
  {0.1, 0.5, 0.9} x n in {200, 1000}, 2 replications per cell, once at one
  worker and once at ``min(2, nproc)`` workers.
- ``pvalue_cli``: ``logconmix tstats`` then ``logconmix fit --f0 uniform:0,1``
  in-process on a 20000-gene x 20-sample expression matrix.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from logconmix import cli, em, simulate
from logconmix.errors import AllReplicationsFailedError
from logconmix.logcon import cdf

from layers import em_exit

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
WORKERS = min(2, NPROC)

MC_MODELS = (1, 2, 3, 4, 5, 6)
MC_PS = (0.1, 0.5, 0.9)
MC_NS = (200, 1000)
MC_REPS = 2  # the smallest count that run_scenario hands to a worker pool

GENES = 20000
GROUP = 10  # samples per group: 10 vs 10 columns
SHIFTED = 0.10  # share of genes with a mean shift in group 1
CELL_REFS = 3  # reference samples before each scenario cell
PIPELINE_REFS = 4  # reference samples before and again after each pipeline

# Nominal wall time of one round, as measured on a 2-core Intel Xeon VM
# (Python 3.11, numpy 2.4, python kernel backend): the serial and parallel
# catalog passes, or one matrix generation plus one tstats+fit pipeline.
ROUND_SECONDS = {"mc_catalog": 35.0, "pvalue_cli": 8.0}


def derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def check_em_result(result) -> List[str]:
    """Names of the output checks that an EmResult fails (empty when sound).

    Tolerances for the likelihood trace and the slopes are those of the
    acceptance suite.
    """
    failed = []
    p = result.p_hat
    if not (0.0 <= p <= 1.0):
        failed.append("p_in_unit_interval")
    if not abs(p - float(np.mean(1.0 - result.omega))) <= 1e-12:
        failed.append("p_equals_mean_posterior")
    steps = np.diff(result.loglik_trace)
    if steps.size and float(np.min(steps)) < -1e-8:
        failed.append("loglik_nondecreasing")
    if not abs(float(cdf(result.fit, result.fit.support[1])) - 1.0) <= 1e-9:
        failed.append("cdf_reaches_one")
    slopes = np.diff(result.fit.phi) / np.diff(result.fit.knots)
    if slopes.size > 1 and float(np.max(np.diff(slopes))) > 1e-9:
        failed.append("phi_concave")
    return failed


def em_failures(result) -> List[str]:
    """Why an EM run counts as a failed operation: a non-converged or
    degenerate exit, or a failed output check."""
    out = [f"check:{name}" for name in check_em_result(result)]
    if em_exit(result) != "converged":
        out.append(f"exit:{em_exit(result)}")
    return out


class Capture:
    """Collects what ``run_em`` returns or raises, seen from one calling
    module. The wrapper adds one list append per call."""

    def __init__(self, module):
        self.module = module
        self.results: List[object] = []  # EmResult, or the exception raised

    def __enter__(self):
        original = self.original = self.module.run_em

        def run_em(*args, **kwargs):
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self.results.append(exc)
                raise
            self.results.append(result)
            return result

        self.module.run_em = run_em
        return self

    def __exit__(self, *exc):
        self.module.run_em = self.original
        return False


@dataclass
class Outcome:
    """What one pass of a workload did."""

    rounds: int = 0
    op_walls: List[float] = field(default_factory=list)  # serial, per operation
    ref_walls: List[float] = field(default_factory=list)  # Reference.sample walls
    # Per operation: its wall over the median of the reference samples taken
    # next to it, so that the machine's drift between operations cancels.
    op_ratios: List[float] = field(default_factory=list)
    serial_wall: float = 0.0
    parallel_wall: float = 0.0
    parallel_ops: int = 0
    failures: List[List[str]] = field(default_factory=list)  # per operation
    # Wrong outputs: serial and parallel results differ, or the CLI's files
    # are not what it promises. A failed EM output check is a failed
    # operation (in ``failures``), named in ``notes``.
    errors: List[str] = field(default_factory=list)
    accuracy: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add(self, key, value):
        self.accuracy.setdefault(key, []).append(float(value))

    @property
    def ops(self) -> int:
        return len(self.failures)


def planned_rounds(name: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[name]))


def _rounds(outcome: Outcome, rounds: int, one_round: Callable[[int], None]) -> None:
    while outcome.rounds < rounds:
        one_round(outcome.rounds)
        outcome.rounds += 1


def _span(tracer, name):
    return tracer.region(name) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------- mc_catalog

def _mc_specs(seed: int, rnd: int) -> List[simulate.ScenarioSpec]:
    cells = itertools.product(MC_MODELS, MC_PS, MC_NS)
    return [simulate.ScenarioSpec(model_id=m, p=p, n=n, reps=MC_REPS,
                                  seed=derived_seed(seed, rnd, i))
            for i, (m, p, n) in enumerate(cells)]


def _run_cell(spec, workers, tracer=None):
    with _span(tracer, "simulate.run_scenario"):
        try:
            return simulate.run_scenario(spec, workers=workers)
        except AllReplicationsFailedError:
            return None


def _mc_pass(specs, workers, tracer=None, ref=None, out=None):
    """Run every cell; with ``ref``, time each cell and record its walls in ``out``."""
    rows = []
    for spec in specs:
        if ref is None:
            rows.append(_run_cell(spec, workers))
            continue
        local = ref.sample(CELL_REFS)
        t0 = perf_counter()
        rows.append(_run_cell(spec, workers, tracer))
        wall = perf_counter() - t0
        out.ref_walls += local
        out.serial_wall += wall
        out.op_walls.append(wall / MC_REPS)
        out.op_ratios.append(wall / MC_REPS / statistics.median(local))
    return rows


def _mc_table(rows) -> str:
    failed = [str(i) for i, row in enumerate(rows) if row is None]
    return (simulate.summary_table([row for row in rows if row is not None])
            + "all-failed cells: " + ",".join(failed) + "\n")


def mc_catalog(seed, seconds, ref, rounds=None, tracer=None, parallel=True) -> Outcome:
    out = Outcome()
    # Warm-up, neither timed nor counted: first calls into numpy and the
    # package pay one-off costs that a Monte-Carlo study pays once. A traced
    # replay follows a warm pass and skips it, so its spans cover only the
    # replayed rounds.
    if tracer is None:
        _run_cell(simulate.ScenarioSpec(model_id=1, p=0.5, n=200, reps=MC_REPS,
                                        seed=derived_seed(seed, 999)), 1)

    def one_round(rnd):
        specs = _mc_specs(seed, rnd)
        with Capture(simulate) as cap:
            rows = _mc_pass(specs, 1, tracer, ref, out)
        if parallel:
            t0 = perf_counter()
            prows = _mc_pass(specs, WORKERS)
            out.parallel_wall += perf_counter() - t0
            out.parallel_ops += MC_REPS * len(specs)
            if _mc_table(rows) != _mc_table(prows):
                out.errors.append(
                    f"determinism: round {rnd} summary_table differs between "
                    f"workers=1 and workers={WORKERS}")
        # The replications ran in spec order, MC_REPS at a time.
        captured = iter(cap.results)
        for spec, row in zip(specs, rows):
            reported = 0 if row is None else row.failures
            seen = 0
            for rep in range(MC_REPS):
                result = next(captured)
                if isinstance(result, Exception):
                    out.failures.append([f"raised:{type(result).__name__}"])
                    out.notes.append(f"failed: model {spec.model_id} p={spec.p} n={spec.n} "
                                     f"seed {spec.seed} rep {rep}: raised {result!r}")
                    seen += 1
                    continue
                fails = em_failures(result)
                out.failures.append(fails)
                seen += any(f.startswith("exit:") for f in fails)
                if fails:
                    out.notes.append(f"failed: model {spec.model_id} p={spec.p} n={spec.n} "
                                     f"seed {spec.seed} rep {rep}: {', '.join(fails)}")
                if not fails:
                    out.add("p_abs_err", abs(result.p_hat - spec.p))
            if row is not None:
                out.add("mse_p", row.mse_p)
                out.add("mse_mu", row.mse_mu)
                out.add("cla_error", row.mean_cla_error)
            if seen != (MC_REPS if row is None else reported):
                out.notes.append(f"model {spec.model_id} p={spec.p} n={spec.n}: "
                                 f"summary counts {reported} failures, EM exits {seen}")

    _rounds(out, rounds or planned_rounds("mc_catalog", seconds), one_round)
    return out


# ---------------------------------------------------------------- pvalue_cli

def expression_matrix(seed: int, path: str) -> np.ndarray:
    """Write a GENES x 2*GROUP matrix CSV; returns the shifted-gene mask.

    A tenth of the genes get a group-1 mean shift of 0.5-3 standard
    deviations with a random sign, so their p-values range from clearly
    small to indistinguishable from the null.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (GENES, 2 * GROUP))
    shifted = np.zeros(GENES, dtype=bool)
    idx = rng.choice(GENES, int(SHIFTED * GENES), replace=False)
    shifted[idx] = True
    effect = rng.uniform(0.5, 3.0, idx.size) * rng.choice((-1.0, 1.0), idx.size)
    x[idx, :GROUP] += effect[:, None]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("gene," + ",".join(f"s{j}" for j in range(2 * GROUP)) + "\n")
        for g in range(GENES):
            handle.write(f"g{g}," + ",".join(repr(float(v)) for v in x[g]) + "\n")
    return shifted


def _pvalue_column(tstats_csv: str, values_csv: str) -> int:
    """Turn 'gene,t,p_value' into the 'x' CSV that `fit` reads; returns rows."""
    rows = 0
    with open(tstats_csv, encoding="utf-8", newline="") as src, \
            open(values_csv, "w", encoding="utf-8", newline="") as dst:
        reader = csv.reader(src)
        next(reader)
        dst.write("x\n")
        for row in reader:
            dst.write(row[2] + "\n")
            rows += 1
    return rows


def pvalue_cli(seed, seconds, ref, rounds=None, tracer=None, workdir=None) -> Outcome:
    out = Outcome()
    tmp = tempfile.mkdtemp(prefix="pvalue_cli-", dir=workdir)
    matrix, tstats = os.path.join(tmp, "matrix.csv"), os.path.join(tmp, "tstats.csv")
    values, mix = os.path.join(tmp, "pvalues.csv"), os.path.join(tmp, "mix.json")

    def one_round(rnd):
        shifted = expression_matrix(derived_seed(seed, rnd), matrix)
        for stale in (tstats, values, mix):
            if os.path.exists(stale):
                os.remove(stale)
        before = ref.sample(PIPELINE_REFS)
        t0 = perf_counter()
        with Capture(cli) as cap, contextlib.redirect_stdout(io.StringIO()):
            with _span(tracer, "cli.main"):
                rc_t = cli.main(["tstats", matrix, "--group1-cols", str(GROUP),
                                 "--out", tstats])
            rows = _pvalue_column(tstats, values) if rc_t == 0 else 0
            with _span(tracer, "cli.main"):
                rc_f = cli.main(["fit", values, "--f0", "uniform:0,1", "--out", mix]) \
                    if rc_t == 0 else -1
        wall = perf_counter() - t0
        after = ref.sample(PIPELINE_REFS)
        out.ref_walls += before + after
        out.op_walls.append(wall)
        out.op_ratios.append(wall / statistics.median(before + after))
        out.serial_wall += wall
        wrong = []  # the pipeline's files are not what the commands promise
        if rc_t != 0:
            wrong.append(f"cli:tstats_exit_{rc_t}")
        if rows != GENES:
            wrong.append("cli:tstats_rows")
        if rc_f != 0:
            wrong.append(f"cli:fit_exit_{rc_f}")
        try:
            with open(mix, encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, ValueError):
            doc = None
            wrong.append("cli:mix_json_parses")
        fails = list(wrong)
        result = cap.results[-1] if cap.results else None
        if isinstance(result, Exception):
            fails.append(f"raised:{type(result).__name__}")
        elif result is not None:
            fails += em_failures(result)
            if doc is not None and doc.get("p_hat") != result.p_hat:
                wrong.append("cli:mix_json_p_hat")
                fails.append("cli:mix_json_p_hat")
            pvals = np.loadtxt(values, skiprows=1, ndmin=1)
            out.add("p_abs_err", abs(result.p_hat - SHIFTED))
            out.add("mse_p", (result.p_hat - SHIFTED) ** 2)
            out.add("cla_error", em.classification_error(result.omega, (~shifted).astype(float)))
            if result.degenerate is None:
                target = float(np.mean(pvals[shifted]))
                out.add("mse_mu", (em.estimate_mu(pvals, result.omega) - target) ** 2)
        out.failures.append(fails)
        if fails:
            out.notes.append(f"failed: round {rnd}: {', '.join(fails)}")
        if wrong:
            out.errors.append(f"round {rnd}: {', '.join(wrong)}")

    try:
        _rounds(out, rounds or planned_rounds("pvalue_cli", seconds), one_round)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


WORKLOADS = {
    "mc_catalog": mc_catalog,
    "pvalue_cli": pvalue_cli,
}


def accuracy_means(outcome: Outcome) -> Dict[str, float]:
    keys = ("mse_p", "mse_mu", "cla_error", "p_abs_err")
    # A workload whose every fit failed has no estimate to score; report 0.
    return {k: float(np.mean(outcome.accuracy[k])) if outcome.accuracy.get(k) else 0.0
            for k in keys}
