"""End-to-end gate for the package: solver agreement with an independent
reference maximizer, the estimator's structural invariants, EM likelihood
monotonicity across all catalog models, Monte-Carlo recovery bands at desk
scale, identifiability verdicts, the t-statistic ingestion pipeline on null
data, and byte-level determinism of the simulation command.

Every random draw is seeded, so each assertion is reproducible; the
statistical bands were fixed in advance of freezing the seeds.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import kstest

from logconmix.cli import main
from logconmix.em import run_em
from logconmix.families import (Exponential, StudentT, Uniform,
                                sample_mixture)
from logconmix.identifiability import check_identifiability
from logconmix.logcon import (LogConcaveFit, WeightedSample,
                              eval_log_density, fit_weighted_logconcave)
from logconmix.rng import child_seed
from logconmix.simulate import ScenarioSpec, model_catalog, run_scenario

from conftest import (independent_integral, random_small_sample,
                      reference_concave_mle)


def test_solver_matches_reference_maximizer_on_small_samples():
    # 50 weighted samples with 2-4 points in [0, 1]: the active-set Newton
    # objective agrees with a grid-start box-constrained reference maximizer
    # to 1e-3, and the 2-point equal-weight fit is the exact uniform density
    # on the span, phi = -log(x2 - x1) at both knots.
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(50):
        m = int(rng.choice([2, 3, 4]))
        pts, w = random_small_sample(rng, m)
        fit = fit_weighted_logconcave(WeightedSample.from_observations(pts, w))
        _, ref_obj = reference_concave_mle(pts, w)
        assert abs(fit.objective - ref_obj) <= 1e-3
        if m == 2:
            eq = fit_weighted_logconcave(
                WeightedSample.from_observations(pts, np.array([0.5, 0.5])))
            target = -math.log(pts[1] - pts[0])
            assert np.max(np.abs(eq.phi - target)) <= 1e-8
    assert time.monotonic() - t0 < 60.0


def test_every_fit_is_normalized_and_concave():
    # 200 fits over assorted sample shapes: the fitted density integrates to
    # one within 1e-6 (independent expm1 quadrature, not the solver's own
    # integral) and the knot slopes never increase by more than 1e-9.
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    for i in range(200):
        n = int(rng.integers(5, 61))
        kind = i % 3
        if kind == 0:
            pts = rng.normal(0.0, float(rng.uniform(0.5, 3.0)), n)
        elif kind == 1:
            pts = rng.exponential(float(rng.uniform(0.5, 2.0)), n)
        else:
            pts = rng.uniform(-2.0, 2.0, n) * float(rng.uniform(0.5, 5.0))
        w = rng.uniform(0.05, 1.0, n)
        fit = fit_weighted_logconcave(
            WeightedSample.from_observations(pts, w / w.sum()))
        assert abs(independent_integral(fit.knots, fit.phi) - 1.0) <= 1e-6
        slopes = np.diff(fit.phi) / np.diff(fit.knots)
        if slopes.size > 1:
            assert np.max(np.diff(slopes)) <= 1e-9
    assert time.monotonic() - t0 < 60.0


def test_fit_is_affine_equivariant():
    # For y = a x + b (a > 0) the fitted log-density transforms as
    # phi_y(a x + b) = phi_x(x) - log a; checked at every knot of the
    # original fit for 20 samples x 10 random transforms.
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(8, 40))
        pts = np.sort(rng.normal(0.0, 1.0, n))
        w = rng.uniform(0.2, 1.0, n)
        w = w / w.sum()
        base = fit_weighted_logconcave(WeightedSample.from_observations(pts, w))
        for _ in range(10):
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.uniform(-2.0, 2.0))
            moved = fit_weighted_logconcave(
                WeightedSample.from_observations(a * pts + b, w))
            lhs = eval_log_density(moved, a * base.knots + b)
            assert np.max(np.abs(lhs - (base.phi - math.log(a)))) <= 1e-6


def test_em_likelihood_never_decreases_across_all_models():
    # 100 EM runs cycling through all six catalog models and three mixing
    # proportions at n = 300: every log-likelihood trace is nondecreasing
    # within -1e-8 per step, whether or not the run converges.
    t0 = time.monotonic()
    catalog = model_catalog()
    for i in range(100):
        spec = catalog[(i % 6) + 1]
        p = (0.2, 0.5, 0.8)[(i // 6) % 3]
        x, _ = sample_mixture(spec.known, spec.unknown, p, 300,
                              child_seed(4000, i))
        res = run_em(x, spec.known)
        diffs = np.diff(res.loglik_trace)
        if diffs.size:
            assert float(np.min(diffs)) >= -1e-8
    assert time.monotonic() - t0 < 300.0


@pytest.mark.xfail(strict=True, reason="the M-step maximizes the weights that "
                   "logcon._Grid.sample floors at WEIGHT_FLOOR_SCALE / m, not the "
                   "EM surrogate, so the trace can drop")
@pytest.mark.parametrize("rep", [0, 1])
def test_em_likelihood_never_decreases_on_model5_at_n1000(python_backend, rep):
    # Model 5, p = 0.5, n = 1000: the traces fall by -1.22e-7 (rep 0) and
    # -3.93e-8 (rep 1) at the last iteration of the second pass, step 14 of
    # 15 and 13 of 14, and both runs report converged=True. The n = 300
    # samples above do not reach this; when the M-step maximizes exactly the
    # EM surrogate, this test passes and its xfail marker must go.
    spec = model_catalog()[5]
    x, _ = sample_mixture(spec.known, spec.unknown, 0.5, 1000,
                          child_seed(4164515825, rep))
    res = run_em(x, spec.known)
    assert res.converged
    assert float(np.min(np.diff(res.loglik_trace))) >= -1e-8


def test_normal_mixture_recovery_bands():
    # Normal(0,2) + Normal(3,1), n = 1000, 50 replications per p. Frozen
    # reference classification errors for this design: 0.0960 / 0.1094 /
    # 0.0645 at p = 0.2 / 0.5 / 0.8.
    t0 = time.monotonic()
    reference_cla = {0.2: 0.0960, 0.5: 0.1094, 0.8: 0.0645}
    for p, cla in reference_cla.items():
        s = run_scenario(ScenarioSpec(model_id=1, p=p, n=1000, reps=50,
                                      seed=101))
        assert abs(s.bias_p) <= 0.03
        assert s.mse_p <= 0.002
        assert abs(s.mean_cla_error - cla) <= 0.02
    assert time.monotonic() - t0 < 900.0


def test_exponential_mixture_recovery_bands():
    # Exponential(1) + shifted exponential, p = 0.2, n = 1000, 50 reps;
    # reference classification error 0.0709.
    s = run_scenario(ScenarioSpec(model_id=3, p=0.2, n=1000, reps=50,
                                  seed=202))
    assert abs(s.bias_p) <= 0.03
    assert 0.05 <= s.mean_cla_error <= 0.09


def test_location_parameter_recovery():
    # Normal(0,2) + shifted chi-square with true location 5, p = 0.5,
    # n = 1000, 50 reps: the posterior-weighted location estimate is
    # within 0.1 of the truth on average.
    s = run_scenario(ScenarioSpec(model_id=4, p=0.5, n=1000, reps=50,
                                  seed=303))
    assert abs((5.0 + s.bias_mu) - 5.0) <= 0.1


def test_identifiability_verdicts_are_exact():
    # Student-t known component: identifiable against any log-concave
    # alternative, no fit needed.
    assert check_identifiability(StudentT(5.0)).verdict == "Identifiable"

    # Exponential(1) known component plus a fit whose rightmost slope is
    # steeper than -1: the sufficient tail condition holds.
    fit_exp = LogConcaveFit(knots=np.array([0.0, 1.0, 2.0]),
                            phi=np.array([0.0, -1.0, -3.0]),
                            objective=0.0, kkt_residual=0.0, converged=True)
    report = check_identifiability(Exponential(1.0), fit_exp)
    assert report.verdict == "ConditionHolds"

    # Uniform(0,1) known component plus a fit supported on a strict
    # subinterval: the support-containment condition holds.
    fit_sub = LogConcaveFit(knots=np.array([0.2, 0.7]),
                            phi=np.array([math.log(2.0), math.log(2.0)]),
                            objective=0.0, kkt_residual=0.0, converged=True)
    report = check_identifiability(Uniform(0.0, 1.0), fit_sub)
    assert report.verdict == "ConditionHolds"


def test_null_expression_matrix_yields_uniform_pvalues_and_small_p(tmp_path):
    # 200 genes x (10 + 10) samples, all rows null: the emitted two-sided
    # p-values are consistent with Uniform(0,1) (KS test at level 0.01) and
    # fitting the mixture to them with a uniform known component estimates
    # at most a 0.1 unknown fraction.
    rng = np.random.default_rng(7)
    rows = ["gene," + ",".join(f"s{i}" for i in range(20))]
    for g in range(200):
        rows.append(f"g{g}," + ",".join(
            repr(float(v)) for v in rng.normal(0.0, 1.0, 20)))
    src = tmp_path / "expr.csv"
    src.write_text("\n".join(rows) + "\n", encoding="utf-8")

    tcsv = tmp_path / "t.csv"
    assert main(["tstats", str(src), "--group1-cols", "10",
                 "--out", str(tcsv)]) == 0
    lines = tcsv.read_text(encoding="utf-8").strip().split("\n")
    pvals = np.array([float(ln.split(",")[2]) for ln in lines[1:]])
    assert pvals.shape == (200,)
    assert kstest(pvals, "uniform").pvalue > 0.01

    pcsv = tmp_path / "p.csv"
    pcsv.write_text("x\n" + "\n".join(repr(float(v)) for v in pvals) + "\n",
                    encoding="utf-8")
    out = tmp_path / "fit.json"
    assert main(["fit", str(pcsv), "--f0", "uniform:0,1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["p_hat"] <= 0.1


def test_simulation_command_is_byte_deterministic(tmp_path):
    # Same seed -> identical bytes, run to run and serial vs parallel.
    args = ["simulate", "--model", "1", "--p", "0.5", "--n", "200",
            "--reps", "3", "--seed", "11"]
    first, second, parallel = (tmp_path / f"run{i}.csv" for i in range(3))
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert main(args + ["--workers", "3", "--out", str(parallel)]) == 0
    assert first.read_bytes() == second.read_bytes() == parallel.read_bytes()
