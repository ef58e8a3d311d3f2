"""Weighted log-concave maximum likelihood: closed-form oracles, an
independent reference maximizer, invariances, consistency, and the
serialization round trips."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
import scipy.stats as st

from logconmix import kernels, logcon
from logconmix.errors import DegenerateSampleError
from logconmix.logcon import (LogConcaveFit, WeightedSample, cdf,
                              eval_log_density, fit_from_dict, fit_to_dict,
                              fit_weighted_logconcave, load_fit_json,
                              load_weighted_csv, objective, save_fit_json)

from conftest import (independent_integral, independent_objective,
                      random_small_sample, reference_concave_mle)

# Two points {0, 1} with weights (0.3, 0.7): the maximizer is the exponential
# tilt c * e^(beta x) on [0, 1] whose mean matches the weighted mean 0.7.
# beta solves 1/(1 - e^-beta) - 1/beta = 0.7 (mpmath findroot, dps=40).
TILT_BETA = 2.6721038552733855446
TILT_PHI = (-1.617627135687183905, 1.0544767195862016397)
TILT_OBJECTIVE = 0.25284556300418597627


def test_two_points_equal_weights_give_uniform_density():
    for x1, x2 in [(0.0, 1.0), (-2.0, 3.0), (1.25, 1.375)]:
        sample = WeightedSample(np.array([x1, x2]), np.array([0.5, 0.5]))
        fit = fit_weighted_logconcave(sample)
        span = x2 - x1
        assert fit.converged
        np.testing.assert_allclose(fit.phi, -math.log(span), atol=1e-10)
        assert fit.objective == pytest.approx(-math.log(span), abs=1e-10)


def test_two_points_unequal_weights_match_tilt_oracle():
    sample = WeightedSample(np.array([0.0, 1.0]), np.array([0.3, 0.7]))
    fit = fit_weighted_logconcave(sample)
    assert fit.converged
    np.testing.assert_allclose(fit.knots, [0.0, 1.0], atol=0)
    np.testing.assert_allclose(fit.phi, TILT_PHI, atol=1e-8)
    assert fit.objective == pytest.approx(TILT_OBJECTIVE, abs=1e-10)
    # independent restatement: the fitted slope is the tilt rate and the
    # fitted density has mean exactly 0.7 (first-moment stationarity)
    slope = (fit.phi[1] - fit.phi[0]) / (fit.knots[1] - fit.knots[0])
    assert slope == pytest.approx(TILT_BETA, abs=1e-7)
    mean = 1.0 / (1.0 - math.exp(-slope)) - 1.0 / slope
    assert mean == pytest.approx(0.7, abs=1e-9)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_small_samples_match_reference_maximizer(m, rng):
    for _ in range(8):
        pts, w = random_small_sample(rng, m)
        fit = fit_weighted_logconcave(WeightedSample(pts, w))
        ref_phi, ref_obj = reference_concave_mle(pts, w)
        # the reference maximizer is generic; agreement to 1e-6 on the
        # objective pins both implementations to the same optimum
        assert fit.objective == pytest.approx(ref_obj, abs=1e-6)
        phi_at_points = eval_log_density(fit, pts)
        assert independent_objective(pts, w, phi_at_points) >= ref_obj - 1e-6


def test_fitted_density_is_normalized(rng):
    for n in (5, 25, 120):
        pts = np.sort(rng.normal(0.0, 1.5, n))
        w = rng.uniform(0.2, 1.0, n)
        sample = WeightedSample(pts, w / w.sum())
        fit = fit_weighted_logconcave(sample)
        assert abs(independent_integral(fit.knots, fit.phi) - 1.0) <= 1e-8


def test_fitted_phi_is_concave(rng):
    for n in (6, 40, 150):
        pts = np.sort(rng.standard_t(4, n) + rng.uniform(-1, 1))
        sample = WeightedSample.from_observations(pts)
        fit = fit_weighted_logconcave(sample)
        slopes = np.diff(fit.phi) / np.diff(fit.knots)
        assert np.all(np.diff(slopes) <= 1e-9)


def test_objective_function_matches_independent_form(rng):
    pts, w = random_small_sample(rng, 9)
    sample = WeightedSample(pts, w)
    fit = fit_weighted_logconcave(sample)
    got = objective(sample, fit.knots, fit.phi)
    # the public objective evaluates knots that are a subset of the points,
    # with the solver's own formula of psi
    assert got == fit.objective
    assert got == pytest.approx(independent_objective(
        sample.points, sample.weights, eval_log_density(fit, sample.points)), abs=1e-12)


@pytest.mark.parametrize("rounds", [None, 1, 2, 3], ids=["uncapped", "rounds_1",
                                                         "rounds_2", "rounds_3"])
def test_objective_is_the_fits_psi_to_the_bit(request, python_backend, monkeypatch,
                                              rounds):
    # a fit's objective is psi at the knots and phi it returns, on either
    # backend, also when the round cap ends the fit right after a release
    if rounds is not None:
        monkeypatch.setattr(logcon, "_MAX_OUTER_ITERS", rounds)
    for backend in ("python", "compiled"):
        if backend == "compiled":  # fetched after the python pass has run
            request.getfixturevalue("compiled_kernels")
        kernels.set_backend(backend)
        rng = np.random.default_rng(26)
        for _ in range(40):
            m = int(rng.integers(5, 301))
            sample = WeightedSample.from_observations(rng.normal(0.0, 1.0, m),
                                                      rng.uniform(0.0, 1.0, m))
            fit = fit_weighted_logconcave(sample)
            assert objective(sample, fit.knots, fit.phi) == fit.objective, (backend, m)


def test_affine_equivariance(rng):
    pts = np.sort(rng.normal(2.0, 1.0, 40))
    w = rng.uniform(0.5, 1.5, 40)
    w /= w.sum()
    base = fit_weighted_logconcave(WeightedSample(pts, w))
    for a, b in [(2.0, -3.0), (0.25, 1.0), (7.5, 0.0)]:
        moved = fit_weighted_logconcave(WeightedSample(a * pts + b, w))
        np.testing.assert_allclose(moved.knots, a * base.knots + b,
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(moved.phi, base.phi - math.log(a),
                                   atol=1e-6)


def test_permutation_invariance_via_from_observations(rng):
    pts = rng.normal(0.0, 1.0, 30)
    w = rng.uniform(0.5, 1.5, 30)
    perm = rng.permutation(30)
    f1 = fit_weighted_logconcave(WeightedSample.from_observations(pts, w))
    f2 = fit_weighted_logconcave(
        WeightedSample.from_observations(pts[perm], w[perm]))
    np.testing.assert_allclose(f1.knots, f2.knots, atol=1e-12)
    np.testing.assert_allclose(f1.phi, f2.phi, atol=1e-10)


def test_duplicate_points_merge_weights():
    merged = fit_weighted_logconcave(
        WeightedSample.from_observations(np.array([0.0, 0.0, 1.0])))
    explicit = fit_weighted_logconcave(
        WeightedSample(np.array([0.0, 1.0]), np.array([2.0 / 3.0, 1.0 / 3.0])))
    np.testing.assert_allclose(merged.knots, explicit.knots, atol=0)
    np.testing.assert_allclose(merged.phi, explicit.phi, atol=1e-9)


def test_from_observations_normalizes_weights():
    s = WeightedSample.from_observations(np.array([0.0, 1.0]),
                                         np.array([2.0, 2.0]))
    np.testing.assert_allclose(s.weights, [0.5, 0.5], atol=0)
    s2 = WeightedSample.from_observations(np.array([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(s2.points, [1.0, 2.0, 3.0], atol=0)
    np.testing.assert_allclose(s2.weights, 1.0 / 3.0, atol=1e-15)


def test_weights_whose_sum_overflows_normalize_as_at_a_smaller_scale():
    # finite weights whose sum overflows: a division by the infinite total
    # would leave only the two end floors, [0.5, 0, 0, 0, 0.5]; scaling by a
    # power of two is exact, so they give the bits of any smaller such scale
    big = 1e308 * np.array([1.0, 1.5, 1.0, 1.25, 1.0])
    pts = np.arange(5.0)
    assert np.isfinite(big).all()
    got = WeightedSample.from_observations(pts, big).weights
    want = WeightedSample.from_observations(pts, np.ldexp(big, -1000)).weights
    assert got.tobytes() == want.tobytes()
    np.testing.assert_allclose(got, [4 / 23, 6 / 23, 4 / 23, 5 / 23, 4 / 23], rtol=1e-15)
    # ties merge before the sum: two tied weights of 1e308 overflow there
    tied = WeightedSample.from_observations([0.0, 1.0, 1.0, 2.0], [1e308] * 4)
    assert tied.weights.tolist() == [0.25, 0.5, 0.25]
    four = WeightedSample.from_observations([0.0, 1.0, 2.0, 3.0], [1e308] * 4)
    assert four.weights.tolist() == [0.25] * 4


def test_a_solver_fit_is_checked_where_it_can_fail():
    # the solver's knots are grid points, so only phi is checked, with the
    # public constructor's message; what it builds the constructor accepts
    fit = fit_weighted_logconcave(WeightedSample.from_observations([0.0, 1.0, 3.0]))
    public = LogConcaveFit(knots=fit.knots, phi=fit.phi, objective=fit.objective,
                           kkt_residual=fit.kkt_residual, converged=fit.converged)
    for name in ("knots", "phi"):
        got, want = getattr(fit, name), getattr(public, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert (fit.objective, fit.kkt_residual, fit.converged) == \
        (public.objective, public.kkt_residual, public.converged)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^phi values must be finite$"):
            logcon._solver_fit(fit.knots, np.array([0.0, bad, -1.0]), 0.0, 0.0, True)


def test_consistency_on_gaussian_sample():
    # with n = 2000 equal-weight draws the fitted CDF tracks the truth
    draws = st.norm(0.0, 1.0).rvs(size=2000, random_state=7)
    fit = fit_weighted_logconcave(WeightedSample.from_observations(draws))
    xs = np.linspace(-2.5, 2.5, 41)
    gap = np.max(np.abs(cdf(fit, xs) - st.norm(0.0, 1.0).cdf(xs)))
    assert gap <= 0.1


def test_cdf_properties():
    fit = fit_weighted_logconcave(
        WeightedSample(np.array([0.0, 1.0]), np.array([0.5, 0.5])))
    xs = np.array([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    vals = cdf(fit, xs)
    np.testing.assert_allclose(vals, [0.0, 0.0, 0.25, 0.5, 1.0, 1.0],
                               atol=1e-9)
    assert np.all(np.diff(vals) >= -1e-12)


def test_cdf_and_objective_do_not_depend_on_the_kernel_backend(compiled_kernels,
                                                               python_backend):
    # each fit is made once; cdf and objective then evaluate it with either
    # backend active and must give the same bytes
    rng = np.random.default_rng(0)
    for _ in range(20):
        sample = WeightedSample.from_observations(rng.normal(0.0, 1.0, 500))
        fit = fit_weighted_logconcave(sample)
        grid = np.linspace(fit.knots[0] - 0.5, fit.knots[-1] + 0.5, 1001)
        values = []
        for backend in ("python", "compiled"):
            kernels.set_backend(backend)
            values.append((cdf(fit, grid).tobytes(),
                           objective(sample, fit.knots, fit.phi)))
        assert values[0] == values[1]


def test_nan_points_raise_and_infinities_keep_their_meaning():
    fit = fit_weighted_logconcave(WeightedSample.from_observations(
        np.linspace(-1.0, 1.0, 21) ** 3))
    for fn in (cdf, eval_log_density):
        with pytest.raises(ValueError, match="NaN at index 0"):
            fn(fit, math.nan)
        with pytest.raises(ValueError, match="NaN at index 1"):
            fn(fit, [0.0, math.nan, math.nan])
    assert list(cdf(fit, [-math.inf, math.inf])) == [0.0, 1.0]
    assert list(eval_log_density(fit, [-math.inf, math.inf])) == [-math.inf, -math.inf]


def test_eval_log_density_interpolates_and_vanishes_outside():
    fit = fit_weighted_logconcave(
        WeightedSample(np.array([0.0, 2.0]), np.array([0.5, 0.5])))
    inside = eval_log_density(fit, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(inside, -math.log(2.0), atol=1e-9)
    outside = eval_log_density(fit, np.array([-0.1, 2.1]))
    assert np.all(outside == -np.inf)


def test_warm_start_returns_same_optimum(rng):
    pts = np.sort(rng.normal(0, 1, 60))
    sample = WeightedSample.from_observations(pts)
    cold = fit_weighted_logconcave(sample)
    warm = fit_weighted_logconcave(sample, init=cold)
    assert warm.converged
    np.testing.assert_allclose(warm.phi, cold.phi, atol=1e-8)
    np.testing.assert_allclose(warm.knots, cold.knots, atol=1e-12)


def test_iteration_cap_reports_non_convergence(rng, monkeypatch):
    pts = np.sort(rng.normal(0, 1, 200))
    sample = WeightedSample.from_observations(pts)
    monkeypatch.setattr(logcon, "_MAX_OUTER_ITERS", 1)
    fit = fit_weighted_logconcave(sample)
    assert not fit.converged
    assert fit.kkt_residual > 1e-8


def test_kkt_residual_small_at_reported_optimum(rng):
    pts = np.sort(rng.normal(0, 2, 80))
    fit = fit_weighted_logconcave(WeightedSample.from_observations(pts))
    assert fit.converged
    assert fit.kkt_residual <= 1e-8


def test_weighted_sample_validation():
    with pytest.raises(ValueError):
        WeightedSample(np.array([0.0, 1.0]), np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        WeightedSample(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        WeightedSample(np.array([0.0, 1.0]), np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        WeightedSample(np.array([0.0, 1.0]), np.array([0.7, 0.7]))  # sum != 1
    with pytest.raises(DegenerateSampleError):
        fit_weighted_logconcave(
            WeightedSample.from_observations(np.array([1.0])))
    with pytest.raises(DegenerateSampleError):
        fit_weighted_logconcave(
            WeightedSample.from_observations(np.array([2.0, 2.0, 2.0])))


def test_dict_round_trip(rng):
    pts, w = random_small_sample(rng, 6)
    fit = fit_weighted_logconcave(WeightedSample(pts, w))
    doc = fit_to_dict(fit)
    back = fit_from_dict(doc)
    np.testing.assert_array_equal(back.knots, fit.knots)
    np.testing.assert_array_equal(back.phi, fit.phi)
    assert back.objective == fit.objective
    assert back.converged == fit.converged


@pytest.mark.parametrize("field, value, message", [
    ("converged", "false", "must be true or false, got 'false'"),
    ("converged", 1, "must be true or false, got 1"),
    ("knots", ["0", "1"], r"must be numbers, got \['0', '1'\]"),
    ("phi", "0", "must be numbers, got '0'"),
    ("phi", [True, False], "must be numbers"),
    ("objective", "1", "must be a number, got '1'"),
    ("objective", False, "must be a number, got False"),
    ("kkt_residual", [0.0], r"must be a number, got \[0.0\]"),
])
def test_fit_from_dict_rejects_fields_of_the_wrong_type(field, value, message):
    # unchecked, bool("false") read the string as True, and float() and
    # np.asarray(dtype=float) read numbers written as strings
    doc = {"knots": [0, 1], "phi": [0.0, 0.0], "objective": 0.0,
           "kkt_residual": 0.0, "converged": False}
    fit = fit_from_dict(doc)
    assert fit.converged is False and fit.knots.dtype == float
    doc[field] = value
    with pytest.raises(ValueError, match=f"fit document field '{field}' {message}"):
        fit_from_dict(doc)


@pytest.mark.parametrize("knots", [[0.0, math.inf], [-math.inf, 0.0]])
def test_fit_rejects_knots_that_are_not_finite(tmp_path, knots):
    # unchecked, [0, inf] made a "density" on (0, inf) with cdf(fit, 1.0)
    # == 1.0; load_fit_json builds it from a file that holds Infinity
    with pytest.raises(ValueError, match="knots must be finite"):
        LogConcaveFit(knots=np.array(knots), phi=np.zeros(2), objective=0.0,
                      kkt_residual=0.0, converged=True)
    doc = {"knots": knots, "phi": [0.0, 0.0], "objective": 0.0,
           "kkt_residual": 0.0, "converged": True}
    with pytest.raises(ValueError, match="knots must be finite"):
        fit_from_dict(doc)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert "Infinity" in path.read_text(encoding="utf-8")
    with pytest.raises(ValueError, match="knots must be finite"):
        load_fit_json(str(path))


@pytest.mark.parametrize("field, value, message", [
    ("objective", math.nan, "'objective' must not be NaN"),
    ("kkt_residual", math.nan, "'kkt_residual' must be >= 0, got nan"),
    ("kkt_residual", -1e-12, "'kkt_residual' must be >= 0, got -1e-12"),
])
def test_fit_from_dict_rejects_a_nan_objective_or_residual(tmp_path, field, value, message):
    # unchecked, {"objective": NaN, "kkt_residual": Infinity} loaded as a fit
    doc = {"knots": [0.0, 1.0], "phi": [0.0, 0.0], "objective": -1.0,
           "kkt_residual": math.inf, "converged": False}
    assert fit_from_dict(doc).kkt_residual == math.inf
    doc[field] = value
    with pytest.raises(ValueError, match=f"fit document field {message}"):
        fit_from_dict(doc)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"fit document field {message}"):
        load_fit_json(str(path))


def test_fit_names_a_nan_knot_as_not_finite():
    # unchecked before the order test, NaN read as "not strictly ascending"
    with pytest.raises(ValueError, match="knots must be finite"):
        fit_from_dict({"knots": [0.0, math.nan], "phi": [0.0, 0.0], "objective": 0.0,
                       "kkt_residual": 0.0, "converged": True})


def test_fit_from_dict_names_a_missing_field():
    with pytest.raises(ValueError, match="fit document missing field 'phi'"):
        fit_from_dict({"knots": [0.0, 1.0], "objective": 0.0,
                       "kkt_residual": 0.0, "converged": True})


@pytest.mark.parametrize("doc", [[], "x", None, 1.5],
                         ids=["array", "string", "null", "number"])
def test_fit_document_that_is_not_an_object_is_named(tmp_path, doc):
    # unchecked, indexing [] by a field name raised a TypeError: "list
    # indices must be integers or slices, not str"
    message = "a fit document must be a JSON object"
    with pytest.raises(ValueError, match=message):
        fit_from_dict(doc)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_fit_json(str(path))


@pytest.mark.parametrize("knots", [[0.0, 0.5, 3.0], [1.0, 2.0, 3.0], [0.0, 1.0, 2.0],
                                   [0.0, 1.0, 4.0]],
                         ids=["not_a_point", "no_left_end", "no_right_end",
                              "beyond_the_right_end"])
@pytest.mark.parametrize("use", ["warm_start", "objective"])
def test_one_knot_lookup_serves_warm_starts_and_objective(use, knots):
    # both map knots to sample points through _Grid.knot_set, with its
    # one message
    sample = WeightedSample.from_observations([0.0, 1.0, 2.0, 3.0])
    fit = LogConcaveFit(knots=np.array(knots), phi=np.full(3, -1.0), objective=0.0,
                        kkt_residual=0.0, converged=True)
    with pytest.raises(ValueError, match="^knots must be sample points, both end "
                                         "points included$"):
        if use == "warm_start":
            fit_weighted_logconcave(sample, init=fit)
        else:
            objective(sample, fit.knots, fit.phi)


def test_json_file_round_trip(tmp_path, rng):
    pts, w = random_small_sample(rng, 5)
    fit = fit_weighted_logconcave(WeightedSample(pts, w))
    path = tmp_path / "fit.json"
    save_fit_json(fit, str(path))
    back = load_fit_json(str(path))
    np.testing.assert_array_equal(back.knots, fit.knots)
    np.testing.assert_array_equal(back.phi, fit.phi)


def test_load_weighted_csv(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("x,weight\n0.0,0.25\n1.0,0.75\n", encoding="utf-8")
    sample = load_weighted_csv(str(path))
    np.testing.assert_allclose(sample.points, [0.0, 1.0], atol=0)
    np.testing.assert_allclose(sample.weights, [0.25, 0.75], atol=0)


def test_support_property():
    fit = fit_weighted_logconcave(
        WeightedSample(np.array([-1.0, 0.5, 2.0]),
                       np.array([0.25, 0.5, 0.25])))
    assert fit.support == (-1.0, 2.0)
