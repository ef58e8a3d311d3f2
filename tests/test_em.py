"""EM for the two-component mixture with a known null component: hand-checked
E/M steps, monotone likelihood traces, fixed-point structure, degenerate
exits, and the posterior/summary helpers."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

from logconmix.em import (EmConfig, classification_error, e_step,
                          em_result_to_dict, estimate_mu, m_step_f, m_step_p,
                          posterior_unknown, run_em)
from logconmix.errors import (ComponentCollapsedError, DegenerateSampleError,
                              ZeroMixtureDensityError)
from logconmix.families import (Exponential, Normal, Uniform, log_pdf_known,
                                sample_mixture)
from logconmix.logcon import cdf
from logconmix.rng import make_rng

from test_solver import _tied_catalog_sample


def test_e_step_hand_value():
    # omega = (1-p) f0 / ((1-p) f0 + p f); with p = 0.4, f0 = 2, f = 0.25:
    # omega = 1.2 / (1.2 + 0.1) = 12/13, and the log-likelihood is log 1.3
    om, loglik = e_step(0.4, np.array([2.0]), np.array([0.25]))
    assert om[0] == pytest.approx(12.0 / 13.0, rel=1e-15)
    assert loglik == pytest.approx(math.log(1.3), rel=1e-15)


def test_e_step_vector_and_zero_null_component():
    om, _ = e_step(0.5, np.array([1.0, 0.0, 2.0]), np.array([1.0, 3.0, 0.0]))
    # f0 = 0 with f > 0 pins the point to the unknown component
    np.testing.assert_allclose(om, [0.5, 0.0, 1.0], atol=1e-15)


def _e_step_oracle(p, f0, f):
    """omega and the log-likelihood as two formulas, each forming the
    mixture density itself (the forms e_step replaced)."""
    num = (1.0 - p) * f0
    den = num + p * f
    return num / den, float(np.log((1.0 - p) * f0 + p * f).sum())


@pytest.mark.parametrize("p", [0.0, 1e-300, 0.5, 1.0])
def test_e_step_reads_omega_and_loglik_off_one_density(p):
    rng = np.random.default_rng(20)
    f0 = rng.uniform(0.0, 3.0, 200)
    f = rng.uniform(0.0, 3.0, 200)
    # zeros in f0 or in f, only where the mixture density stays positive
    if p < 1.0:
        f[:40] = 0.0
    if p > 0.0:
        f0[40:80] = 0.0
    omega, loglik = e_step(p, f0, f)
    want_omega, want_loglik = _e_step_oracle(p, f0, f)
    assert omega.tobytes() == want_omega.tobytes()
    assert np.float64(loglik).tobytes() == np.float64(want_loglik).tobytes()
    assert type(loglik) is float


def test_e_step_rejects_jointly_vanishing_densities():
    with pytest.raises(ZeroMixtureDensityError, match="1"):
        e_step(0.5, np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_e_step_rejects_a_vanishing_null_at_p_zero():
    # with p = 0 the mixture density is f0, which is 0 at index 1: the
    # likelihood is zero there, so omega is not set to 0 for it
    with pytest.raises(ZeroMixtureDensityError, match="index 1"):
        e_step(0.0, np.array([1.0, 0.0]), np.array([1.0, 3.0]))


@pytest.mark.parametrize("p", [2.0, -0.1, math.nextafter(1.0, 2.0),
                               math.nextafter(0.0, -1.0), math.nan, math.inf])
def test_e_step_rejects_p_outside_the_unit_interval(p):
    # unchecked, p = 2 gave omega = -1 and a NaN p gave NaN
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        e_step(p, np.array([1.0]), np.array([1.0]))


@pytest.mark.parametrize("f0, f, shapes", [
    ([1.0, 2.0, 3.0], [2.0], r"\(3,\) vs f_values \(1,\)"),
    ([[1.0], [2.0]], [2.0, 3.0], r"\(2, 1\) vs f_values \(2,\)")])
def test_e_step_names_both_shapes_when_they_differ(f0, f, shapes):
    # unchecked, these broadcast: to 3 posteriors for the first, and to a
    # 2 x 2 omega with a log-likelihood over 4 terms for the second
    with pytest.raises(ValueError, match="shape mismatch: f0_values " + shapes):
        e_step(0.5, f0, f)


def test_e_step_takes_both_ends_of_the_unit_interval():
    np.testing.assert_array_equal(e_step(0.0, np.array([1.0]), np.array([2.0]))[0], [1.0])
    np.testing.assert_array_equal(e_step(1.0, np.array([1.0]), np.array([2.0]))[0], [0.0])


def test_m_step_p_is_mean_unknown_mass():
    assert m_step_p(np.array([1.0, 0.5, 0.0, 0.9])) == pytest.approx(
        (0.0 + 0.5 + 1.0 + 0.1) / 4.0, rel=1e-15)


def test_m_step_f_fits_reweighted_sample():
    pts = np.array([0.0, 1.0, 2.0])
    omega = np.array([0.5, 0.5, 0.5])   # equal unknown mass everywhere
    fit = m_step_f(pts, omega)
    from conftest import independent_integral
    assert abs(independent_integral(fit.knots, fit.phi) - 1.0) <= 1e-8
    slopes = np.diff(fit.phi) / np.diff(fit.knots)
    assert np.all(np.diff(slopes) <= 1e-9)


def test_m_step_f_raises_when_unknown_mass_collapses():
    pts = np.array([0.0, 1.0, 2.0])
    omega = np.ones(3) - 1e-9
    with pytest.raises(ComponentCollapsedError):
        m_step_f(pts, omega)


def test_run_em_mixture_recovery_and_invariants():
    f0 = Normal(0.0, 2.0)
    values, labels = sample_mixture(f0, Exponential(1.0, 2.0),
                                    0.4, 500, 17)
    result = run_em(values, f0)
    assert result.converged
    assert result.degenerate is None
    # the trace the result carries is nondecreasing
    trace = np.asarray(result.loglik_trace)
    assert trace.size >= 2
    assert np.all(np.diff(trace) >= -1e-8)
    # fixed-point structure: p_hat is exactly the mean unknown mass
    assert result.p_hat == pytest.approx(float(np.mean(1.0 - result.omega)),
                                         abs=1e-12)
    assert 0.2 <= result.p_hat <= 0.6
    assert np.all((result.omega >= 0.0) & (result.omega <= 1.0))
    # identifiability report rides along: a Normal f0 gets no clause, since
    # every compact fit meets its tail condition
    assert result.identifiability.verdict == "Inconclusive"
    # membership score against the truth is small for this easy mixture
    assert classification_error(result.omega, labels) <= 0.2


def test_run_em_posterior_complements_omega():
    f0 = Normal(0.0, 2.0)
    values, _ = sample_mixture(f0, Exponential(1.0, 2.0), 0.4, 300, 3)
    result = run_em(values, f0)
    post = posterior_unknown(result, values, f0)
    np.testing.assert_allclose(post, 1.0 - result.omega, atol=1e-10)
    scalar = posterior_unknown(result, float(values[0]), f0)
    assert scalar == pytest.approx(post[0], abs=1e-12)


def test_posterior_unknown_returns_the_shapes_of_cdf():
    f0 = Normal(0.0, 2.0)
    values, _ = sample_mixture(f0, Normal(3.0, 1.0), 0.4, 300, 4)
    result = run_em(values, f0)
    want = posterior_unknown(result, [1.0], f0)[0]
    for x in (1.0, np.float64(1.0), np.array(1.0), np.array([[1.0, 1.0]])):
        got = posterior_unknown(result, x, f0)
        assert np.shape(got) == np.shape(cdf(result.fit, x)), type(x)
        assert np.all(got == want)
        if np.ndim(x) == 0:
            assert type(got) is float
    # f0 underflows to 0 far out, where the fit is 0 too; the error names
    # that point in a 2-d input as in a 1-d one
    with pytest.raises(ZeroMixtureDensityError, match=r"x=1e\+06"):
        posterior_unknown(result, np.array([[1.0, 1e6]]), f0)


def test_run_em_flat_init_still_monotone():
    f0 = Normal(0.0, 2.0)
    values, _ = sample_mixture(f0, Normal(3.0, 1.0), 0.5, 300, 11)
    result = run_em(values, f0, EmConfig(init="flat"))
    trace = np.asarray(result.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-8)
    assert result.p_hat == pytest.approx(float(np.mean(1.0 - result.omega)),
                                         abs=1e-12)


def test_run_em_refuses_p_init_with_the_pilot_start():
    # unchecked, the pilot start ignored p_init and returned the bits of a
    # run without it
    f0 = Normal(0.0, 2.0)
    values, _ = sample_mixture(f0, Normal(3.0, 1.0), 0.5, 300, 11)
    with pytest.raises(ValueError, match="p_init applies only with init='flat'"):
        run_em(values, f0, EmConfig(p_init=0.2))


def test_run_em_all_known_exit():
    # a vanishing initial unknown mass collapses immediately: everything is
    # attributed to f0 and the result is flagged
    x = Normal(0.0, 2.0).draw(200, make_rng(1))
    result = run_em(x, Normal(0.0, 2.0), EmConfig(init="flat", p_init=1e-7))
    assert result.degenerate == "AllKnown"
    assert result.p_hat == 0.0
    assert np.all(result.omega == 1.0)
    assert len(result.loglik_trace) == 1


def test_run_em_all_unknown_exit():
    # data far outside f0's effective range pushes all mass to the unknown
    # component
    rng = np.random.default_rng(3)
    far = rng.normal(50.0, 1.0, 300)
    result = run_em(far, Normal(0.0, 1.0))
    assert result.degenerate == "AllUnknown"
    assert result.p_hat == pytest.approx(1.0, abs=1e-9)


def test_estimate_mu_hand_value():
    # weights (1 - omega) / sum(1 - omega) = (0.5, 0.8)/1.3 on points (1, 2):
    # mu = (0.5 * 1 + 0.8 * 2) / 1.3 = 21/13
    got = estimate_mu(np.array([1.0, 2.0]), np.array([0.5, 0.2]))
    assert got == pytest.approx(21.0 / 13.0, rel=1e-15)


def test_estimate_mu_names_both_shapes_when_they_differ():
    with pytest.raises(ValueError, match=r"points \(3,\) vs omega \(2,\)"):
        estimate_mu(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.2]))


def test_classification_error_rejects_empty_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # not numpy's "Mean of empty slice"
        with pytest.raises(ValueError, match="omega_hat and labels must be non-empty"):
            classification_error(np.array([]), np.array([]))


def test_classification_error_is_mean_squared_gap():
    assert classification_error(np.array([1.0, 0.0]),
                                np.array([1.0, 0.0])) == 0.0
    assert classification_error(np.array([0.5, 0.5]),
                                np.array([1.0, 0.0])) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        classification_error(np.array([0.5]), np.array([1.0, 0.0]))


def test_em_result_serializes_to_json():
    f0 = Uniform(0.0, 1.0)
    rng = np.random.default_rng(9)
    values = rng.uniform(0.0, 1.0, 150) ** 2   # skewed toward 0
    result = run_em(values, f0)
    doc = em_result_to_dict(result)
    text = json.dumps(doc)   # must not choke on numpy scalars
    assert set(doc) >= {"p_hat", "omega", "fit", "loglik_trace",
                        "iterations", "converged", "degenerate",
                        "identifiability"}
    back = json.loads(text)
    assert back["p_hat"] == pytest.approx(result.p_hat, rel=1e-15)
    assert back["identifiability"]["verdict"] == result.identifiability.verdict


def test_em_config_validation():
    with pytest.raises(ValueError, match="p_init must lie in"):
        EmConfig(init="flat", p_init=0.0)
    with pytest.raises(ValueError, match="p_init must lie in"):
        EmConfig(init="flat", p_init=1.0)
    with pytest.raises(ValueError):
        EmConfig(max_iters=0)
    with pytest.raises(ValueError):
        EmConfig(tol_loglik=-1e-9)
    with pytest.raises(ValueError):
        EmConfig(init="random")
    # p_init is the flat start's alone: the pilot start would ignore it
    with pytest.raises(ValueError, match="p_init applies only with init='flat'"):
        EmConfig(p_init=0.3)
    assert EmConfig(init="flat").p_init == 0.5
    assert EmConfig().p_init is None


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0.0])
def test_em_config_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    # unchecked, an infinite tolerance stopped the model-1 sample after 3
    # iterations with converged=True and p_hat 0.2963, against 0.2853 after
    # 118 at the default
    with pytest.raises(ValueError, match="tol_loglik must be positive and finite"):
        EmConfig(tol_loglik=tol)


def test_em_config_max_iters_must_be_an_integer():
    for bad in (10.5, 10.0, True, "10", None):
        with pytest.raises(ValueError, match="max_iters"):
            EmConfig(max_iters=bad)
    config = EmConfig(max_iters=np.int64(10))
    assert type(config.max_iters) is int and config.max_iters == 10
    # a numpy integer budget gives the same run, and a result that
    # serializes, on a sample with ties
    values, f0 = _tied_catalog_sample()
    result = run_em(values, f0, config)
    assert type(result.iterations) is int
    assert result.iterations == run_em(values, f0, EmConfig(max_iters=10)).iterations
    json.dumps(em_result_to_dict(result))


def test_run_em_rejects_empty_and_degenerate_input():
    with pytest.raises(Exception):
        run_em(np.array([]), Normal(0.0, 1.0))
    with pytest.raises(Exception):
        run_em(np.array([1.0]), Normal(0.0, 1.0))
    with pytest.raises(DegenerateSampleError, match="got 3"):
        run_em(np.array([2.0, 1.0, 3.0, 1.0, 2.0, 3.0]), Normal(0.0, 1.0))


def test_posterior_unknown_names_the_first_nan():
    f0 = Normal(0.0, 2.0)
    values, _ = sample_mixture(f0, Normal(3.0, 1.0), 0.4, 300, 4)
    result = run_em(values, f0)
    with pytest.raises(ValueError, match="NaN at index 0"):
        posterior_unknown(result, [math.nan, 1.0], f0)
    with pytest.raises(ValueError, match="NaN at index 2"):
        posterior_unknown(result, [1.0, 2.0, math.nan, math.nan], f0)
    with pytest.raises(ValueError, match="NaN at index 0"):
        posterior_unknown(result, math.nan, f0)
