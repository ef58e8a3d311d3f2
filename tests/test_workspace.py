"""The EM workspace and the per-point work of the log-concave fit.

``run_em`` merges ties once per run, ``logcon`` takes segment ids from the
knot indices and aggregates weights with one bincount, the concavity
multipliers come in closed form per knot segment, and e^phi at the points
goes from the multiplier check to the E-step. The kernels that did this work
before (``aggregate_weights``, ``interp_to_points``, ``integral_grad_terms``
followed by ``multipliers``) stay in ``_kernels_py`` as the oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import logconmix._kernels_py as kpy
from logconmix import em, logcon
from logconmix.families import Normal, sample_mixture
from logconmix.logcon import (LogConcaveFit, WeightedSample,
                              eval_log_density, fit_weighted_logconcave)

# Agreement of the closed-form multipliers with the oracle, relative to the
# span of the points; both are sums of terms of that size, and the oracle's
# nested cumulative sums alone round at about n * 1e-16 of it.
LAMBDA_RTOL = 1e-10


def _sample(rng, n, spread, ties):
    x = rng.normal(0.0, spread, n)
    if ties:
        x = np.round(x / spread * 3.0) * (spread / 3.0)
    return WeightedSample.from_observations(x, rng.uniform(0.0, 1.0, n))


def _oracle_multipliers(x, w, kidx, phi_k):
    phi_all = kpy.interp_to_points(x, kidx, phi_k)
    return kpy.multipliers(x, w - kpy.integral_grad_terms(x, phi_all))


def _concave_phi(rng, t):
    """A normalized concave phi at knots t, with slopes of the data's scale."""
    span = t[-1] - t[0]
    slopes = np.sort(rng.normal(0.0, 4.0, t.size - 1))[::-1] / span
    phi = np.concatenate(([0.0], np.cumsum(slopes * np.diff(t))))
    mass = np.sum(kpy.segment_integrals(np.diff(t), phi[:-1], phi[1:]))
    return phi - math.log(mass)


def _check_multipliers(sample, kidx, phi_k):
    x, w = sample.points, sample.weights
    grid = logcon._Grid(x)
    ks = grid.knot_set(kidx)
    _, lam = logcon._kkt_state(grid, w, ks, phi_k)
    want = _oracle_multipliers(x, w, kidx, phi_k)[ks.active]
    np.testing.assert_allclose(lam, want, rtol=0.0,
                               atol=LAMBDA_RTOL * (x[-1] - x[0]))


@pytest.mark.parametrize("spread", [1e-3, 1e-1, 1.0, 1e1, 1e3])
@pytest.mark.parametrize("ties", [False, True])
def test_closed_form_multipliers_match_oracle_on_random_knot_sets(rng, spread, ties):
    for n in (4, 5, 30, 400):
        sample = _sample(rng, n, spread, ties)
        m = sample.size
        for knots in (2, 3, 6):
            inner = rng.choice(np.arange(1, m - 1), min(knots, m) - 2, replace=False)
            kidx = np.sort(np.concatenate(([0, m - 1], inner))).astype(np.intp)
            _check_multipliers(sample, kidx, _concave_phi(rng, sample.points[kidx]))


@pytest.mark.parametrize("spread", [1e-3, 1.0, 1e3])
def test_closed_form_multipliers_match_oracle_at_fitted_optima(rng, spread):
    # at an optimum the multipliers are near zero or positive, where a
    # rounding gap between the two forms would flip a release decision
    for n, ties in ((4, False), (12, True), (300, False), (300, True)):
        sample = _sample(rng, n, spread, ties)
        fit = fit_weighted_logconcave(sample)
        kidx = np.searchsorted(sample.points, fit.knots)
        _check_multipliers(sample, kidx, fit.phi)


def test_hinge_tail_is_accurate_on_both_sides_of_the_series_seam():
    # integral_0^d (d - u) e^(s u) du at phi_j = 0, against mpmath's value;
    # the closed form just outside the radius cancels to about eps / z^2
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    d = np.array([1.0])
    for z in (0.0, 1e-12, -3e-4, 0.02, -0.0999, 0.0999, 0.1001, -0.1001, 0.5, -2.0, 7.0):
        s = np.array([z])
        inv_s2 = np.array([1.0 / (z * z)]) if z else np.array([0.0])
        got = logcon._hinge_tail(np.array([1.0]), inv_s2, d, s * d, np.exp(s * d))[0]
        zm = mpmath.mpf(z)
        want = (mpmath.exp(zm) - 1 - zm) / zm ** 2 if z else mpmath.mpf(0.5)
        assert abs(got - float(want)) <= 2e-13 * float(want), z


def test_two_knot_fit_multipliers_and_series_seam(rng):
    # a nearly flat density: every point sits inside the series radius
    x = np.linspace(0.0, 1.0, 50)
    sample = WeightedSample.from_observations(x)
    kidx = np.array([0, 49], dtype=np.intp)
    for slope in (0.0, 1e-9, 0.05, 0.0999, 0.1001, 0.3, 5.0):
        phi = np.array([0.0, slope])
        phi = phi - math.log(float(kpy.segment_integrals(np.array([1.0]), phi[:1], phi[1:])[0]))
        _check_multipliers(sample, kidx, phi)


def test_bincount_aggregation_equals_add_at_oracle_bitwise(rng):
    for n, ties in ((4, False), (200, True), (1000, False)):
        sample = _sample(rng, n, 1.0, ties)
        x, w = sample.points, sample.weights
        m = x.size
        for knots in (2, 3, min(m, 9)):
            inner = rng.choice(np.arange(1, m - 1), knots - 2, replace=False)
            kidx = np.sort(np.concatenate(([0, m - 1], inner))).astype(np.intp)
            got = logcon._KnotSet(x, kidx).aggregate(w)
            assert np.array_equal(got, kpy.aggregate_weights(x, w, kidx))
        every = np.arange(m, dtype=np.intp)
        assert np.array_equal(logcon._KnotSet(x, every).aggregate(w),
                              kpy.aggregate_weights(x, w, every))


@pytest.mark.parametrize("ties", [False, True])
def test_segment_ids_equal_searchsorted_and_interpolation_matches(rng, ties):
    sample = _sample(rng, 300, 2.0, ties)
    x = sample.points
    m = x.size
    for _ in range(20):
        kidx = np.sort(np.concatenate(([0, m - 1], rng.choice(
            np.arange(1, m - 1), min(5, m - 2), replace=False)))).astype(np.intp)
        ks = logcon._KnotSet(x, kidx)
        t = x[kidx]
        want = np.clip(np.searchsorted(t, x, side="right") - 1, 0, t.size - 2)
        assert np.array_equal(ks.seg, want)
        for phi_k in (_concave_phi(rng, t), rng.normal(0.0, 3.0, t.size)):
            phi, _, _ = ks.phi_at(phi_k)
            # np.interp's arithmetic, the last point included
            assert np.array_equal(phi, np.interp(x, t, phi_k))
            # a released knot takes the oracle's value bit for bit
            oracle = kpy.interp_to_points(x, kidx, phi_k)
            assert all(ks.lerp(phi_k, k) == oracle[k] for k in ks.active)


def _mixture(n, seed, ties):
    values, _ = sample_mixture(Normal(0.0, 2.0), Normal(3.0, 1.0), 0.4, n, seed)
    return np.round(values, 1) if ties else values


@pytest.mark.parametrize("ties", [False, True])
def test_workspace_sample_equals_from_observations_bitwise(rng, ties):
    x = np.sort(_mixture(500, 3, ties))
    ws = em._Workspace(x)
    residual = rng.uniform(0.0, 1.0, x.size)
    residual[::7] = 0.0
    got = ws.sample(residual)
    want = WeightedSample.from_observations(x, residual)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.weights, want.weights)
    # the tie merge sums as np.add.at does
    keep = np.concatenate(([True], np.diff(x) > 0.0))
    merged = np.zeros(int(keep.sum()))
    np.add.at(merged, np.cumsum(keep) - 1, residual)
    merged = merged / merged.sum()
    floored = np.maximum(merged, logcon.WEIGHT_FLOOR_SCALE / merged.size)
    assert np.array_equal(want.weights, floored / floored.sum())


@pytest.mark.parametrize("ties", [False, True])
def test_e_step_density_equals_eval_log_density(rng, ties):
    x = np.sort(_mixture(600, 5, ties))
    ws = em._Workspace(x)
    omega = rng.uniform(0.0, 1.0, x.size)
    fit = em.m_step_f(ws, omega)
    handed = ws.f_values(fit)
    want = np.exp(eval_log_density(fit, x))
    # within a few ulps; the interpolation is np.interp's, so it is exact
    assert np.all(np.abs(handed - want) <= 4 * np.spacing(want))
    assert np.array_equal(handed, want)
    # a fit the grid did not produce is evaluated on demand
    other = LogConcaveFit(knots=fit.knots, phi=fit.phi.copy(), objective=fit.objective,
                          kkt_residual=fit.kkt_residual, converged=fit.converged)
    assert np.array_equal(ws.f_values(other), want)


def test_m_step_f_workspace_and_array_paths_agree(rng):
    x = np.sort(_mixture(400, 9, True))
    omega = rng.uniform(0.0, 1.0, x.size)
    a = em.m_step_f(em._Workspace(x), omega)
    b = em.m_step_f(x, omega)
    assert np.array_equal(a.knots, b.knots)
    assert np.array_equal(a.phi, b.phi)
    assert a.objective == b.objective
    warm_a = em.m_step_f(em._Workspace(x), 0.5 * omega, init=a)
    warm_b = em.m_step_f(x, 0.5 * omega, init=b)
    assert np.array_equal(warm_a.phi, warm_b.phi)
