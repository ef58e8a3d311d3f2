"""The active-set solver's step bound and its repeat shortcut.

``_max_feasible_step`` is checked bit for bit against the earlier
formulation, kept here as the oracle. The shortcut in
``fit_weighted_logconcave`` returns a warm start unchanged when the last warm
fit on the same grid, with the same weights and options, returned that start
as it was; every other call must run the solver and give its bits.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from logconmix import em, kernels, logcon
from logconmix.families import Normal, sample_mixture
from logconmix.logcon import (FitOptions, LogConcaveFit, WeightedSample,
                              fit_weighted_logconcave)


def _ref_max_feasible_step(dt, phi_k, direction):
    """Largest alpha keeping knot slopes nonincreasing; (inf, None) if free."""
    if phi_k.size < 3:
        return math.inf, None
    inv = 1.0 / dt
    def curv(v):
        s = np.diff(v) * inv
        return s[:-1] - s[1:]
    c_now = np.maximum(curv(phi_k), 0.0)   # clamp roundoff-negative slack
    c_dir = curv(direction)
    blocking = c_dir < -1e-300
    if not np.any(blocking):
        return math.inf, None
    ratios = np.full(c_now.shape, math.inf)
    ratios[blocking] = c_now[blocking] / -c_dir[blocking]
    j = int(np.argmin(ratios))
    alpha = float(ratios[j])
    if not math.isfinite(alpha):
        return math.inf, None
    return alpha, j + 1  # +1: constraint j sits at interior knot j+1


def _check_step(dt, phi_k, direction):
    want = _ref_max_feasible_step(dt, phi_k, direction)
    got = logcon._max_feasible_step(1.0 / dt, phi_k, direction.copy())
    assert got == want
    return got


def _concave(rng, t):
    slopes = np.sort(rng.normal(0.0, 2.0, t.size - 1))[::-1]
    return np.concatenate(([0.0], np.cumsum(slopes * np.diff(t))))


def test_max_feasible_step_matches_oracle_on_random_directions(rng):
    blocked = 0
    for r in (2, 3, 4, 7, 30):
        for _ in range(60):
            t = np.sort(rng.uniform(-3.0, 3.0, r))
            alpha, _ = _check_step(np.diff(t), _concave(rng, t), rng.normal(0.0, 1.0, r))
            blocked += math.isfinite(alpha)
    assert blocked > 100


def test_max_feasible_step_without_a_blocking_constraint(rng):
    dt = np.ones(5)
    phi = _concave(rng, np.arange(6.0))
    # slopes that never rise, exactly: no constraint can block
    for direction in (np.zeros(6), np.arange(6.0), np.full(6, 3.0),
                      -np.arange(6.0) ** 2):
        assert _check_step(dt, phi, direction) == (math.inf, None)


def test_max_feasible_step_takes_the_first_of_tied_ratios():
    dt = np.ones(5)
    phi = -0.5 * np.arange(6.0) ** 2          # curvature 1 at every interior knot
    direction = 0.5 * np.arange(6.0) ** 2     # curvature -1 at every one
    assert _check_step(dt, phi, direction) == (1.0, 1)
    direction = np.array([0.0, 0.0, 1.0, 3.0, 5.0, 7.0])  # ties at knots 1, 2 only
    assert _check_step(dt, phi, direction) == (1.0, 1)


def test_max_feasible_step_clamps_roundoff_negative_curvature():
    # collinear but for one ulp, so knot 1 is convex by -4.4e-16; unclamped,
    # the step bound would come out negative
    phi = np.array([0.0, 1.0, np.nextafter(2.0, 3.0), 3.0])
    direction = np.array([0.0, 0.0, 1.0, 0.0])
    assert _check_step(np.ones(3), phi, direction) == (0.0, 1)


@pytest.fixture
def repeat_case(rng):
    """A workspace, one weighted sample on its grid, and a warm fit that
    returned its start: the next warm call from it is an exact repeat."""
    x = np.sort(sample_mixture(Normal(0.0, 2.0), Normal(3.0, 1.0), 0.4, 300, 11)[0])
    ws = em._Workspace(x)
    sample = ws.sample(rng.uniform(0.0, 1.0, x.size))
    fit = fit_weighted_logconcave(sample)
    for _ in range(20):
        warm = fit_weighted_logconcave(sample, init=fit)
        if warm is fit:
            return ws, sample, fit
        fit = warm
    raise AssertionError("no warm fit returned its start")


@pytest.fixture
def grad_hess_calls(monkeypatch):
    calls = []
    inner = kernels.knot_grad_hess

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(kernels, "knot_grad_hess", counted)
    return calls


def _fresh(points, weights, init, options=None):
    """The fit on a new grid, where no earlier fit can be repeated."""
    start = LogConcaveFit(knots=init.knots.copy(), phi=init.phi.copy(),
                          objective=init.objective,
                          kkt_residual=init.kkt_residual, converged=init.converged)
    sample = WeightedSample._on_grid(logcon._Grid(points), weights)
    return fit_weighted_logconcave(sample, options=options, init=start)


def _same_fit(a, b):
    assert np.array_equal(a.knots, b.knots)
    assert a.phi.tobytes() == b.phi.tobytes()
    assert (a.objective, a.kkt_residual, a.converged) == (b.objective, b.kkt_residual, b.converged)


def test_an_exact_repeat_returns_its_start_without_solving(repeat_case, grad_hess_calls):
    ws, sample, fit = repeat_case
    again = WeightedSample._on_grid(ws.grid, sample.weights.copy())
    assert fit_weighted_logconcave(again, init=fit) is fit
    assert fit_weighted_logconcave(again, options=FitOptions(), init=fit) is fit
    assert not grad_hess_calls
    # and the solver, run from the same start, would return the same bits
    _same_fit(_fresh(ws.grid.points, sample.weights, fit), fit)


def test_a_one_ulp_weight_change_runs_the_solver(repeat_case, grad_hess_calls):
    ws, sample, fit = repeat_case
    w = sample.weights.copy()
    w[17] = np.nextafter(w[17], 1.0)
    got = fit_weighted_logconcave(WeightedSample._on_grid(ws.grid, w), init=fit)
    assert got is not fit
    assert grad_hess_calls
    _same_fit(got, _fresh(ws.grid.points, w, fit))


def test_other_options_run_the_solver(repeat_case, grad_hess_calls):
    ws, sample, fit = repeat_case
    options = FitOptions(tol_kkt=1e-9)
    got = fit_weighted_logconcave(sample, options=options, init=fit)
    assert got is not fit
    assert grad_hess_calls
    _same_fit(got, _fresh(ws.grid.points, sample.weights, fit, options))


def test_a_warm_fit_that_moved_is_not_repeated(repeat_case, grad_hess_calls):
    ws, sample, fit = repeat_case
    start = LogConcaveFit(knots=fit.knots, phi=fit.phi - 0.01, objective=fit.objective,
                          kkt_residual=fit.kkt_residual, converged=fit.converged)
    moved = fit_weighted_logconcave(sample, init=start)
    calls = len(grad_hess_calls)
    again = fit_weighted_logconcave(sample, init=moved)
    assert again is not moved
    assert len(grad_hess_calls) > calls
    _same_fit(again, _fresh(ws.grid.points, sample.weights, moved))


def test_a_cold_fit_never_repeats(repeat_case, grad_hess_calls):
    ws, sample, fit = repeat_case
    cold = fit_weighted_logconcave(sample)
    assert cold is not fit
    assert grad_hess_calls
    # a cold fit leaves the record of the last warm fit alone
    calls = len(grad_hess_calls)
    assert fit_weighted_logconcave(sample, init=fit) is fit
    assert len(grad_hess_calls) == calls


def test_run_em_is_bitwise_equal_without_the_shortcut(monkeypatch):
    values, _ = sample_mixture(Normal(0.0, 2.0), Normal(3.0, 1.0), 0.4, 300, 2)
    repeats = []
    original = logcon._Grid.repeat_of

    def seen(self, *args):
        hit = original(self, *args)
        repeats.append(hit)
        return hit

    monkeypatch.setattr(logcon._Grid, "repeat_of", seen)
    with_shortcut = em.run_em(values, Normal(0.0, 2.0))
    assert any(repeats)
    monkeypatch.setattr(logcon._Grid, "repeat_of", lambda self, *args: False)
    without = em.run_em(values, Normal(0.0, 2.0))
    assert with_shortcut.p_hat == without.p_hat
    assert with_shortcut.omega.tobytes() == without.omega.tobytes()
    assert with_shortcut.loglik_trace.tobytes() == without.loglik_trace.tobytes()
    assert (with_shortcut.iterations, with_shortcut.converged, with_shortcut.degenerate) == \
        (without.iterations, without.converged, without.degenerate)
    _same_fit(with_shortcut.fit, without.fit)
