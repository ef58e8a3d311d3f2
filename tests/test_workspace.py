"""The observation grid, EM's workspace, and the per-point work of the
log-concave fit.

``run_em`` builds one ``logcon._Grid`` of the sorted observations, whose
``sample`` merges ties and floors the weights for every M-step; ``logcon``
takes segment ids from the knot indices and aggregates weights with one
bincount, the concavity multipliers come in closed form per knot segment,
and e^phi at the points goes from the multiplier check to the E-step. The
kernels that did this work before (``aggregate_weights``,
``interp_to_points``, ``integral_grad_terms`` followed by ``multipliers``)
stay in ``_kernels_py`` as the oracle.
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


def _active(m, kidx):
    """The interior non-knots of m points: where a constraint is active."""
    mask = np.ones(m, dtype=bool)
    mask[kidx] = False
    return np.flatnonzero(mask)


def _check_multipliers(sample, kidx, phi_k):
    # the closed form at every active point against the oracle, and the
    # solver's check finds the least of them to the bit
    x, w = sample.points, sample.weights
    grid = logcon._Grid(x)
    ks = grid.knot_set(x[kidx])
    mass = kpy.segment_integrals(ks.dt, phi_k[:-1], phi_k[1:])
    active = _active(x.size, kidx)
    lam = _ref_multipliers(grid, w, ks, phi_k, mass)[1][active]
    want = _oracle_multipliers(x, w, kidx, phi_k)[active]
    np.testing.assert_allclose(lam, want, rtol=0.0,
                               atol=LAMBDA_RTOL * (x[-1] - x[0]))
    _, lam_min, k = logcon._kkt_state(ks, logcon._hinge_prefix(w, grid.dx), phi_k, mass)
    if active.size:
        assert lam_min == lam.min() and k == active[lam.argmin()]
    else:
        assert lam_min == math.inf


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


# The array formulation of F, Q and 1/s^2 that ``logcon._knot_integrals``
# runs on Python floats, and the multiplier pass around it, with lambda
# gathered at the active points; ``logcon._kkt_state`` must give the bits
# of e^phi and of lambda's least entry there, and its first point.

def _ref_knot_integrals(dt, mass, e_k, s):
    s2 = s * s
    inv_s2 = np.divide(1.0, s2, out=np.zeros(s.size), where=s2 > 0.0)
    tail = logcon._hinge_tail(e_k[:-1], inv_s2, dt, s * dt, e_k[1:])
    F = np.concatenate(([0.0], mass.cumsum()))
    Q = np.concatenate(([0.0], (dt * F[:-1] + tail).cumsum()))
    return F, Q, inv_s2


def _ref_multipliers(grid, w, ks, phi_k, mass):
    phi, s, z = ks.phi_at(phi_k)
    exp_phi = np.exp(phi, out=phi)
    e_k = np.exp(phi_k)
    F, Q, inv_s2 = _ref_knot_integrals(ks.dt, mass, e_k, s)
    seg = ks.seg
    inside = F[seg]
    inside *= ks.d
    inside += Q[seg]
    inside += logcon._hinge_tail(e_k[seg], inv_s2[seg], ks.d, z, exp_phi)
    lam = _ref_prefix(w, grid.dx)
    lam -= inside
    return exp_phi, lam


def _ref_prefix(w, dx):
    lam = np.empty(w.size)
    lam[0] = 0.0
    below = w[:-1].cumsum()
    below *= dx
    below.cumsum(out=lam[1:])
    return lam


def _ref_kkt_state(grid, w, ks, phi_k, mass):
    """e^phi, lambda's least entry at the active points and its first
    point (None when every point is a knot)."""
    exp_phi, lam = _ref_multipliers(grid, w, ks, phi_k, mass)
    active = _active(lam.size, ks.kidx)
    if not active.size:
        return exp_phi, math.inf, None
    j = int(lam[active].argmin())
    return exp_phi, float(lam[active][j]), int(active[j])


def _check_kkt_state_bits(sample, kidx, phi_k):
    x, w = sample.points, sample.weights
    grid = logcon._Grid(x)
    ks = grid.knot_set(x[kidx])
    mass = kpy.knot_grad_hess(ks.dt, phi_k, ks.aggregate(w))[4]
    prefix = logcon._hinge_prefix(w, grid.dx)
    exp_phi, lam_min, k = logcon._kkt_state(ks, prefix, phi_k, mass)
    want_exp_phi, want_min, want_k = _ref_kkt_state(grid, w, ks, phi_k, mass)
    assert k == want_k or want_k is None
    e_k = np.exp(phi_k)
    s = (phi_k[1:] - phi_k[:-1]) / ks.dt
    table = logcon._knot_integrals(ks.dt.tolist(), mass.tolist(), e_k.tolist(), s.tolist())
    F, Q, inv_s2 = _ref_knot_integrals(ks.dt, mass, e_k, s)
    want_table = np.array((F[:-1], Q[:-1], inv_s2, e_k[:-1]))
    for g, r in ((exp_phi, want_exp_phi), (np.float64(lam_min), np.float64(want_min)),
                 (table, want_table), (prefix, _ref_prefix(w, grid.dx))):
        if np.all(np.isfinite(r)):
            assert g.tobytes() == r.tobytes()
        else:
            np.testing.assert_array_equal(g, r)   # NaN payloads aside


# |z| = |s dt| on each side of the tail's series radius, to the ulp
_TAIL_SEAM = [float(v) for r in (0.1, -0.1)
              for v in (np.nextafter(r, 0.0), r, np.nextafter(r, 2 * r))]


def test_float_knot_integrals_match_array_formulation_bitwise(rng):
    for n, spread, ties in ((5, 1.0, False), (40, 1e-3, True), (400, 1e3, False)):
        sample = _sample(rng, n, spread, ties)
        m = sample.size
        for knots in (2, 3, min(m, 9)):
            inner = rng.choice(np.arange(1, m - 1), knots - 2, replace=False)
            kidx = np.sort(np.concatenate(([0, m - 1], inner))).astype(np.intp)
            t = sample.points[kidx]
            phi = _concave_phi(rng, t)
            _check_kkt_state_bits(sample, kidx, phi)
            flat = phi.copy()
            flat[1] = flat[0]                 # a slope-0 segment: 1/s^2 is 0
            _check_kkt_state_bits(sample, kidx, flat)
            # gentle slopes put most segments inside the tail's series
            _check_kkt_state_bits(sample, kidx, 0.01 * phi - 0.37)
    # two-knot fits on [0, 1], where s dt is the difference of the two
    # values exactly: the tail's seam, a flat density, and steep ones
    sample = WeightedSample.from_observations(np.linspace(0.0, 1.0, 30))
    two = np.array([0, 29], dtype=np.intp)
    for z in _TAIL_SEAM + [0.0, 1e-9, 0.05, 3.0, -40.0]:
        _check_kkt_state_bits(sample, two, np.array([0.0, z]))
    # the seam in the last segment of a three-knot set of unit spacings
    sample = WeightedSample.from_observations(np.linspace(0.0, 2.0, 21))
    three = np.array([0, 10, 20], dtype=np.intp)
    assert sample.points[three].tolist() == [0.0, 1.0, 2.0]
    for z in _TAIL_SEAM:
        _check_kkt_state_bits(sample, three, np.array([-0.3, 0.0, z]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_float_knot_integrals_match_array_formulation_on_non_finite_phi(bad):
    sample = WeightedSample.from_observations(np.linspace(0.0, 2.0, 21))
    for kidx, phi in (([0, 20], [bad, 0.0]), ([0, 20], [0.0, bad]),
                      ([0, 7, 13, 20], [0.0, bad, -1.0, -3.0]),
                      ([0, 7, 13, 20], [bad, bad, 0.5, -1.0])):
        with np.errstate(all="ignore"):
            _check_kkt_state_bits(sample, np.array(kidx, dtype=np.intp), np.array(phi))


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
            assert all(ks.lerp(phi_k, k) == oracle[k] for k in _active(m, kidx))


def _mixture(n, seed, ties):
    values, _ = sample_mixture(Normal(0.0, 2.0), Normal(3.0, 1.0), 0.4, n, seed)
    return np.round(values, 1) if ties else values


@pytest.mark.parametrize("ties", [False, True])
def test_workspace_sample_equals_from_observations_bitwise(rng, ties):
    x = np.sort(_mixture(500, 3, ties))
    grid = logcon._Grid(x)
    residual = rng.uniform(0.0, 1.0, x.size)
    residual[::7] = 0.0
    got = grid.sample(residual)
    assert got._grid is grid
    want = WeightedSample.from_observations(x, residual)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.weights, want.weights)
    # the tie merge sums as np.add.at does, and the floor lifts only the
    # two end weights: the interior zeros stay zero
    keep = np.concatenate(([True], np.diff(x) > 0.0))
    assert np.array_equal(grid.points, np.unique(x))
    merged = np.zeros(int(keep.sum()))
    np.add.at(merged, np.cumsum(keep) - 1, residual)
    merged = merged / merged.sum()
    floored = merged.copy()
    for end in (0, -1):
        floored[end] = max(merged[end], logcon.WEIGHT_FLOOR_SCALE / merged.size)
    assert np.array_equal(got.weights, floored / floored.sum())


@pytest.mark.parametrize("ties", [False, True])
def test_e_step_density_equals_eval_log_density(rng, ties):
    x = np.sort(_mixture(600, 5, ties))
    grid = logcon._Grid(x)
    omega = rng.uniform(0.0, 1.0, x.size)
    fit = em.m_step_f(grid, omega)
    handed = grid.f_values(fit)
    want = np.exp(eval_log_density(fit, x))
    # within a few ulps; the interpolation is np.interp's, so it is exact
    assert np.all(np.abs(handed - want) <= 4 * np.spacing(want))
    assert np.array_equal(handed, want)
    # a fit the grid did not produce is evaluated on demand
    other = LogConcaveFit(knots=fit.knots, phi=fit.phi.copy(), objective=fit.objective,
                          kkt_residual=fit.kkt_residual, converged=fit.converged)
    assert np.array_equal(grid.f_values(other), want)
    # and so is a fit of another sample, whose knots are not grid points and
    # whose support is narrower: the points outside it read 0, and the read
    # leaves the solver's state as it was
    state = grid._latest
    inner = x[(x > np.quantile(x, 0.2)) & (x < np.quantile(x, 0.8))] + 1e-3
    foreign = fit_weighted_logconcave(WeightedSample.from_observations(inner))
    assert not np.isin(foreign.knots, grid.points).any()
    got = grid.f_values(foreign)
    assert np.array_equal(got, np.exp(eval_log_density(foreign, x)))
    outside = (x < foreign.knots[0]) | (x > foreign.knots[-1])
    assert outside.any() and np.all(got[outside] == 0.0) and np.all(got[~outside] > 0.0)
    assert grid._latest is state


def test_m_step_f_workspace_and_array_paths_agree(rng):
    x = np.sort(_mixture(400, 9, True))
    omega = rng.uniform(0.0, 1.0, x.size)
    a = em.m_step_f(logcon._Grid(x), omega)
    b = em.m_step_f(x, omega)
    assert np.array_equal(a.knots, b.knots)
    assert np.array_equal(a.phi, b.phi)
    assert a.objective == b.objective
    warm_a = em.m_step_f(logcon._Grid(x), 0.5 * omega, init=a)
    warm_b = em.m_step_f(x, 0.5 * omega, init=b)
    assert np.array_equal(warm_a.phi, warm_b.phi)


def test_a_warm_start_from_the_latest_fit_skips_the_knot_lookup(rng, monkeypatch):
    # two grids of one sample, each with one cold fit: a warm start from
    # the grid's latest fit starts on its knot set, one from an equal copy
    # (another object) looks the knots up, and both give the same bits,
    # over several warm M-steps in turn
    x = np.sort(_mixture(600, 7, True))
    omega = rng.uniform(0.0, 1.0, x.size)
    lookups = []
    knot_set = logcon._Grid.knot_set

    def counted(grid, knots):
        lookups.append(grid)
        return knot_set(grid, knots)

    monkeypatch.setattr(logcon._Grid, "knot_set", counted)
    latest_grid, copy_grid = logcon._Grid(x), logcon._Grid(x)
    latest = em.m_step_f(latest_grid, omega)
    copied = em.m_step_f(copy_grid, omega)
    for scale in (0.5, 0.9, 0.3):
        omega = np.clip(omega * scale + rng.uniform(0.0, 0.2, x.size), 0.0, 1.0)
        copied = LogConcaveFit(knots=copied.knots.copy(), phi=copied.phi.copy(),
                               objective=copied.objective,
                               kkt_residual=copied.kkt_residual,
                               converged=copied.converged)
        lookups.clear()
        latest = em.m_step_f(latest_grid, omega, init=latest)
        copied = em.m_step_f(copy_grid, omega, init=copied)
        assert lookups == [copy_grid]
        assert latest.knots.tobytes() == copied.knots.tobytes()
        assert latest.phi.tobytes() == copied.phi.tobytes()
        assert (latest.objective, latest.kkt_residual, latest.converged) == \
            (copied.objective, copied.kkt_residual, copied.converged)
        assert latest_grid.f_values(latest).tobytes() == copy_grid.f_values(copied).tobytes()


def _fit_bits(fit):
    return (fit.knots.tobytes(), fit.phi.tobytes(), fit.objective,
            fit.kkt_residual, fit.converged)


def test_the_solver_state_survives_reads(rng, monkeypatch):
    # objective on other knots and f_values of a foreign fit read the grid
    # without touching its state: the next warm M-step from the latest fit
    # builds no knot set before its first Newton solve, and gives the bits
    # of the same step on a grid that saw no reads
    x = np.sort(_mixture(500, 11, True))
    omega, omega2 = rng.uniform(0.0, 1.0, (2, x.size))
    quiet = logcon._Grid(x)
    want = em.m_step_f(quiet, omega2, init=em.m_step_f(quiet, omega))

    grid = logcon._Grid(x)
    latest = em.m_step_f(grid, omega)
    m = grid.points.size
    other = grid.points[[0, m // 3, m - 1]]
    logcon.objective(grid.sample(rng.uniform(0.0, 1.0, x.size)), other,
                     np.array([-2.0, -1.0, -2.5]))
    inner = x[(x > np.quantile(x, 0.3)) & (x < np.quantile(x, 0.7))] + 1e-3
    grid.f_values(fit_weighted_logconcave(WeightedSample.from_observations(inner)))

    events = []
    init, newton_solve = logcon._KnotSet.__init__, logcon.K.newton_solve

    def built(ks, *args):
        events.append("build")
        init(ks, *args)

    def solved(*args):
        events.append("newton")
        return newton_solve(*args)

    monkeypatch.setattr(logcon._KnotSet, "__init__", built)
    monkeypatch.setattr(logcon.K, "newton_solve", solved)
    got = em.m_step_f(grid, omega2, init=latest)
    assert events and events[0] == "newton"
    assert _fit_bits(got) == _fit_bits(want)
    assert grid.f_values(got).tobytes() == quiet.f_values(want).tobytes()


def test_a_warm_start_after_a_raised_fit_equals_one_on_a_fresh_grid(rng, monkeypatch):
    # a fit that raises leaves no solver state: a warm start from the
    # earlier fit then gives the bits of the same start on a fresh grid
    x = np.sort(_mixture(500, 13, False))
    omega, omega2 = rng.uniform(0.0, 1.0, (2, x.size))
    grid = logcon._Grid(x)
    earlier = em.m_step_f(grid, omega)
    newton_solve = logcon.K.newton_solve
    raised = []

    def raise_once(*args):
        if not raised:
            raised.append(True)
            raise FloatingPointError("overflow")
        return newton_solve(*args)

    monkeypatch.setattr(logcon.K, "newton_solve", raise_once)
    with pytest.raises(FloatingPointError):
        em.m_step_f(grid, 0.5 * omega, init=earlier)
    assert raised
    got = em.m_step_f(grid, omega2, init=earlier)
    fresh = logcon._Grid(x)
    want = em.m_step_f(fresh, omega2, init=earlier)
    assert _fit_bits(got) == _fit_bits(want)
    assert grid.f_values(got).tobytes() == fresh.f_values(want).tobytes()
