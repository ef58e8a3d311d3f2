"""The active-set solver's step bound, its reuse of the grid, and EM's
count of the iterations it runs.

``_max_feasible_step`` is checked bit for bit against the earlier
formulation, kept here as the oracle. A fit on a grid that already served
fits must give the bits of the same fit on a fresh grid. Every iteration
that ``run_em`` counts runs one M-step and the E-step after it, the
clamped iterations of the second pilot pass included; the clamp ends when
the likelihood settles, on a sample with ties and on one without. Every
trace entry is a log-likelihood that an E-step returned.
"""

from __future__ import annotations

import math

import numpy as np

from logconmix import em, logcon
from logconmix.families import Normal, sample_mixture
from logconmix.logcon import fit_weighted_logconcave
from logconmix.rng import child_seed
from logconmix.simulate import model_catalog


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


def _same_fit(a, b):
    assert np.array_equal(a.knots, b.knots)
    assert a.phi.tobytes() == b.phi.tobytes()
    assert (a.objective, a.kkt_residual, a.converged) == (b.objective, b.kkt_residual, b.converged)


def test_a_warm_fit_on_a_used_grid_equals_one_on_a_fresh_grid(rng):
    # the grid keeps the latest knot set and e^phi between fits; neither may
    # change a bit of the next fit, a warm fit that returns its start included
    x = np.sort(sample_mixture(Normal(0.0, 2.0), Normal(3.0, 1.0), 0.4, 300, 11)[0])
    grid = logcon._Grid(x)
    fit = fit_weighted_logconcave(grid.sample(rng.uniform(0.0, 1.0, x.size)))
    for _ in range(5):
        w = rng.uniform(0.0, 1.0, x.size)
        for _ in range(3):
            warm = fit_weighted_logconcave(grid.sample(w), init=fit)
            _same_fit(warm, fit_weighted_logconcave(logcon._Grid(x).sample(w), init=fit))
            fit = warm


def _tied_catalog_sample():
    """Model 3 at p = 0.9, rounded to one decimal. With p held, the
    clamped warm-up of the second pilot pass would reach an exact fixed
    point at its 5th iteration; its likelihood settles at the 3rd."""
    spec = model_catalog()[3]
    values, _ = sample_mixture(spec.known, spec.unknown, 0.9, 200, child_seed(3200, 1))
    return np.round(values, 1), spec.known


def _counted_run_em(monkeypatch, values, f0, config=None):
    """``run_em`` with every M-step recorded as (warm start, fit)."""
    steps = []
    m_step_f = em.m_step_f

    def counted(*args, **kwargs):
        steps.append((kwargs.get("init"), m_step_f(*args, **kwargs)))
        return steps[-1][1]

    monkeypatch.setattr(em, "m_step_f", counted)
    return em.run_em(values, f0, config), steps


def test_run_em_runs_one_m_step_per_counted_iteration(monkeypatch):
    # each of the two pilot passes runs one cold M-step for its start and
    # one warm M-step per iteration it counts, under budgets below, at and
    # just above the clamp's cap of 50, and one that does not bind: on this
    # sample the second pass's clamp runs to its cap, so the first three
    # budgets end the run early, each at a different p_hat
    spec = model_catalog()[1]
    values, _ = sample_mixture(spec.known, spec.unknown, 0.1, 200,
                               child_seed(3023998541, 1))
    p_hats = []
    for max_iters in (10, 50, 51, 500):
        result, steps = _counted_run_em(monkeypatch, values, spec.known,
                                        em.EmConfig(max_iters=max_iters))
        assert result.degenerate is None, max_iters
        assert result.converged == (max_iters == 500), max_iters
        assert len(steps) == result.iterations + 2, max_iters
        p_hats.append(result.p_hat)
    assert len(set(p_hats[:3])) == 3
    # a cell whose clamp settles without an exact fixed point: no warm fit
    # returns its start bit for bit, and the second pass ends well inside
    # the clamp's cap, so the clamp ended when the likelihood settled
    spec = model_catalog()[5]
    values, _ = sample_mixture(spec.known, spec.unknown, 0.5, 200, child_seed(3200, 2))
    result, steps = _counted_run_em(monkeypatch, values, spec.known)
    assert result.degenerate is None and result.converged
    assert len(steps) == result.iterations + 2
    cold = [i for i, (init, _) in enumerate(steps) if init is None]
    assert len(cold) == 2 and cold[0] == 0
    assert len(steps) - cold[1] - 1 < em._PILOT_CLAMP_ITERS
    assert not any(init.knots.tobytes() == fit.knots.tobytes()
                   and init.phi.tobytes() == fit.phi.tobytes()
                   for init, fit in steps if init is not None)


def test_run_em_forms_each_trace_entry_in_one_e_step(monkeypatch):
    # one pass: an E-step at its start and one after each M-step, one per
    # polish step of p (every m_step_p call), and a final one for the last
    # trace entry, which holds only their values
    values, f0 = _tied_catalog_sample()
    e_steps, p_steps = [], []
    e_step, m_step_p = em.e_step, em.m_step_p

    def counted_e(*args):
        e_steps.append(e_step(*args))
        return e_steps[-1]

    def counted_p(*args):
        p_steps.append(m_step_p(*args))
        return p_steps[-1]

    monkeypatch.setattr(em, "e_step", counted_e)
    monkeypatch.setattr(em, "m_step_p", counted_p)
    result = em.run_em(values, f0, em.EmConfig(init="flat"))
    assert result.degenerate is None and result.converged
    polish = len(p_steps)
    assert polish >= 1
    assert len(e_steps) == (result.iterations + 1) + polish + 1
    logliks = [loglik for _, loglik in e_steps]
    want = logliks[:result.iterations + 1] + logliks[-1:]
    assert result.loglik_trace.tobytes() == np.asarray(want).tobytes()
    assert result.p_hat == p_steps[-1]
