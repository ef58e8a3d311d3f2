"""The density-ratio pilot's binned kernel estimate against the exact O(n^2)
kernel sum, its bandwidth's equivariance at every scale, and the input-order
invariance of the sort-once `run_em`."""

from __future__ import annotations

import math

import numpy as np
import pytest

from logconmix import em
from logconmix.em import run_em
from logconmix.families import Normal, ShiftedExponential, sample_mixture
from logconmix.rng import child_seed
from logconmix.simulate import model_catalog


def exact_kde(x, at=None):
    """Gaussian kernel estimate of the density of ``x`` at ``at`` (default:
    at ``x``), summed over every pair, with the pilot's Silverman bandwidth."""
    at = x if at is None else at
    h = em._silverman_bandwidth(x)
    out = np.empty(at.size)
    step = max(1, int(2.0e6 // x.size))
    for start in range(0, at.size, step):
        z = (at[start:start + step, None] - x[None, :]) / h
        out[start:start + step] = np.exp(-0.5 * z * z).mean(axis=1)
    return out / (h * math.sqrt(2.0 * math.pi))


def _normal_mixture(rng):
    return np.concatenate([rng.normal(0.0, 1.0, 700), rng.normal(3.0, 0.5, 300)])


def _uniform_beta(rng):
    return np.concatenate([rng.uniform(0.0, 1.0, 900), rng.beta(1.0, 5.0, 100)])


def _student_t2(rng):
    return rng.standard_t(2.0, 1000)


def _four_points(rng):
    return np.array([0.1, 0.5, 2.0, 2.1])


def _heavy_ties(rng):
    return rng.integers(0, 6, 1000).astype(float)


@pytest.mark.parametrize("draw", [_normal_mixture, _uniform_beta, _student_t2,
                                  _four_points, _heavy_ties])
def test_binned_pilot_matches_exact_kernel_sum(draw):
    x = draw(np.random.default_rng(0))
    got = em._gaussian_kde_at_points(x)
    want = exact_kde(x)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-4


def test_binned_pilot_caps_its_grid_on_cauchy_data():
    x = np.random.default_rng(0).standard_cauchy(20000)
    h = em._silverman_bandwidth(x)
    # at the default step h/64 the range would need more cells than the cap
    assert np.ptp(x) / (h / em._KDE_STEPS_PER_BANDWIDTH) + 1 > em._KDE_MAX_CELLS
    got = em._gaussian_kde_at_points(x)
    # the exact sum at every point is O(n^2); check a subset and both extremes
    idx = np.concatenate((np.random.default_rng(1).choice(x.size, 400, replace=False),
                          [np.argmin(x), np.argmax(x)]))
    want = exact_kde(x, x[idx])
    assert np.max(np.abs(got[idx] / want - 1.0)) <= 1e-2


def _model1_sample():
    """The model-1 sample of ROADMAP item 2's scale table: Normal(0, 2) null,
    30% Normal(3, 1), n = 1000."""
    spec = model_catalog()[1]
    return sample_mixture(spec.known, spec.unknown, 0.3, 1000, child_seed(5, 0))[0]


@pytest.mark.parametrize("k", [-1000, -664, 0, 500, 1000])
def test_silverman_bandwidth_scales_exactly_by_powers_of_two(k):
    # at 2^-664 np.std underflows to 0, and at 2^1000 it overflows; the
    # bandwidth of data scaled by 2^k is still 2^k times the bandwidth
    x = _model1_sample()
    assert em._silverman_bandwidth(np.ldexp(x, k)) == math.ldexp(
        em._silverman_bandwidth(x), k)


def test_run_em_does_not_collapse_on_data_of_spread_1e_200():
    scale = math.ldexp(1.0, -664)
    r = run_em(_model1_sample() * scale, Normal(0.0, 2.0 * scale))
    assert r.degenerate is None and r.p_hat > 0.2


def test_run_em_is_invariant_to_input_order():
    f0 = Normal(0.0, 2.0)
    values, _ = sample_mixture(f0, ShiftedExponential(1.0, 2.0), 0.4, 300, 5)
    perm = np.random.default_rng(2).permutation(values.size)
    base = run_em(values, f0)
    shuffled = run_em(values[perm], f0)
    assert shuffled.p_hat == pytest.approx(base.p_hat, abs=1e-12)
    np.testing.assert_allclose(shuffled.omega, base.omega[perm], rtol=0.0,
                               atol=1e-12)
    assert shuffled.iterations == base.iterations
