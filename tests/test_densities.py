"""Component families: log-density values against scipy closed forms,
quadrature normalization, support metadata, sampling correctness
(Kolmogorov-Smirnov at large n) and determinism, and the tabulated-density
CSV loader."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats as st
from scipy.integrate import quad

from logconmix.families import (Beta15, Exponential, Normal, ShiftedChiSq3,
                                StudentT, Tabulated, Uniform,
                                load_tabulated_csv, sample_mixture)
from logconmix.rng import child_seed, make_rng

from conftest import trapezoid

# (family instance, scipy frozen distribution)
CASES = [
    (Normal(0.0, 2.0), st.norm(0.0, 2.0)),
    (Normal(-1.5, 0.7), st.norm(-1.5, 0.7)),
    (Uniform(0.0, 1.0), st.uniform(0.0, 1.0)),
    (Exponential(1.0), st.expon(scale=1.0)),
    (Exponential(0.25), st.expon(scale=4.0)),
    (StudentT(5.0), st.t(5.0)),
    (Beta15(), st.beta(1.0, 5.0)),
    (Exponential(1.0, 2.0), st.expon(loc=2.0, scale=1.0)),
    (Exponential(0.5, 3.0), st.expon(loc=3.0, scale=2.0)),
    (ShiftedChiSq3(2.0), st.chi2(3.0, loc=2.0)),
    (StudentT(5.0, 3.0), st.t(5.0, loc=3.0)),
]
# each case's id: the distribution it draws and its index in CASES
CASE_IDS = [f"{name}{i}" for i, name in enumerate(
    ["Normal", "Normal", "Uniform", "Exponential", "Exponential", "StudentT",
     "Beta15", "ShiftedExponential", "ShiftedExponential", "ShiftedChiSq3",
     "ShiftedT5"])]


def _sample(spec, n, seed):
    return spec.draw(n, make_rng(seed))


@pytest.mark.parametrize("spec,frozen", CASES, ids=CASE_IDS)
def test_log_pdf_matches_scipy(spec, frozen):
    lo, hi = frozen.ppf(0.001), frozen.ppf(0.999)
    x = np.linspace(lo + 1e-9, hi - 1e-9, 50)
    got = spec.log_pdf(x)
    expected = frozen.logpdf(x)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("spec,frozen", CASES, ids=CASE_IDS)
def test_density_integrates_to_one(spec, frozen):
    lo, hi = frozen.support()
    val, err = quad(lambda u: math.exp(spec.log_pdf(np.array([u]))[0]),
                    lo, hi, limit=200)
    assert val == pytest.approx(1.0, abs=max(1e-8, 10 * err))


@pytest.mark.parametrize("spec,frozen", CASES, ids=CASE_IDS)
def test_sampling_distribution_ks(spec, frozen):
    draws = _sample(spec, 100_000, 123)
    stat = st.kstest(draws, frozen.cdf)
    assert stat.pvalue > 1e-3, stat


@pytest.mark.parametrize("spec,frozen", CASES, ids=CASE_IDS)
def test_sampling_is_deterministic_per_seed(spec, frozen):
    a = _sample(spec, 64, 7)
    b = _sample(spec, 64, 7)
    c = _sample(spec, 64, 8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_log_pdf_is_minus_inf_outside_support():
    x = np.array([-0.5, 1.5])
    assert np.all(Uniform(0.0, 1.0).log_pdf(x) == -np.inf)
    assert Exponential(1.0).log_pdf(np.array([-1.0]))[0] == -np.inf


def test_support_metadata():
    assert Normal(0.0, 1.0).support == (-math.inf, math.inf)
    assert StudentT(5.0).support == (-math.inf, math.inf)
    assert Uniform(0.25, 0.75).support == (0.25, 0.75)
    assert Exponential(2.0).support == (0.0, math.inf)
    for spec, frozen in CASES:
        assert spec.support == tuple(frozen.support()), spec


def test_mixture_sampling_labels_and_components():
    f0 = Normal(0.0, 2.0)
    f = Exponential(1.0, 2.0)
    values, labels = sample_mixture(f0, f, 0.3, 200_000, 99)
    assert values.shape == labels.shape == (200_000,)
    assert set(np.unique(labels)) == {0.0, 1.0}
    # label 1 marks a draw from the known component f0 (the same orientation
    # as the posterior weight omega), so its fraction estimates 1 - p
    assert labels.mean() == pytest.approx(0.7, abs=0.005)
    null_draws = values[labels == 1.0]
    sig_draws = values[labels == 0.0]
    assert st.kstest(null_draws, st.norm(0.0, 2.0).cdf).pvalue > 1e-3
    assert st.kstest(sig_draws, st.expon(loc=2.0, scale=1.0).cdf).pvalue > 1e-3


def test_mixture_sampling_deterministic():
    v1, l1 = sample_mixture(Normal(0, 1), StudentT(5.0, 3.0), 0.5, 100, 5)
    v2, l2 = sample_mixture(Normal(0, 1), StudentT(5.0, 3.0), 0.5, 100, 5)
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(l1, l2)


@pytest.mark.parametrize("n", [2.5, True, "3"])
def test_mixture_sampling_rejects_counts_that_are_not_integers(n):
    # unchecked, numpy raised a TypeError that named no argument
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_mixture(Normal(0, 1), StudentT(5.0, 3.0), 0.5, n, 5)


def test_mixture_sampling_takes_numpy_integer_counts_as_their_value():
    got = sample_mixture(Normal(0, 1), StudentT(5.0, 3.0), 0.5, np.int64(100), 5)
    want = sample_mixture(Normal(0, 1), StudentT(5.0, 3.0), 0.5, 100, 5)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_validation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)
    with pytest.raises(ValueError):
        Uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        Exponential(-2.0)
    with pytest.raises(ValueError):
        StudentT(0.0)
    with pytest.raises(ValueError):
        Exponential(1.0, math.inf)
    with pytest.raises(ValueError):
        StudentT(5.0, math.nan)


def test_tabulated_uniform_density():
    tab = Tabulated(np.linspace(0.0, 1.0, 11), np.zeros(11))
    x = np.array([0.05, 0.5, 0.95])
    np.testing.assert_allclose(tab.log_pdf(x), 0.0, atol=1e-12)
    assert tab.log_pdf(np.array([1.5]))[0] == -np.inf
    assert tab.support == (0.0, 1.0)


def test_tabulated_rejects_unnormalized_tables():
    grid = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="integrates"):
        Tabulated(grid, np.array([0.0, -1.0, -2.0]))


def test_tabulated_interpolates_log_density():
    # piecewise-linear log-density between tabulated values; the table must
    # arrive trapezoid-normalized, so shift a raw table by log of its total
    grid = np.array([0.0, 1.0, 2.0])
    raw = np.array([0.0, -1.0, -2.0])
    total = trapezoid(np.exp(raw), grid)
    logd = raw - math.log(total)
    tab = Tabulated(grid, logd)
    got = tab.log_pdf(np.array([0.5, 1.5]))
    np.testing.assert_allclose(got, np.interp([0.5, 1.5], grid, logd),
                               atol=1e-12)


def test_tabulated_csv_round_trip(tmp_path):
    grid = np.linspace(-1.0, 3.0, 21)
    raw = -0.5 * grid ** 2
    logd = raw - math.log(trapezoid(np.exp(raw), grid))
    path = tmp_path / "table.csv"
    lines = ["x,log_density"]
    lines += [f"{float(g)!r},{float(v)!r}" for g, v in zip(grid, logd)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tab = load_tabulated_csv(str(path))
    assert tab.support == (-1.0, 3.0)
    inside = tab.log_pdf(np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(inside, logd[[0, 5, 10]], atol=1e-12)
    draws = _sample(tab, 50_000, 21)
    assert draws.min() >= -1.0 and draws.max() <= 3.0
    # sampled distribution matches the table's own trapezoid CDF
    stat = st.kstest(draws, tab.cdf)
    assert stat.pvalue > 1e-3, stat


def test_tabulated_cdf_is_the_normalized_cumulative_trapezoid():
    # an uneven grid, so a cdf that ignored the spacing would show, and a
    # table whose trapezoid total is 1.0005, inside the accepted 1e-3, so
    # one that skipped the rescaling would too
    grid = np.array([-1.0, -0.4, 0.0, 0.3, 1.1, 2.0, 3.0])
    raw = -0.5 * (grid - 0.5) ** 2 + 0.3 * grid
    logd = raw - math.log(trapezoid(np.exp(raw), grid) / 1.0005)
    tab = Tabulated(grid, logd)
    assert tab.cdf(-1.0 - 1e-9) == 0.0 and tab.cdf(-50.0) == 0.0
    assert tab.cdf(3.0 + 1e-9) == 1.0 and tab.cdf(50.0) == 1.0
    masses = [0.0]
    for x0, x1, a, b in zip(grid[:-1], grid[1:], logd[:-1], logd[1:]):
        masses.append(masses[-1] + 0.5 * (math.exp(a) + math.exp(b)) * (x1 - x0))
    np.testing.assert_allclose(tab.cdf(grid), np.array(masses) / masses[-1],
                               rtol=1e-13, atol=1e-15)
    fine = np.linspace(-1.5, 3.5, 2001)
    assert np.all(np.diff(tab.cdf(fine)) >= 0.0)
    stat = st.kstest(_sample(tab, 20_000, 31), tab.cdf)
    assert stat.pvalue > 1e-3, stat


def test_rng_child_streams_are_distinct_and_stable():
    r0 = make_rng(child_seed(42, 0))
    r0_again = make_rng(child_seed(42, 0))
    r1 = make_rng(child_seed(42, 1))
    a = r0.uniform(size=8)
    np.testing.assert_array_equal(a, r0_again.uniform(size=8))
    assert not np.array_equal(a, r1.uniform(size=8))


@pytest.mark.parametrize("seed", [2.9, 1.5, -1, True, "3"])
def test_rng_rejects_seeds_that_are_not_non_negative_integers(seed):
    # 2.9 used to draw make_rng(2)'s stream, and 1.5 child_seed(1, .)'s
    with pytest.raises(ValueError, match="seed must be"):
        make_rng(seed)
    with pytest.raises(ValueError, match="seed must be"):
        child_seed(seed, 0)


def test_rng_takes_numpy_integer_seeds_as_their_value():
    np.testing.assert_array_equal(make_rng(np.uint32(7)).uniform(size=4),
                                  make_rng(7).uniform(size=4))
    assert child_seed(np.int64(7), 2).entropy == 7
    np.testing.assert_array_equal(make_rng(child_seed(42, np.int64(2))).uniform(size=4),
                                  make_rng(child_seed(42, 2)).uniform(size=4))


@pytest.mark.parametrize("index", [True, 1.5, 2.0, "1"])
def test_rng_rejects_child_indices_that_are_not_integers(index):
    # unchecked, True would draw child 1's stream and 1.5 would fail in
    # numpy with a message about the seed
    with pytest.raises(ValueError, match="index"):
        child_seed(42, index)
