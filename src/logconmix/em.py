"""EM estimation of the two-component mixture (1-p) f0 + p f.

f0 is a fully known density; f is estimated nonparametrically under the
log-concavity constraint. The E-step computes posterior membership
probabilities for the known component,

    omega_i = (1-p) f0(x_i) / ((1-p) f0(x_i) + p f(x_i)),

the M-step updates p to the mean posterior mass of the unknown component
and refits f by a weighted log-concave MLE with weights proportional to
1 - omega; iteration stops when the likelihood change falls below a
relative tolerance. The M-step maximizes the EM surrogate itself: its
weights are the normalized 1 - omega, of which only the two end weights are
lifted to a floor (``logcon.WEIGHT_FLOOR_SCALE`` / m), so, as for exact EM,
the observed-data log-likelihood does not fall beyond the solver's
tolerance. In ``tests/test_acceptance.py``, no step falls by more than 1e-8
on the 100 traces of ``test_em_likelihood_never_decreases_across_all_models``
or on the two model-5 samples at n = 1000 of
``test_em_likelihood_never_decreases_on_model5_at_n1000``.

Initialization matters more here than in textbook EM: the empirical
likelihood typically has a spurious maximum at the boundary p = 1, where a
single log-concave density imitates the whole mixture, and seeding f with
a fit of the pooled sample lands in that basin. The default
``init='pilot'`` therefore seeds the responsibilities from a density-ratio
pilot,

    omega0_i = min(1, r * f0(x_i) / h(x_i)),

with h a Gaussian kernel estimate of the mixture density (Silverman's
bandwidth b) and r a proxy for 1 - p — the construction used for local
false-discovery rates. h is a linearly binned kernel estimate computed in
O(n + M log M) for M grid cells (Silverman 1982, AS 176; Wand 1994): the
points are binned onto a grid of step b/64, convolved by FFT with the
kernel cut at 8b, and the grid is interpolated back to the points. Its
relative error against the exact O(n^2) kernel sum is below 1e-4. The grid
is capped at 2^20 cells, so on very long-tailed data the step grows past
b/64 and the error with it. Pilot values above 0.9 are rounded up to 1 so
that clearly-null points contribute nothing to the initial f. The EM pass
runs twice: first with r = 1 (maximal separation), then re-seeded with
r = 1 - p_hat from the first pass; the second pass holds p clamped at its
starting value while f is refit, until f's likelihood settles or for at
most 50 iterations, before the pair moves jointly (see ``_em_pass``), and
the result carries the second pass's trace and the combined iteration
count. ``init='flat'`` instead uses the classical single-pass start
omega0 = 1 - p_init everywhere, which makes f^(0) the unweighted
log-concave MLE of the full sample.

Cost per iteration. ``run_em`` sorts the sample once and builds one logcon
grid from it: the distinct points, on which every M-step fits, and each
observation's tie group. An iteration then makes a fixed number of
elementwise passes over the n points (m <= n distinct ones), plus O(R) work
on the R knots: one ``newton_solve`` kernel call per knot set, which
evaluates psi with its derivatives and segment masses at every Newton
point (the masses also serve the normalization), and one
``knot_grad_hess`` call per round for the multiplier check:
- the E-step and the mixing weight: about 10 passes with one ``log``, as
  the E-step forms the mixture density once for both omega and the
  log-likelihood, and p is the unknown mass already summed for the
  degenerate tests;
- the M-step's weights: one bincount over the tie groups (only when there
  are ties), then 4 passes to normalize them, the two end floors being
  scalar tests;
- the fit: once per fit, 3 passes for the weights' part of every
  multiplier, sum_{x_i < x} w_i (x - x_i); per knot set, about 12 passes
  to find each point's segment (by ``np.repeat`` of the knot indices,
  without a search) and its interpolation shares, built only where a knot
  drops or is released; per aggregation onto the knots, one bincount over
  2m entries; and per multiplier check (once per outer round, usually once
  per M-step), about 22 passes with one ``exp``, whose values e^phi are
  the next E-step's f, after one pass over the knots on Python floats and
  no kernel call. The check gathers its four per-segment values in one
  ``take``, forms lambda in place and keeps only its least entry and that
  point. The grid keeps the latest fit with its e^phi and its knot set, so
  a warm start from the previous M-step's fit starts on that knot set
  without a build.
No pass sorts or binary-searches the points. A pass is one loop of steps:
step 0, its start, runs a cold M-step and one E-step, and every later step
is a counted iteration that runs one warm M-step and then one E-step,
except one that ends its pass at a degenerate exit below: at the
``AllKnown`` exit the M-step raises and no E-step runs, and the
``AllUnknown`` exit runs only the M-step.

Degenerate exits: when the posterior mass of one component collapses below
``_MIN_COMPONENT_MASS`` (1e-6) per observation, the result is pinned to the
surviving boundary model (p=0 when everything is attributed to f0, p=1
when nothing is) and flagged, instead of raising. The unknown component's
collapse is found only by ``m_step_f``, whose ``ComponentCollapsedError``
is the ``AllKnown`` exit, at step 0 or in an iteration alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (AllWeightsKnownError, ComponentCollapsedError,
                     DegenerateSampleError, ZeroMixtureDensityError, require_int)
from .families import KnownComponent, log_pdf_known
from .identifiability import (IdentifiabilityReport, check_identifiability,
                              report_to_dict)
from .logcon import (LogConcaveFit, WeightedSample, _Grid, eval_log_density,
                     fit_to_dict, fit_weighted_logconcave)

__all__ = [
    "EmConfig", "EmResult", "e_step", "m_step_p", "m_step_f", "run_em",
    "posterior_unknown", "estimate_mu", "classification_error",
    "em_result_to_dict",
]

# a component whose posterior mass falls below this per observation has
# collapsed: the M-step refuses it and EM takes a degenerate exit
_MIN_COMPONENT_MASS = 1e-6
_P_POLISH_TOL = 1e-15
_P_POLISH_MAX = 2000
_PILOT_ROUND_UP = 0.9
_PILOT_CLAMP_ITERS = 50
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_KDE_STEPS_PER_BANDWIDTH = 64
_KDE_CUT_BANDWIDTHS = 8.0
_KDE_MAX_CELLS = 1 << 20  # bounds the pilot's memory on long-tailed data


@dataclass(frozen=True)
class EmConfig:
    """Tuning knobs for :func:`run_em`."""

    p_init: float = 0.5
    max_iters: int = 500
    tol_loglik: float = 1e-8
    init: str = "pilot"

    def __post_init__(self) -> None:
        if not (0.0 < self.p_init < 1.0):
            raise ValueError(f"p_init must lie in (0, 1), got {self.p_init}")
        max_iters = require_int("max_iters", self.max_iters)
        if max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        object.__setattr__(self, "max_iters", max_iters)  # a Python int
        if not (0.0 < self.tol_loglik < math.inf):
            # an infinite tolerance stops EM after its first iterations and
            # still reports convergence
            raise ValueError(f"tol_loglik must be positive and finite, got {self.tol_loglik}")
        if self.init not in ("pilot", "flat"):
            raise ValueError(f"init must be 'pilot' or 'flat', got {self.init!r}")


@dataclass(frozen=True)
class EmResult:
    """What ``run_em`` returns. ``iterations`` counts the iterations of both
    pilot passes, but ``loglik_trace`` holds the last pass only (its start
    and one entry per iteration) plus one entry after the polish of p: a
    model-3 sample of the tests runs 12 iterations for 8 entries. Each entry
    is the log-likelihood that an :func:`e_step` returned."""

    p_hat: float
    omega: np.ndarray
    fit: LogConcaveFit
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    degenerate: Optional[str]
    identifiability: IdentifiabilityReport


def e_step(p: float, f0_values: np.ndarray,
           f_values: np.ndarray) -> Tuple[np.ndarray, float]:
    """Posterior probability that each observation came from f0, and the
    observed log-likelihood, both read off one mixture density
    (1-p) f0 + p f.

    A point where that density is not positive raises
    :class:`ZeroMixtureDensityError`, even where f0 alone vanishes and p is
    0. A p outside [0, 1], NaN included, and f0 and f values of different
    shapes raise ValueError.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    f0v = np.asarray(f0_values, dtype=float)
    fv = np.asarray(f_values, dtype=float)
    if f0v.shape != fv.shape:
        raise ValueError(
            f"shape mismatch: f0_values {f0v.shape} vs f_values {fv.shape}")
    num = (1.0 - p) * f0v
    den = num + p * fv
    if np.count_nonzero(den <= 0.0):
        i = int(np.flatnonzero(den <= 0.0)[0])
        raise ZeroMixtureDensityError(
            f"mixture density is zero at observation index {i}: "
            f"f0={f0v[i]:g}, f={fv[i]:g}, p={p:g}")
    return num / den, float(np.log(den).sum())


def m_step_p(omega: np.ndarray) -> float:
    """Updated mixing proportion: mean posterior mass of the unknown part."""
    om = np.asarray(omega, dtype=float)
    if om.size == 0:
        raise ValueError("omega must be non-empty")
    return float(np.mean(1.0 - om))


def m_step_f(points: Sequence[float], omega: np.ndarray,
             init: Optional[LogConcaveFit] = None) -> LogConcaveFit:
    """Weighted log-concave refit of the unknown component.

    Weights are proportional to 1 - omega. Raises
    :class:`ComponentCollapsedError` when the total unknown-component mass
    is below ``_MIN_COMPONENT_MASS`` per observation, which would make the
    weighted sample meaningless. Inside :func:`run_em`, ``points`` is the
    run's grid of sorted observations, which builds the same weighted
    sample without a sort.
    """
    residual = 1.0 - np.asarray(omega, dtype=float)
    total = float(residual.sum())
    n = residual.size
    if total < _MIN_COMPONENT_MASS * n:
        raise ComponentCollapsedError(
            f"unknown-component mass {total:g} is below "
            f"{_MIN_COMPONENT_MASS:g} per observation ({n} observations)")
    if isinstance(points, _Grid):
        sample = points.sample(residual)
    else:
        sample = WeightedSample.from_observations(points, residual)
    return fit_weighted_logconcave(sample, init=init)


def _silverman_bandwidth(x: np.ndarray) -> float:
    """Silverman's 0.9 min(sd, IQR/1.34) n^(-1/5), taken on ``x`` scaled
    by the power of two that brings its largest |value| into [0.5, 1) and
    scaled back. The scaling is exact, as in ``cli._pooled_t``, so the sd
    can neither underflow to 0 nor overflow at extreme scales, and the
    bandwidth of 2^k x is 2^k times that of x. ``run_em`` passes at least
    4 distinct finite points, and the scaling keeps the largest apart from
    the rest, so the spread is positive."""
    e = int(np.frexp(max(float(x.max()), -float(x.min())))[1])
    y = np.ldexp(x, -e)
    sd = float(np.std(y, ddof=1))
    q1, q3 = np.percentile(y, [25, 75])
    iqr = float(q3 - q1)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    return math.ldexp(0.9 * spread * x.size ** (-0.2), e)


def _gaussian_kde_at_points(x: np.ndarray) -> np.ndarray:
    """Kernel estimate of the data density, evaluated at the data points.

    Linearly binned Gaussian KDE with FFT convolution, O(n + M log M) for M
    grid cells; see the module docstring for the grid and its accuracy.
    """
    h = _silverman_bandwidth(x)
    lo = float(np.min(x))
    span = float(np.max(x)) - lo
    step = h / _KDE_STEPS_PER_BANDWIDTH
    cells = max(2, int(math.ceil(span / step)) + 1)
    if cells > _KDE_MAX_CELLS:
        cells = _KDE_MAX_CELLS
        step = span / (cells - 1)
    # linear binning: each point splits its unit mass between the two grid
    # nodes around it, in proportion to its distance from the other one
    pos = (x - lo) / step
    left = np.minimum(pos.astype(np.intp), cells - 2)
    frac = pos - left
    counts = (np.bincount(left, weights=1.0 - frac, minlength=cells)
              + np.bincount(left + 1, weights=frac, minlength=cells))
    reach = int(math.ceil(_KDE_CUT_BANDWIDTHS * h / step))
    # circular convolution of length >= cells + reach has no wrap-around
    size = 1 << int(math.ceil(math.log2(cells + reach)))
    z = np.arange(reach + 1) * (step / h)
    half = np.exp(-0.5 * z * z)
    kernel = np.zeros(size)
    kernel[:reach + 1] = half
    kernel[size - reach:] = half[:0:-1]
    grid = np.fft.irfft(np.fft.rfft(counts, size) * np.fft.rfft(kernel),
                        size)[:cells]
    out = grid[left] * (1.0 - frac) + grid[left + 1] * frac
    return out / (x.size * h * _SQRT_2PI)


def _pilot_omega(f0_values: np.ndarray, kde_values: np.ndarray,
                 r: float) -> np.ndarray:
    """Density-ratio starting responsibilities min(1, r*f0/h).

    With h a kernel estimate of the observed density and r an estimate of
    the null proportion, r*f0/h is exactly the estimated posterior null
    probability of each observation. Values above the round-up threshold
    are hardened to exactly 1: near-1 soft values carry kernel-estimation
    noise that would bleed a sliver of every null observation into the
    unknown component and seed the spurious boundary basin.
    """
    omega = np.zeros_like(f0_values)
    ok = f0_values > 0.0
    omega[ok] = np.clip(r * f0_values[ok] / kde_values[ok], 0.0, 1.0)
    return np.where(omega >= _PILOT_ROUND_UP, 1.0, omega)


@dataclass
class _EmState:
    p: float
    omega: np.ndarray
    fit: LogConcaveFit
    trace: List[float]
    iterations: int
    converged: bool
    degenerate: Optional[str]


def _em_pass(grid: _Grid, f0_values: np.ndarray, omega0: np.ndarray,
             cfg: EmConfig, clamp_iters: int = 0) -> _EmState:
    """One full EM run from starting responsibilities omega0.

    Step 0 is the pass's start: a cold M-step on omega0, p = mean(1 - omega0)
    and the first E-step. Each later step is one counted iteration, up to
    ``cfg.max_iters``. The mixing proportion is held at its starting value,
    and only the unknown component is refit, until the first iteration whose
    likelihood change passes the convergence test, or for at most
    ``clamp_iters`` iterations. Holding p lets the density consolidate onto
    the signal region before the pair (p, f) moves jointly; each clamped
    iteration is an EM step in f alone, and an exact fixed point of the
    clamp has zero likelihood change, so it ends the clamp too. The test
    that ends the clamp ends the pass only once p moves.

    The ``AllKnown`` exit is the M-step's :class:`ComponentCollapsedError`:
    it keeps the last fit, or the pooled MLE with one trace entry when it
    comes at step 0, before any fit.
    """
    n = f0_values.size
    omega, fit, trace = omega0, None, []
    for step in range(cfg.max_iters + 1):
        unknown_mass = float((1.0 - omega).sum())
        if step and n - unknown_mass < _MIN_COMPONENT_MASS * n:
            omega = np.zeros_like(omega)
            fit = m_step_f(grid, omega, init=fit)
            return _EmState(1.0, omega, fit, trace, step, True, "AllUnknown")
        if not 0 < step <= clamp_iters:
            p = unknown_mass / n  # m_step_p(omega): np.mean is this sum / n
        try:
            fit = m_step_f(grid, omega, init=fit)
        except ComponentCollapsedError:
            # Everything is attributed to f0: report the boundary model. The
            # fit slot still needs a density; before any fit, the pooled MLE.
            if fit is None:
                fit = fit_weighted_logconcave(grid.sample(np.full(n, 1.0 / n)))
                trace.append(e_step(0.0, f0_values, grid.f_values(fit))[1])
            return _EmState(0.0, np.ones(n), fit, trace, step, True, "AllKnown")
        omega, loglik = e_step(p, f0_values, grid.f_values(fit))
        trace.append(loglik)
        if step and abs(loglik - trace[-2]) <= cfg.tol_loglik * (1.0 + abs(trace[-2])):
            if step > clamp_iters:
                return _EmState(p, omega, fit, trace, step, True, None)
            clamp_iters = step  # f has settled with p held: release p
    return _EmState(p, omega, fit, trace, cfg.max_iters, False, None)


def run_em(points: Sequence[float], f0: KnownComponent,
           config: Optional[EmConfig] = None) -> EmResult:
    """Fit the mixture by EM with a weighted log-concave M-step.

    Each M-step warm-starts the active-set solver from the previous fit,
    which keeps M-steps cheap. See the module docstring for the two
    initialization strategies and for what holds of the likelihood trace.

    EM runs on the sample sorted once up front, with one logcon grid of the
    sorted observations for all M-steps (see the module docstring);
    ``omega`` is returned in the input order. One :func:`_em_pass` runs from
    either start; the pilot start runs a second, clamped pass unless the
    first ends at a degenerate exit. ``iterations`` counts the iterations of
    every pass, each of which ran (see the module docstring);
    ``loglik_trace`` covers the last pass and the polish of p only (see
    :class:`EmResult`).
    """
    cfg = config if config is not None else EmConfig()
    points = np.asarray(points, dtype=float).ravel()
    if points.size and not np.all(np.isfinite(points)):
        raise ValueError("observations must be finite")
    order = np.argsort(points, kind="stable")
    x = points[order]
    grid = _Grid(x)
    if grid.points.size < 4:
        raise DegenerateSampleError(
            f"need at least 4 distinct observations, got {grid.points.size}")

    f0_values = np.exp(log_pdf_known(f0, x))
    if cfg.init == "flat":
        omega0 = np.full(x.shape, 1.0 - cfg.p_init)
    else:
        kde_values = _gaussian_kde_at_points(x)
        omega0 = _pilot_omega(f0_values, kde_values, 1.0)
    state = _em_pass(grid, f0_values, omega0, cfg)
    iterations = state.iterations
    if cfg.init == "pilot" and state.degenerate is None:
        omega1 = _pilot_omega(f0_values, kde_values, 1.0 - state.p)
        state = _em_pass(grid, f0_values, omega1, cfg,
                         clamp_iters=_PILOT_CLAMP_ITERS)
        iterations += state.iterations

    p = state.p
    omega = state.omega
    trace = state.trace
    if state.degenerate is None:
        # Polish p to its fixed point under the final fit so that
        # p_hat == mean(1 - omega) holds exactly on the returned result.
        f_values = grid.f_values(state.fit)
        for _ in range(_P_POLISH_MAX):
            omega = e_step(p, f0_values, f_values)[0]
            p_new = m_step_p(omega)
            shift = abs(p_new - p)
            p = p_new
            if shift <= _P_POLISH_TOL:
                break
        trace = trace + [e_step(p, f0_values, f_values)[1]]

    report = check_identifiability(f0, state.fit)
    omega_in_order = np.empty_like(omega)
    omega_in_order[order] = omega
    return EmResult(p_hat=float(p), omega=omega_in_order, fit=state.fit,
                    loglik_trace=np.asarray(trace, dtype=float),
                    iterations=iterations, converged=state.converged,
                    degenerate=state.degenerate, identifiability=report)


def posterior_unknown(result: EmResult, points: Union[float, Sequence[float]],
                      f0: KnownComponent) -> Union[float, np.ndarray]:
    """Posterior probability that a point came from the unknown component.

    Evaluates p f(x) / ((1-p) f0(x) + p f(x)) at the fitted parameters.
    Raises :class:`ZeroMixtureDensityError` where the fitted mixture density
    is zero (outside both supports), and ``ValueError`` for a NaN point.
    """
    scalar = np.ndim(points) == 0
    x = np.atleast_1d(np.asarray(points, dtype=float))
    f0v = np.exp(log_pdf_known(f0, x))
    fv = np.exp(eval_log_density(result.fit, x))
    num = result.p_hat * fv
    den = (1.0 - result.p_hat) * f0v + num
    if np.any(den <= 0.0):
        i = int(np.flatnonzero(den <= 0.0)[0])
        raise ZeroMixtureDensityError(
            f"fitted mixture density is zero at x={x.flat[i]:g}")
    out = num / den
    return float(out[0]) if scalar else out


def estimate_mu(points: Sequence[float], omega: np.ndarray) -> float:
    """Posterior-weighted mean of the unknown component,
    sum (1-omega_i) x_i / sum (1-omega_i)."""
    x = np.asarray(points, dtype=float)
    residual = 1.0 - np.asarray(omega, dtype=float)
    if x.shape != residual.shape:
        raise ValueError(f"shape mismatch: points {x.shape} vs omega {residual.shape}")
    total = float(np.sum(residual))
    if total <= 0.0:
        raise AllWeightsKnownError(
            "all posterior mass is on the known component; "
            "the unknown-component mean is undefined")
    # an elementwise product and numpy's sum: the same bits whichever BLAS
    # kernel the CPU selects, which np.dot's would not be
    return float((residual * x).sum() / total)


def classification_error(omega_hat: np.ndarray, labels: np.ndarray) -> float:
    """Mean squared gap between estimated and true membership,
    mean((omega_hat_i - w_i)^2) with w_i = 1 for points drawn from f0."""
    om = np.asarray(omega_hat, dtype=float)
    w = np.asarray(labels, dtype=float)
    if om.shape != w.shape:
        raise ValueError(f"shape mismatch: {om.shape} vs {w.shape}")
    if om.size == 0:
        raise ValueError("omega_hat and labels must be non-empty")
    return float(np.mean((om - w) ** 2))


def em_result_to_dict(result: EmResult) -> dict:
    return {
        "p_hat": result.p_hat,
        "iterations": result.iterations,
        "converged": result.converged,
        "degenerate": result.degenerate,
        "loglik_trace": [float(v) for v in result.loglik_trace],
        "omega": [float(v) for v in result.omega],
        "fit": fit_to_dict(result.fit),
        "identifiability": report_to_dict(result.identifiability),
    }
