"""Weighted maximum-likelihood log-concave density estimation.

Estimates a density f = exp(phi) with concave, piecewise-linear phi from a
weighted sample, by maximizing

    psi(phi) = sum_i w_i phi(x_i) - integral exp(phi) + 1

over concave phi supported on [x_1, x_m]. The maximizer of the unconstrained
form is automatically normalized, at which point psi equals the weighted log
likelihood.

Solved as an active-set Newton method in the full coordinate vector
(phi(x_1), ..., phi(x_m)) under the concavity constraints

    c_i = slope(x_{i-1}, x_i) - slope(x_i, x_{i+1}) >= 0,  i interior.

Active constraints (c_i = 0) make x_i a non-knot whose value is linear
interpolation between knots; the reduced problem over knot values is smooth
and strictly concave. ``fit_weighted_logconcave`` is one loop of at most
``_MAX_OUTER_ITERS`` rounds, and a round, on the current knot set:
- aggregates the weights onto the knots and takes up to
  ``_MAX_NEWTON_ITERS`` Newton steps with Armijo backtracking, in one
  ``newton_solve`` kernel call per knot set. A step is truncated at the
  first knot whose concavity would flip, which activates that constraint:
  the kernel returns that knot, which drops out, and the shorter set runs
  on in the next call with what is left of the round's steps. A line
  search that cannot improve, or a step it accepts without a gain in psi
  (short of a boundary hit), marks the round stalled, and that step is not
  taken;
- normalizes the iterate, evaluates it once more with ``knot_grad_hess``
  and computes the multipliers;
- then stops if the reduced gradient and all multipliers are within
  ``_TOL_KKT``, an absolute 1e-8. At reduced stationarity with a violated
  multiplier, and another round to come, it releases the single most
  violated constraint, unless that re-releases the previous round's
  constraint with no gain in psi, which stops the fit. Otherwise a stalled
  round stops the fit, and a round that reached the Newton cap is followed
  by another.
The kernels evaluate every point with one formula of psi, so the Armijo
value, the fit's ``objective`` (psi of the round's ``knot_grad_hess``
call) and what :func:`objective` returns are one formula with one
rounding; the segment masses give the normalizing integral and the F
below.

The multiplier of the constraint at a point x is the derivative of psi along
the hinge direction (x - t)_+ (Duembgen, Huesler & Rufibach 2007),

    lambda(x) = sum_{x_i < x} w_i (x - x_i) - integral_{x_1}^{x} (x - t) e^phi(t) dt.

On the knot segment [t_j, t_{j+1}] that holds x, with d = x - t_j, slope s_j
and z = s_j d, the integral is Q_j + d F_j + (e^phi(x) - e^phi_j (1 + z)) / s_j^2,
where F_j and Q_j are the integrals of e^phi and (t_j - t) e^phi up to t_j:
running sums over the knot segments, F of the masses that the last
``knot_grad_hess`` call returned and Q of dt_j F_j plus the segment's own
hinge integral, formed in one pass over the knots on Python floats. The
first sum depends on the weights alone, so a fit forms it once for all its
rounds (``_hinge_prefix``). Each point reads F_j, Q_j, 1/s_j^2 and e^phi_j
in one gather from one table, lambda is formed in place with +inf at the
knots, and the check keeps only lambda's least entry and its point, the
constraint a release would free. So a multiplier check calls no kernel and
costs one exp per point (a series replaces the closed form for small |z|),
and that e^phi at the points is also what an EM E-step needs.

Per-point work runs on the sample's ``_Grid``, which holds the sorted
observations and one solver state: the latest fit, its e^phi at the points
and its knot set. The segment of each point comes from the knot indices by
``np.repeat``, and a fit rebuilds its knot set only where a drop or a
release changes it. A warm start from the latest fit, as each EM M-step
makes, starts on that fit's knot set; any other start maps its knots to
points with ``_Grid.knot_set``. ``_Grid.f_values`` hands over the latest
fit's e^phi and reads any other fit with :func:`eval_log_density`, to the
same bits. A fit the solver builds is checked only where it can fail: that
phi is finite.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import kernels as K
from ._kernels_py import _TOL_GRAD, _series, segment_integrals
from ._readcsv import read_csv
from .errors import DegenerateSampleError

__all__ = [
    "WeightedSample", "LogConcaveFit",
    "fit_weighted_logconcave", "objective", "eval_log_density", "cdf",
    "fit_to_dict", "fit_from_dict", "save_fit_json", "load_fit_json",
    "load_weighted_csv",
]

WEIGHT_FLOOR_SCALE = 1e-10  # the end points' floor is WEIGHT_FLOOR_SCALE / m
# _hinge_tail's series in z replaces its closed form for |z| below this
_TAIL_SERIES_RADIUS = 0.1
# its coefficients 1/(k+2)! for k = 0..7, lowest power first, as
# ``_series`` takes them; the first term left out is below 3e-15 relative
# inside the radius
_TAIL_COEF = [1.0 / math.factorial(k + 2) for k in range(8)]
# the active-set solver's caps on outer rounds and on Newton steps per
# round, and the bound on the reduced gradient and on each multiplier's
# violation at which it stops
_MAX_OUTER_ITERS = 200
_MAX_NEWTON_ITERS = 50
_TOL_KKT = _TOL_GRAD  # the kernel's gradient test and the KKT test agree


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """Strictly ascending points with positive weights summing to one, and
    the grid that fits of them run on.

    Build with :meth:`from_observations`, which checks the observations
    and their weights, sorts them and hands them to a grid; its ``sample``
    merges tied points (adding their weights), normalizes, lifts the two
    end weights to the floor 1e-10/m when below it (a zero end weight would
    send phi there to -inf) and renormalizes. Interior weights keep their
    values, zeros included. A sample built directly is checked, with every
    weight strictly positive, and gets a grid of its own.
    """

    points: np.ndarray
    weights: np.ndarray
    _grid: Optional["_Grid"] = field(default=None, repr=False)

    def __post_init__(self):
        if self._grid is not None:
            return  # from _Grid.sample, which holds the invariants
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or wts.ndim != 1 or pts.size != wts.size:
            raise ValueError("points and weights must be 1-D arrays of equal length")
        if pts.size < 2:
            raise DegenerateSampleError(
                f"need at least 2 distinct points, got {pts.size}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("points must be strictly ascending (merge ties first)")
        if not np.all(wts > 0.0):
            raise ValueError("all weights must be strictly positive")
        if abs(float(wts.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {wts.sum()!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "_grid", _Grid(pts))

    @property
    def size(self) -> int:
        return self.points.size

    @classmethod
    def from_observations(cls, points, weights=None) -> "WeightedSample":
        """The sample of ``points`` with ``weights`` (default: equal). This
        is the one entry point for weights from outside the solver, so their
        checks are made here: finite points, at least 2 distinct
        (:class:`DegenerateSampleError`), one finite non-negative weight per
        point and a positive total. Weights whose sum reaches 2^1023 are
        first scaled by the power of two that brings the largest below 1,
        so that the tie merge, summing in another order, cannot overflow.
        The scaling is exact for every weight above 2^-1021 of the total, so
        the sample is the one that the same weights at a smaller scale give.
        """
        pts = np.asarray(points, dtype=float).ravel()
        if pts.size == 0:
            raise DegenerateSampleError("empty sample")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if weights is None:
            wts = np.full(pts.size, 1.0 / pts.size)
        else:
            wts = np.asarray(weights, dtype=float).ravel()
            if wts.size != pts.size:
                raise ValueError("points and weights must have equal length")
            if not np.all(np.isfinite(wts)) or np.any(wts < 0.0):
                raise ValueError("weights must be finite and non-negative")
        order = np.argsort(pts, kind="stable")
        grid = _Grid(pts[order])
        if grid.points.size < 2:
            raise DegenerateSampleError(
                f"need at least 2 distinct points, got {grid.points.size}")
        with np.errstate(over="ignore"):
            total = float(wts.sum())
        if not total < 2.0 ** 1023:  # else no merge order of the ties overflows
            wts = np.ldexp(wts, -np.frexp(np.max(wts))[1])
        if total <= 0.0:
            raise ValueError("total weight must be positive")
        return grid.sample(wts[order])


@dataclass(frozen=True, eq=False)
class LogConcaveFit:
    """Fitted log-density: phi piecewise linear between ``knots``.

    ``objective`` is psi at the fit (the weighted log-likelihood, since the
    fit is normalized); ``kkt_residual`` is max(reduced gradient sup-norm,
    worst multiplier violation). ``converged`` is False when iteration caps
    were hit first; the fit is then the best iterate found.
    """

    knots: np.ndarray
    phi: np.ndarray
    objective: float
    kkt_residual: float
    converged: bool

    def __post_init__(self):
        kn, ph = _knots_phi(self.knots, self.phi)
        object.__setattr__(self, "knots", kn)
        object.__setattr__(self, "phi", ph)

    @property
    def support(self):
        return float(self.knots[0]), float(self.knots[-1])


def _knots_phi(knots, phi):
    """``knots`` and ``phi`` as float arrays, checked as a fit holds them."""
    kn = np.asarray(knots, dtype=float)
    ph = np.asarray(phi, dtype=float)
    if kn.ndim != 1 or ph.ndim != 1 or kn.size != ph.size or kn.size < 2:
        raise ValueError("knots and phi must be 1-D arrays of equal length >= 2")
    if not np.isfinite(kn).all():
        raise ValueError("knots must be finite")
    if not (kn[1:] > kn[:-1]).all():
        raise ValueError("knots must be strictly ascending")
    if not np.isfinite(ph).all():
        raise ValueError("phi values must be finite")
    return kn, ph


class _KnotSet:
    """Per-point data of one knot set on a grid of points x: each point's
    segment ``seg``, its offset ``d`` from the segment's left knot and its
    share ``frac`` of the right knot."""

    def __init__(self, x, kidx):
        self.kidx = kidx
        t = x[kidx]
        self.dt = t[1:] - t[:-1]
        # Knots are points, so segment j holds the points from knot j up to
        # knot j+1 without a search; the last point closes the last segment.
        counts = kidx[1:] - kidx[:-1]
        counts[-1] += 1
        seg = np.repeat(np.arange(kidx.size - 1), counts)
        self.d = x - t[seg]
        frac = self.d / self.dt[seg]
        self._pairs = np.concatenate((seg, seg + 1))
        self._shares = np.concatenate((1.0 - frac, frac))
        self.seg = self._pairs[:x.size]
        self.frac = self._shares[x.size:]

    def aggregate(self, w):
        """Point weights collapsed onto the knots by interpolation shares.
        One bincount sums in ``np.add.at``'s order, so this equals
        ``kernels.aggregate_weights`` bit for bit."""
        shared = np.concatenate((w, w))
        shared *= self._shares
        return np.bincount(self._pairs, weights=shared, minlength=self.kidx.size)

    def phi_at(self, phi_k):
        """phi at every point, with the slope s of each segment and
        z = s[seg] * d; np.interp's arithmetic, so phi equals
        ``eval_log_density`` bit for bit."""
        s = (phi_k[1:] - phi_k[:-1]) / self.dt
        z = s[self.seg] * self.d
        phi = z + phi_k[self.seg]
        phi[-1] = phi_k[-1]
        return phi, s, z

    def lerp(self, phi_k, k):
        """phi at point k, bit for bit what ``kernels.interp_to_points``
        gives there (``tests/test_workspace.py`` pins it): the value a
        released knot starts at."""
        j = self.seg[k]
        return phi_k[j] + self.frac[k] * (phi_k[j + 1] - phi_k[j])


class _Grid:
    """Sorted observations that several fits share: their distinct values
    ``points``, on which every fit runs, each observation's tie group
    ``group`` (None when there are no ties), the spacings, and the solver's
    state: the latest fit with its e^phi at the points and its knot set."""

    def __init__(self, observations):
        keep = np.concatenate(([True], np.diff(observations) > 0.0))
        self.group = None if keep.all() else np.cumsum(keep) - 1
        self.points = observations if self.group is None else observations[keep]
        self.dx = self.points[1:] - self.points[:-1]
        self._latest = (None, None, None)

    def sample(self, weights) -> WeightedSample:
        """The weighted sample of the points, one weight per observation:
        one bincount merges the ties, summing in ``np.add.at``'s order, and
        the merged weights are normalized. Only the two end weights are
        lifted to the floor WEIGHT_FLOOR_SCALE / m, and the weights are
        normalized again: a zero weight at x_1 or x_m would send the
        optimal phi there to -inf, while concavity bounds phi at an
        interior point. Interior weights, zeros included, stay as given,
        so an EM M-step maximizes the EM surrogate itself. Nothing is
        checked here: outside weights are checked where they arrive, in
        :meth:`WeightedSample.from_observations`, and an M-step's, in
        [0, 1], by ``em.m_step_f``'s collapse test, on a grid of at least
        4 points, which ``em.run_em`` checks."""
        m = self.points.size
        w = weights if self.group is None else np.bincount(self.group, weights=weights)
        w = w / w.sum()
        floor = WEIGHT_FLOOR_SCALE / m
        if w[0] < floor:
            w[0] = floor
        if w[-1] < floor:
            w[-1] = floor
        w /= w.sum()
        return WeightedSample(self.points, w, self)

    def knot_set(self, knots) -> _KnotSet:
        """The knot set of the ascending ``knots``, which must be points,
        both end points included."""
        x = self.points
        kidx = x.searchsorted(knots)
        if (kidx[0] != 0 or kidx[-1] != x.size - 1
                or np.count_nonzero(x[kidx] != knots)):
            raise ValueError("knots must be sample points, both end points included")
        return _KnotSet(x, kidx)

    def f_values(self, fit) -> np.ndarray:
        """f = e^phi of ``fit`` at every observation, 0 outside its support:
        the values the latest fit's multiplier check left here, or for any
        other fit ``eval_log_density``'s, the same bits, state untouched."""
        known, values, _ = self._latest
        if known is not fit:
            values = np.exp(eval_log_density(fit, self.points))
        return values if self.group is None else values[self.group]


def _hinge_tail(e_left, inv_s2, d, z, e_right, out=None):
    """integral_0^d (d - u) e^(phi_j + s u) du, elementwise, from
    e_left = e^phi_j, inv_s2 = 1/s^2, z = s d and e_right = e^(phi_j + z):
    (e_right - e_left (1 + z)) / s^2, or e_left d^2 sum_k z^k / (k+2)! for
    |z| below the series radius, where the closed form cancels. Written
    into ``out`` when given, an array no argument shares."""
    out = np.add(1.0, z, out=out)
    out *= e_left
    np.subtract(e_right, out, out=out)
    out *= inv_s2
    near = np.abs(z) < _TAIL_SERIES_RADIUS
    if np.count_nonzero(near):
        dn = d[near]
        out[near] = e_left[near] * (dn * dn) * _series(_TAIL_COEF, z[near])
    return out


def _knot_integrals(dt, mass, e_k, s):
    """The table of what the multipliers read per knot segment j: rows F_j
    and Q_j, the integrals of e^phi and of (t_j - t) e^phi from the first
    knot up to t_j, 1/s_j^2 (0 where s_j^2 is 0) and e^phi_j, from lists
    of the spacings, the segment masses, e^phi at the knots and the slopes.
    The recurrences are serial, so they run on Python floats: F and Q are
    cumulative sums, and segment j adds dt_j F_j plus its hinge tail at z =
    s_j dt_j, in ``_hinge_tail``'s operations and order (see
    ``_kernels_py`` on floats against numpy)."""
    F = [0.0, *itertools.accumulate(mass)]
    inv_s2 = []
    terms = []
    for d, f, e_left, e_right, sj in zip(dt, F, e_k, e_k[1:], s):
        s2 = sj * sj
        inv = 1.0 / s2 if s2 > 0.0 else 0.0
        z = sj * d
        if abs(z) < _TAIL_SERIES_RADIUS:
            tail = e_left * (d * d) * _series(_TAIL_COEF, z)
        else:
            tail = (e_right - (1.0 + z) * e_left) * inv
        inv_s2.append(inv)
        terms.append(d * f + tail)
    Q = [0.0, *itertools.accumulate(terms)]
    return np.array((F[:-1], Q[:-1], inv_s2, e_k[:-1]))


def _hinge_prefix(w, dx):
    """sum over x_i < x of w_i (x - x_i) at every point x of the grid with
    spacings ``dx``, accumulated gap by gap: the weights' part of every
    multiplier, which depends on no knot set, so a fit forms it once."""
    out = np.empty(w.size)
    out[0] = 0.0
    below = w[:-1].cumsum()
    below *= dx
    below.cumsum(out=out[1:])
    return out


def _kkt_state(ks, prefix, phi_k, mass):
    """e^phi at every point, and the least multiplier with its point, in
    the closed form of the module docstring: lambda is ``prefix`` (from
    ``_hinge_prefix``) less the integral, formed in place, with +inf at the
    knots, so its least entry is the least at an active point (+inf when
    every point is a knot). ``mass`` holds the segment masses of
    ``phi_k``, as ``knot_grad_hess`` returns them."""
    phi, s, z = ks.phi_at(phi_k)
    exp_phi = np.exp(phi, out=phi)
    e_k = np.exp(phi_k)
    table = _knot_integrals(ks.dt.tolist(), mass.tolist(), e_k.tolist(), s.tolist())
    lam, Q, inv_s2, e_left = table.take(ks.seg, axis=1)
    lam *= ks.d
    lam += Q
    # the tail takes Q's row, which is spent: one n-array fewer at the peak
    lam += _hinge_tail(e_left, inv_s2, ks.d, z, exp_phi, out=Q)
    np.subtract(prefix, lam, out=lam)
    lam[ks.kidx] = math.inf
    k = int(lam.argmin())
    return exp_phi, float(lam[k]), k


def _solver_fit(knots, phi, psi, kkt, converged) -> LogConcaveFit:
    """The fit that the solver ends on. Its knots are grid points at
    ascending indices, so finite and ascending; only phi, which can
    overflow, is checked, with ``LogConcaveFit``'s message."""
    if not np.isfinite(phi).all():
        raise ValueError("phi values must be finite")
    fit = object.__new__(LogConcaveFit)
    fit.__dict__.update(knots=knots, phi=phi, objective=psi, kkt_residual=kkt,
                        converged=converged)
    return fit


def fit_weighted_logconcave(sample: WeightedSample,
                            init: Optional[LogConcaveFit] = None) -> LogConcaveFit:
    """Weighted log-concave MLE on the span of the sample points.

    ``init`` warm-starts from an earlier fit on the same point grid (its
    knots must be sample points, both end points included); the default is the
    best log-linear density, i.e. the solution with every interior
    constraint active. Each round's Newton solve is one ``newton_solve``
    call per knot set it visits, and one ``knot_grad_hess`` call
    evaluates the normalized iterate (see the module docstring). A warm
    start from the grid's latest fit starts on that fit's knot set; any
    other ``init`` is looked up with ``_Grid.knot_set``. The grid's state
    is cleared on entry and holds this fit, its e^phi and its knot set on
    return.
    """
    grid = sample._grid
    x = grid.points
    w = sample.weights

    latest, _, ks = grid._latest
    grid._latest = (None, None, None)  # a fit that raises leaves none
    if init is None:
        ks = None  # freed before its successor is built
        ks = _KnotSet(x, np.array([0, x.size - 1], dtype=np.intp))
        phi_k = np.full(2, -math.log(x[-1] - x[0]))
    else:
        if init is not latest:
            ks = None
            ks = grid.knot_set(init.knots)
        phi_k = init.phi.copy()
    prefix = _hinge_prefix(w, grid.dx)

    converged = False
    psi_prev = -math.inf
    released_last = -1
    for _round in range(_MAX_OUTER_ITERS):
        W = ks.aggregate(w)
        # Newton with Armijo backtracking on this knot set, in one kernel
        # call per knot set: a boundary hit returns the knot whose
        # constraint turns active, which drops out, and the shorter set
        # runs on with what is left of the round's steps
        budget = _MAX_NEWTON_ITERS
        while True:
            phi_k, mass, stalled, j_block, steps, _ = K.newton_solve(ks.dt, phi_k, W, budget)
            if j_block is None:
                break
            budget -= steps
            kidx = ks.kidx
            kidx = np.concatenate((kidx[:j_block], kidx[j_block + 1:]))
            phi_k = np.concatenate((phi_k[:j_block], phi_k[j_block + 1:]))
            ks = None  # freed before its successor is built
            ks = _KnotSet(x, kidx)
            W = ks.aggregate(w)
        # Exact normalization: shifting phi by -log(integral) preserves
        # concavity and never lowers psi. The KKT test below runs on the
        # normalized state; if the shift disturbed stationarity beyond the
        # tolerance, the next round re-tightens it (one or two Newton steps).
        integral = float(mass.sum())
        if integral > 0.0 and math.isfinite(integral):
            phi_k = phi_k - math.log(integral)
        psi, grad, _, _, mass = K.knot_grad_hess(ks.dt, phi_k, W)
        ginf = float(np.abs(grad).max())
        exp_phi, lam_min, k_rel = _kkt_state(ks, prefix, phi_k, mass)
        kkt = max(ginf, max(0.0, -lam_min))
        if ginf <= _TOL_KKT and lam_min >= -_TOL_KKT:
            converged = True
            break
        # a release only when another round follows, so that a capped fit
        # returns the knot set that psi and kkt describe
        if ginf <= _TOL_KKT and lam_min < -_TOL_KKT and _round + 1 < _MAX_OUTER_ITERS:
            if k_rel == released_last and psi <= psi_prev + 1e-15 * (1.0 + abs(psi_prev)):
                break  # released, re-activated, no progress: numerically done
            kidx = ks.kidx
            pos = int(kidx.searchsorted(k_rel))
            phi_new = ks.lerp(phi_k, k_rel)
            kidx = np.concatenate((kidx[:pos], [k_rel], kidx[pos:]))
            phi_k = np.concatenate((phi_k[:pos], [phi_new], phi_k[pos:]))
            # free this knot set's per-point arrays before the next one
            exp_phi = ks = None
            ks = _KnotSet(x, kidx)
            released_last = k_rel
            psi_prev = psi
            continue
        if stalled:
            break
        # otherwise the Newton cap was hit mid-solve; keep iterating

    fit = _solver_fit(x[ks.kidx], phi_k, psi, kkt, converged)
    grid._latest = (fit, exp_phi, ks)
    return fit


def _points(x) -> np.ndarray:
    """``x`` as a float array of at least one dimension; NaN raises."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    nan = np.flatnonzero(np.isnan(xv))
    if nan.size:
        raise ValueError(f"x is NaN at index {nan[0]}")
    return xv


def eval_log_density(fit: LogConcaveFit, x) -> np.ndarray:
    """phi(x): linear between knots, -inf outside the support; NaN raises."""
    xv = _points(x)
    out = np.interp(xv, fit.knots, fit.phi)
    out = np.where((xv < fit.knots[0]) | (xv > fit.knots[-1]), -np.inf, out)
    if np.ndim(x) == 0:
        return out[0]
    return out


def cdf(fit: LogConcaveFit, x) -> np.ndarray:
    """Integral of exp(phi) from the left support edge to x (exact per
    segment, and the same bits on either kernel backend); NaN raises."""
    xv = _points(x)
    t = fit.knots
    ph = fit.phi
    seg_mass = segment_integrals(np.diff(t), ph[:-1], ph[1:])
    cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
    seg = np.clip(np.searchsorted(t, xv, side="right") - 1, 0, t.size - 2)
    xc = np.clip(xv, t[0], t[-1])
    phi_at = np.interp(xc, t, ph)
    partial = segment_integrals(xc - t[seg], ph[seg], phi_at)
    out = np.where(xv < t[0], 0.0, np.where(xv > t[-1], 1.0, cum[seg] + partial))
    out = np.clip(out, 0.0, 1.0)
    if np.ndim(x) == 0:
        return out[0]
    return out


def objective(sample: WeightedSample, knots, phi) -> float:
    """psi for a candidate phi given at ``knots``, as ``knot_grad_hess``
    forms it, so a fit's ``objective`` is what this returns for it.

    ``knots`` and ``phi`` are checked as a fit's, and every knot must be a
    sample point, both end points included; concavity is not required (the
    value is defined either way), the fitting routine enforces it.
    """
    knots, phi = _knots_phi(knots, phi)
    ks = sample._grid.knot_set(knots)
    return K.knot_grad_hess(ks.dt, phi, ks.aggregate(sample.weights))[0]


def fit_to_dict(fit: LogConcaveFit) -> dict:
    return {
        "knots": [float(v) for v in fit.knots],
        "phi": [float(v) for v in fit.phi],
        "objective": float(fit.objective),
        "kkt_residual": float(fit.kkt_residual),
        "converged": bool(fit.converged),
    }


def _doc_field(doc: dict, name: str, kinds: str, want: str, scalar: bool = True):
    """Field ``name`` of a fit document as an array whose dtype kind is one
    of ``kinds``, 0-d if ``scalar``; a ValueError naming the field
    otherwise, so that a string or a boolean is rejected, not converted."""
    try:
        value = np.asarray(doc[name])
    except KeyError:
        raise ValueError(f"fit document missing field {name!r}") from None
    if value.dtype.kind not in kinds or (scalar and value.ndim):
        raise ValueError(f"fit document field {name!r} must be {want}, got {doc[name]!r}")
    return value


def fit_from_dict(doc: dict) -> LogConcaveFit:
    """The fit that ``fit_to_dict`` wrote as ``doc``."""
    if not isinstance(doc, dict):
        raise ValueError(f"a fit document must be a JSON object, got {type(doc).__name__}")
    knots, phi = (_doc_field(doc, k, "iuf", "numbers", scalar=False)
                  for k in ("knots", "phi"))
    objective, kkt = (float(_doc_field(doc, k, "iuf", "a number"))
                      for k in ("objective", "kkt_residual"))
    if math.isnan(objective):
        raise ValueError("fit document field 'objective' must not be NaN")
    if not kkt >= 0.0:  # a max of absolute values: >= 0, possibly inf
        raise ValueError(f"fit document field 'kkt_residual' must be >= 0, got {kkt}")
    return LogConcaveFit(
        knots=knots.astype(float),
        phi=phi.astype(float),
        objective=objective,
        kkt_residual=kkt,
        converged=bool(_doc_field(doc, "converged", "b", "true or false")),
    )


def save_fit_json(fit: LogConcaveFit, path) -> None:
    """Write ``fit`` as indented JSON, UTF-8 with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(fit_to_dict(fit), fh, indent=2)
        fh.write("\n")


def load_fit_json(path) -> LogConcaveFit:
    with open(path) as fh:
        return fit_from_dict(json.load(fh))


def load_weighted_csv(path) -> WeightedSample:
    """Read a weighted sample from CSV with header ``x,weight``."""
    _, _, values = read_csv(path, headers=(("x", "weight"),))
    x, w = values.T
    return WeightedSample.from_observations(x, w)
