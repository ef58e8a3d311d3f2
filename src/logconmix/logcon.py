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
and strictly concave and is solved by a damped Newton iteration. Steps are
truncated at the first knot whose concavity would flip, which activates that
constraint; at reduced stationarity the constraint multipliers (recovered in
closed form from the full gradient, see ``kernels.multipliers``) decide which
single constraint to release. The method stops when the reduced gradient and
all multipliers are within ``tol_kkt``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels as K
from ._readcsv import read_csv
from .errors import DegenerateSampleError

__all__ = [
    "WeightedSample", "FitOptions", "LogConcaveFit",
    "fit_weighted_logconcave", "objective", "eval_log_density", "cdf",
    "fit_to_dict", "fit_from_dict", "save_fit_json", "load_fit_json",
    "load_weighted_csv",
]

WEIGHT_FLOOR_SCALE = 1e-10  # per-point floor is WEIGHT_FLOOR_SCALE / m


@dataclass(frozen=True, eq=False)
class WeightedSample:
    """Strictly ascending points with positive weights summing to one.

    Build with :meth:`from_observations`, which sorts, merges tied points
    (adding their weights), lifts any weight below the floor 1e-10/m up to
    it (vanishing responsibilities would otherwise drop points from the
    fitted support entirely), and renormalizes.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
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

    @property
    def size(self) -> int:
        return self.points.size

    @classmethod
    def from_observations(cls, points, weights=None) -> "WeightedSample":
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
        pts = pts[order]
        wts = wts[order]
        # merge exact ties, summing their weights
        keep = np.concatenate(([True], np.diff(pts) > 0.0))
        if not keep.all():
            group = np.cumsum(keep) - 1
            merged_w = np.zeros(int(group[-1]) + 1)
            np.add.at(merged_w, group, wts)
            pts = pts[keep]
            wts = merged_w
        if pts.size < 2:
            raise DegenerateSampleError(
                f"need at least 2 distinct points, got {pts.size}")
        total = float(wts.sum())
        if total <= 0.0:
            raise ValueError("total weight must be positive")
        wts = wts / total
        floor = WEIGHT_FLOOR_SCALE / pts.size
        clipped = np.maximum(wts, floor)
        wts = clipped / clipped.sum()
        return cls(points=pts, weights=wts)


@dataclass(frozen=True)
class FitOptions:
    tol_kkt: float = 1e-8
    max_outer_iters: int = 200
    max_newton_iters: int = 50
    armijo_c: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.tol_kkt < 1.0):
            raise ValueError(f"tol_kkt must be in (0, 1), got {self.tol_kkt}")
        if self.max_outer_iters < 1 or self.max_newton_iters < 1:
            raise ValueError("iteration caps must be >= 1")
        if not (0.0 < self.armijo_c < 1.0):
            raise ValueError(f"armijo_c must be in (0, 1), got {self.armijo_c}")


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
        kn = np.asarray(self.knots, dtype=float)
        ph = np.asarray(self.phi, dtype=float)
        if kn.ndim != 1 or ph.ndim != 1 or kn.size != ph.size or kn.size < 2:
            raise ValueError("knots and phi must be 1-D arrays of equal length >= 2")
        if not np.all(np.diff(kn) > 0.0):
            raise ValueError("knots must be strictly ascending")
        if not np.all(np.isfinite(ph)):
            raise ValueError("phi values must be finite")
        object.__setattr__(self, "knots", kn)
        object.__setattr__(self, "phi", ph)

    @property
    def support(self):
        return float(self.knots[0]), float(self.knots[-1])


def _max_feasible_step(dt, phi_k, direction):
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


def _reduced_solve(x, w, kidx, phi_k, options, gtol):
    """Newton with Armijo backtracking on the current knot set.

    Truncated steps activate the blocking constraint (the knot drops out).
    Returns ``(kidx, phi_k, psi, grad_inf, stalled, W)``, with ``W`` the
    weights aggregated onto the returned knots.
    """
    t = x[kidx]
    dt = np.diff(t)
    W = K.aggregate_weights(x, w, kidx)
    psi, grad, hd, he = K.knot_grad_hess(dt, phi_k, W)
    stalled = False
    for _ in range(options.max_newton_iters):
        ginf = float(np.max(np.abs(grad)))
        if ginf <= gtol:
            break
        step = K.solve_newton_step(hd, he, grad)
        slope = float(np.dot(grad, step))
        if not math.isfinite(slope) or slope <= 0.0:
            step = grad.copy()               # ascent fallback; H was unusable
            slope = float(np.dot(grad, grad))
        alpha_bar, j_block = _max_feasible_step(dt, phi_k, step)
        if alpha_bar <= 1e-300:
            # immediately blocked: activate without moving
            kidx = np.delete(kidx, j_block)
            phi_k = np.delete(phi_k, j_block)
            t = x[kidx]
            dt = np.diff(t)
            W = K.aggregate_weights(x, w, kidx)
            psi, grad, hd, he = K.knot_grad_hess(dt, phi_k, W)
            continue
        alpha0 = min(1.0, alpha_bar)
        alpha = alpha0
        accepted = False
        while alpha > 1e-16:
            cand = phi_k + alpha * step
            if K.knot_objective(dt, cand, W) >= psi + options.armijo_c * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            stalled = True
            break
        phi_k = cand
        if alpha == alpha_bar:
            # boundary hit: interior knot j_block turns into an active constraint
            kidx = np.delete(kidx, j_block)
            phi_k = np.delete(phi_k, j_block)
            t = x[kidx]
            dt = np.diff(t)
            W = K.aggregate_weights(x, w, kidx)
        psi, grad, hd, he = K.knot_grad_hess(dt, phi_k, W)
    ginf = float(np.max(np.abs(grad)))
    return kidx, phi_k, psi, ginf, stalled, W


def _kkt_state(x, w, kidx, phi_k):
    """Full-grid gradient, multipliers at active interior points, and phi_all."""
    phi_all = K.interp_to_points(x, kidx, phi_k)
    grad_full = w - K.integral_grad_terms(x, phi_all)
    lam = K.multipliers(x, grad_full)
    active = np.ones(x.size, dtype=bool)
    active[kidx] = False
    act_idx = np.nonzero(active[1:-1])[0] + 1
    return phi_all, lam, act_idx


def fit_weighted_logconcave(sample: WeightedSample,
                            options: Optional[FitOptions] = None,
                            init: Optional[LogConcaveFit] = None) -> LogConcaveFit:
    """Weighted log-concave MLE on the span of the sample points.

    ``init`` warm-starts from an earlier fit on the same point grid (its
    knots must all be sample points, endpoints included); the default is the
    best log-linear density, i.e. the solution with every interior
    constraint active.
    """
    options = options or FitOptions()
    x = sample.points
    w = sample.weights
    m = x.size

    if init is not None:
        kidx = np.searchsorted(x, init.knots)
        if (np.any(kidx >= m) or not np.array_equal(x[kidx], init.knots)
                or kidx[0] != 0 or kidx[-1] != m - 1):
            raise ValueError("warm start knots must be sample points, endpoints included")
        phi_k = init.phi.copy()
    else:
        kidx = np.array([0, m - 1], dtype=np.intp)
        phi_k = np.full(2, -math.log(x[-1] - x[0]))

    kidx = np.asarray(kidx, dtype=np.intp)
    tol = options.tol_kkt
    converged = False
    psi = -math.inf
    kkt = math.inf
    psi_prev = -math.inf
    released_last = -1
    for _outer in range(options.max_outer_iters):
        kidx, phi_k, psi, ginf, stalled, W = _reduced_solve(x, w, kidx, phi_k, options, tol)
        # Exact normalization: shifting phi by -log(integral) preserves
        # concavity and never lowers psi. The KKT test below runs on the
        # normalized state; if the shift disturbed stationarity beyond tol
        # the next outer round re-tightens it (one or two Newton steps).
        dt = np.diff(x[kidx])
        integral = float(np.sum(K.segment_integrals(dt, phi_k[:-1], phi_k[1:])))
        if integral > 0.0 and math.isfinite(integral):
            phi_k = phi_k - math.log(integral)
        psi, grad, _, _ = K.knot_grad_hess(dt, phi_k, W)
        ginf = float(np.max(np.abs(grad)))
        phi_all, lam, act_idx = _kkt_state(x, w, kidx, phi_k)
        lam_min = float(lam[act_idx].min()) if act_idx.size else 0.0
        kkt = max(ginf, max(0.0, -lam_min))
        if ginf <= tol and lam_min >= -tol:
            converged = True
            break
        if ginf <= tol and lam_min < -tol:
            k_rel = int(act_idx[int(np.argmin(lam[act_idx]))])
            if k_rel == released_last and psi <= psi_prev + 1e-15 * (1.0 + abs(psi_prev)):
                break  # released, re-activated, no progress: numerically done
            pos = int(np.searchsorted(kidx, k_rel))
            kidx = np.insert(kidx, pos, k_rel)
            phi_k = np.insert(phi_k, pos, phi_all[k_rel])
            released_last = k_rel
            psi_prev = psi
            continue
        if stalled:
            break  # Armijo cannot improve further: machine-precision limit
        # otherwise the Newton cap was hit mid-solve; keep iterating

    return LogConcaveFit(knots=x[kidx], phi=phi_k, objective=psi,
                         kkt_residual=kkt, converged=converged)


def eval_log_density(fit: LogConcaveFit, x) -> np.ndarray:
    """phi(x): linear between knots, -inf outside the support."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.interp(xv, fit.knots, fit.phi)
    out = np.where((xv < fit.knots[0]) | (xv > fit.knots[-1]), -np.inf, out)
    if np.ndim(x) == 0:
        return out[0]
    return out


def cdf(fit: LogConcaveFit, x) -> np.ndarray:
    """Integral of exp(phi) from the left support edge to x (exact per segment)."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    t = fit.knots
    ph = fit.phi
    seg_mass = K.segment_integrals(np.diff(t), ph[:-1], ph[1:])
    cum = np.concatenate(([0.0], np.cumsum(seg_mass)))
    seg = np.clip(np.searchsorted(t, xv, side="right") - 1, 0, t.size - 2)
    xc = np.clip(xv, t[0], t[-1])
    phi_at = np.interp(xc, t, ph)
    partial = (xc - t[seg]) * K.j_values(ph[seg], phi_at)
    out = np.where(xv < t[0], 0.0, np.where(xv > t[-1], 1.0, cum[seg] + partial))
    out = np.clip(out, 0.0, 1.0)
    if np.ndim(x) == 0:
        return out[0]
    return out


def objective(sample: WeightedSample, knots, phi) -> float:
    """psi for a candidate concave-candidate phi given at ``knots``.

    ``knots`` must be sample points and include both sample endpoints.
    Concavity of the candidate is not required here (the value is defined
    either way); the fitting routine enforces it.
    """
    knots = np.asarray(knots, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if knots.ndim != 1 or phi.ndim != 1 or knots.size != phi.size or knots.size < 2:
        raise ValueError("knots and phi must be 1-D arrays of equal length >= 2")
    if not np.all(np.diff(knots) > 0.0):
        raise ValueError("knots must be strictly ascending")
    x = sample.points
    kidx = np.searchsorted(x, knots)
    if np.any(kidx >= x.size) or not np.array_equal(x[kidx], knots):
        raise ValueError("knots must be a subset of the sample points")
    if knots[0] != x[0] or knots[-1] != x[-1]:
        raise ValueError("knots must include both sample endpoints")
    if not np.all(np.isfinite(phi)):
        raise ValueError("phi values must be finite")
    lin = float(np.dot(K.aggregate_weights(x, sample.weights, np.asarray(kidx, dtype=np.intp)), phi))
    integral = float(np.sum(K.segment_integrals(np.diff(knots), phi[:-1], phi[1:])))
    return lin - integral + 1.0


def fit_to_dict(fit: LogConcaveFit) -> dict:
    return {
        "knots": [float(v) for v in fit.knots],
        "phi": [float(v) for v in fit.phi],
        "objective": float(fit.objective),
        "kkt_residual": float(fit.kkt_residual),
        "converged": bool(fit.converged),
    }


def fit_from_dict(doc: dict) -> LogConcaveFit:
    try:
        return LogConcaveFit(
            knots=np.asarray(doc["knots"], dtype=float),
            phi=np.asarray(doc["phi"], dtype=float),
            objective=float(doc["objective"]),
            kkt_residual=float(doc["kkt_residual"]),
            converged=bool(doc["converged"]),
        )
    except KeyError as exc:
        raise ValueError(f"fit document missing field {exc}") from None


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
    rows = read_csv(path, headers=(("x", "weight"),))
    next(rows)  # the header, which read_csv has checked
    x, w = np.array([row for _, row in rows]).T
    return WeightedSample.from_observations(x, w)
