"""Density families for the two mixture components.

The known component ``f0`` is one of five fully specified families: Normal,
Uniform, Exponential (rate parametrization), Student-t, or a Tabulated
density given as a grid of (x, log density) pairs with linear interpolation
of the log density between grid points.

The unknown component only needs to be sampled (for the simulation
benchmarks) and evaluated (for test oracles); the estimator itself never sees
these specs. Normal, shifted Exponential, Beta(1,5), shifted chi-square(3)
and shifted Student-t cover the benchmark models.

Each distribution is one frozen dataclass that holds its own formulas:
``log_pdf(x)`` on a float array (-inf outside the support), ``support`` as a
(lo, hi) interval that may be unbounded, and ``draw(n, rng)`` from a
Generator. Exponential and StudentT take a location ``shift`` (default 0),
so one class serves both as a known null and as a shifted unknown
component. ``log_pdf_known`` and ``sample_mixture`` are the module-level
entry points that em and simulate call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from ._readcsv import read_csv
from .errors import require_int
from .rng import RngSeed, make_rng

__all__ = [
    "Normal", "Uniform", "Exponential", "StudentT", "Tabulated",
    "Beta15", "ShiftedChiSq3",
    "KnownComponent", "UnknownComponent",
    "log_pdf_known", "sample_mixture", "load_tabulated_csv",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _on_support(inside: np.ndarray, log_f) -> np.ndarray:
    """-inf everywhere except on the ``inside`` mask, which gets ``log_f``."""
    out = np.full(inside.shape, -np.inf)
    out[inside] = log_f
    return out


@dataclass(frozen=True)
class Normal:
    mu: float = 0.0
    sigma: float = 1.0
    support = (-math.inf, math.inf)

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise ValueError(f"Normal requires finite mu and sigma > 0, got {self}")

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.mu) / self.sigma
        return -0.5 * z * z - math.log(self.sigma) - _LOG_SQRT_2PI

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size=n)


@dataclass(frozen=True)
class Uniform:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"Uniform requires finite a < b, got {self}")

    @property
    def support(self) -> Tuple[float, float]:
        return (self.a, self.b)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        inside = (x >= self.a) & (x <= self.b)
        return _on_support(inside, -math.log(self.b - self.a))

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=n)


@dataclass(frozen=True)
class Exponential:
    """Exponential with density rate * exp(-rate * (x - shift)) on [shift, inf)."""
    rate: float
    shift: float = 0.0

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate) and math.isfinite(self.shift)):
            raise ValueError(f"Exponential requires rate > 0 and finite shift, got {self}")

    @property
    def support(self) -> Tuple[float, float]:
        return (self.shift, math.inf)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        y = x - self.shift
        inside = y >= 0.0
        return _on_support(inside, math.log(self.rate) - self.rate * y[inside])

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.shift + rng.exponential(1.0 / self.rate, size=n)


@dataclass(frozen=True)
class StudentT:
    """Student-t with ``df`` degrees of freedom, centred at ``shift``."""
    df: float
    shift: float = 0.0
    support = (-math.inf, math.inf)

    def __post_init__(self):
        if not (self.df > 0.0 and math.isfinite(self.df) and math.isfinite(self.shift)):
            raise ValueError(f"StudentT requires df > 0 and finite shift, got {self}")

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        df = self.df
        y = x - self.shift
        const = (math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                 - 0.5 * math.log(df * math.pi))
        return const - 0.5 * (df + 1.0) * np.log1p(y * y / df)

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.shift + rng.standard_t(self.df, size=n)


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Piecewise-linear log-density on a strictly ascending grid.

    The density is exp of the interpolated log density inside
    [grid[0], grid[-1]] and zero outside. The trapezoid integral of the
    density over the grid must equal 1 within 1e-3; construction fails
    otherwise.
    """

    grid: np.ndarray
    log_density: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        logf = np.asarray(self.log_density, dtype=float)
        if grid.ndim != 1 or logf.ndim != 1 or grid.size != logf.size:
            raise ValueError("Tabulated requires 1-D grid and log_density of equal length")
        if grid.size < 2:
            raise ValueError("Tabulated requires at least 2 grid points")
        if not np.all(np.isfinite(grid)):
            raise ValueError("Tabulated grid values must be finite")
        if not np.all(np.diff(grid) > 0.0):
            raise ValueError("Tabulated grid must be strictly ascending")
        if not np.all(np.isfinite(logf)):
            raise ValueError("Tabulated log_density values must be finite")
        dens = np.exp(logf)
        # cumulative trapezoid masses, rescaled to end at exactly 1 for sampling
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))))
        total = float(cum[-1])
        if abs(total - 1.0) > 1e-3:
            raise ValueError(
                f"Tabulated density integrates to {total:.6g} by trapezoid rule; "
                f"must be 1 within 1e-3")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "log_density", logf)
        object.__setattr__(self, "_cdf_grid", cum / total)

    def cdf(self, x) -> np.ndarray:
        """Trapezoid-grid CDF with linear interpolation between grid points."""
        return np.interp(np.asarray(x, dtype=float), self.grid, self._cdf_grid,
                         left=0.0, right=1.0)

    @property
    def support(self) -> Tuple[float, float]:
        return (float(self.grid[0]), float(self.grid[-1]))

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        inside = (x >= self.grid[0]) & (x <= self.grid[-1])
        return _on_support(inside, np.interp(x[inside], self.grid, self.log_density))

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(size=n)
        cdf = self._cdf_grid
        idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(cdf) - 2)
        frac = (u - cdf[idx]) / (cdf[idx + 1] - cdf[idx])
        return self.grid[idx] + frac * (self.grid[idx + 1] - self.grid[idx])


@dataclass(frozen=True)
class Beta15:
    """Beta(1, 5): density 5 (1 - x)^4 on [0, 1]."""
    support = (0.0, 1.0)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        inside = (x >= 0.0) & (x < 1.0)
        return _on_support(inside, math.log(5.0) + 4.0 * np.log1p(-x[inside]))

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # inverse CDF of Beta(1, 5): F(x) = 1 - (1 - x)^5
        return 1.0 - (1.0 - rng.random(size=n)) ** 0.2


@dataclass(frozen=True)
class ShiftedChiSq3:
    shift: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.shift):
            raise ValueError(f"ShiftedChiSq3 requires finite shift, got {self}")

    @property
    def support(self) -> Tuple[float, float]:
        return (self.shift, math.inf)

    def log_pdf(self, x: np.ndarray) -> np.ndarray:
        y = x - self.shift
        inside = y > 0.0
        return _on_support(
            inside, 0.5 * np.log(y[inside]) - 0.5 * y[inside] - 0.5 * math.log(2.0 * math.pi))

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # chi-square(3) == Gamma(shape 3/2, scale 2)
        return self.shift + rng.gamma(1.5, 2.0, size=n)


KnownComponent = Union[Normal, Uniform, Exponential, StudentT, Tabulated]
UnknownComponent = Union[Normal, Exponential, Beta15, ShiftedChiSq3, StudentT]


def log_pdf_known(spec: KnownComponent, x) -> np.ndarray:
    """Log density of the known component; -inf outside its support."""
    return spec.log_pdf(np.asarray(x, dtype=float))


def sample_mixture(f0: KnownComponent, f: UnknownComponent, p: float, n: int,
                   seed: RngSeed) -> Tuple[np.ndarray, np.ndarray]:
    """Draw n observations from (1-p) f0 + p f.

    Returns ``(values, labels)`` with ``labels[i] = 1`` when observation i
    came from the known component f0. The draw order is fixed (labels, then
    one block from each component), so results depend only on the seed.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"mixing proportion must lie in [0, 1], got {p}")
    n = require_int("n", n)
    if n < 1:
        raise ValueError(f"need n >= 1 draws, got {n}")
    rng = make_rng(seed)
    labels = (rng.random(size=n) < (1.0 - p)).astype(np.int64)
    from_known = f0.draw(n, rng)
    from_unknown = f.draw(n, rng)
    values = np.where(labels == 1, from_known, from_unknown)
    return values, labels


def load_tabulated_csv(path) -> Tabulated:
    """Read a tabulated density from CSV with header ``x,log_density``."""
    _, _, values = read_csv(path, headers=(("x", "log_density"),))
    grid, log_density = values.T.copy()
    if grid.size < 2:
        raise ValueError(f"{path}: need at least 2 grid rows, got {grid.size}")
    return Tabulated(grid, log_density)
