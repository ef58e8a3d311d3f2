"""Monte-Carlo study harness for the mixture estimator.

Six benchmark mixture models cover light and heavy known-component tails,
bounded and unbounded supports, and varying separation between components.
``run_scenario`` repeats sample -> fit -> summarise over independent
replications (optionally across worker processes) and aggregates bias, mean
squared error, classification error and the failure count.

Replication r of a scenario with seed s always draws from the child stream
(s, r), so results are reproducible run-to-run and independent of the
worker count.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from io import StringIO
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .em import EmConfig, classification_error, estimate_mu, run_em
from .errors import AllReplicationsFailedError, LogconmixError, require_int
from .families import (Beta15, Exponential, KnownComponent, Normal,
                       ShiftedChiSq3, StudentT, Uniform, UnknownComponent,
                       sample_mixture)
from .rng import child_seed

__all__ = [
    "MixtureModelSpec", "ScenarioSpec", "ScenarioSummary",
    "model_catalog", "run_scenario", "summary_table",
]


@dataclass(frozen=True)
class MixtureModelSpec:
    known: KnownComponent
    unknown: UnknownComponent
    true_mu: float


def model_catalog() -> Dict[int, MixtureModelSpec]:
    """The six benchmark models, keyed 1-6.

    ``true_mu`` is the mean of the unknown component.
    """
    return {
        1: MixtureModelSpec(Normal(0.0, 2.0), Normal(3.0, 1.0), 3.0),
        2: MixtureModelSpec(Uniform(0.0, 1.0), Beta15(), 1.0 / 6.0),
        3: MixtureModelSpec(Exponential(1.0), Exponential(1.0, 2.0), 3.0),
        4: MixtureModelSpec(Normal(0.0, 1.0), ShiftedChiSq3(2.0), 5.0),
        5: MixtureModelSpec(Normal(0.0, 1.0), Exponential(0.5, 3.0), 5.0),
        6: MixtureModelSpec(Normal(0.0, 1.0), StudentT(5.0, 3.0), 3.0),
    }


@dataclass(frozen=True)
class ScenarioSpec:
    model_id: int
    p: float
    n: int
    reps: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("model_id", "n", "reps", "seed"):  # stored as Python ints
            object.__setattr__(self, name, require_int(name, getattr(self, name)))
        if self.model_id not in model_catalog():
            raise ValueError(f"unknown model id {self.model_id}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if self.n < 4:
            raise ValueError("n must be >= 4")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ScenarioSummary:
    model_id: int
    p: float
    n: int
    reps: int
    bias_p: float
    mse_p: float
    bias_mu: float
    mse_mu: float
    mean_cla_error: float
    failures: int


def _run_replication(spec: ScenarioSpec, config: EmConfig,
                     rep: int) -> Tuple[int, float, float, float]:
    """Replication ``rep`` of the frozen scenario ``spec`` under ``config``:
    returns (ok, p_hat, mu_hat, cla_error). ``run_scenario`` binds the
    scenario and the configuration with ``functools.partial``, which
    pickles this function by reference for the worker processes.

    A replication fails (ok = 0) when estimation raises one of the errors
    that the CLI reports as bad input or a failed fit (a package error, a
    ValueError or a FloatingPointError), does not converge, or exits
    through a degenerate boundary; failed replications carry NaNs. Any
    other exception is a bug and propagates.
    """
    model = model_catalog()[spec.model_id]
    values, labels = sample_mixture(model.known, model.unknown, spec.p, spec.n,
                                    child_seed(spec.seed, rep))
    try:
        result = run_em(values, model.known, config)
        if result.converged and result.degenerate is None:
            return (1, result.p_hat, estimate_mu(values, result.omega),
                    classification_error(result.omega, labels))
    except (LogconmixError, ValueError, FloatingPointError):
        pass
    return (0, float("nan"), float("nan"), float("nan"))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def run_scenario(spec: ScenarioSpec, workers: int = 1,
                 config: Optional[EmConfig] = None) -> ScenarioSummary:
    """Run all replications of one scenario and aggregate the estimates.

    ``workers > 1`` fans replications out to worker processes, at most one
    per replication and per CPU this process may use; results are identical
    to the serial run because each replication depends only on (scenario
    seed, replication index). Raises
    :class:`AllReplicationsFailedError` when no replication succeeds.
    """
    workers = require_int("workers", workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    replicate = functools.partial(
        _run_replication, spec, config if config is not None else EmConfig())
    workers = min(workers, spec.reps, _usable_cpus())
    if workers == 1:
        rows = [replicate(rep) for rep in range(spec.reps)]
    else:
        # imported here, so that importing the package loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(replicate, range(spec.reps)))

    ok = np.array([r[0] for r in rows], dtype=bool)
    failures = int(np.sum(~ok))
    if not np.any(ok):
        raise AllReplicationsFailedError(
            f"all {spec.reps} replications failed for model "
            f"{spec.model_id}, p={spec.p}, n={spec.n}")
    p_hat = np.array([r[1] for r in rows], dtype=float)[ok]
    mu_hat = np.array([r[2] for r in rows], dtype=float)[ok]
    cla = np.array([r[3] for r in rows], dtype=float)[ok]
    true_mu = model_catalog()[spec.model_id].true_mu
    return ScenarioSummary(
        model_id=spec.model_id, p=spec.p, n=spec.n, reps=spec.reps,
        bias_p=float(np.mean(p_hat) - spec.p),
        mse_p=float(np.mean((p_hat - spec.p) ** 2)),
        bias_mu=float(np.mean(mu_hat) - true_mu),
        mse_mu=float(np.mean((mu_hat - true_mu) ** 2)),
        mean_cla_error=float(np.mean(cla)),
        failures=failures,
    )


_CSV_COLUMNS = ("model", "p", "n", "reps", "bias_p", "mse_p", "bias_mu",
                "mse_mu", "mean_cla_error", "failures")


def summary_table(summaries: Sequence[ScenarioSummary]) -> str:
    """Render summaries as CSV text. Floats use ``repr`` so they round-trip
    exactly; rows appear in input order."""
    out = StringIO()
    out.write(",".join(_CSV_COLUMNS) + "\n")
    for s in summaries:
        row = (str(s.model_id), repr(float(s.p)), str(s.n), str(s.reps),
               repr(float(s.bias_p)), repr(float(s.mse_p)),
               repr(float(s.bias_mu)), repr(float(s.mse_mu)),
               repr(float(s.mean_cla_error)), str(s.failures))
        out.write(",".join(row) + "\n")
    return out.getvalue()
