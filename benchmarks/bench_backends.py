"""Timing comparison of the compiled and pure-Python kernel backends.

Three workloads, coarse to fine:

- ``grad_hess``: one reduced-Newton gradient/Hessian assembly on a 200-knot
  concave log-density (the inner-loop primitive),
- ``fit``: a cold-start weighted log-concave fit at several sample sizes,
- ``em``: a full mixture EM run on a two-normal sample.

Each timing is the best of ``--repeats`` runs. The package is imported from
the ``src/`` directory of the checkout this script sits in, ahead of any
installed copy, so it runs from a source checkout without installing::

    python3 benchmarks/bench_backends.py
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from logconmix import kernels  # noqa: E402
from logconmix.em import EmConfig, run_em  # noqa: E402
from logconmix.families import Normal, sample_mixture  # noqa: E402
from logconmix.logcon import WeightedSample, fit_weighted_logconcave  # noqa: E402


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def workload_grad_hess(calls=2000, knots=200):
    rng = np.random.default_rng(1)
    x = np.sort(rng.normal(0.0, 1.0, knots))
    phi = -0.5 * x * x  # concave, roughly normalized shape
    w = np.full(knots, 1.0 / knots)
    dx = np.diff(x)

    def run():
        for _ in range(calls):
            kernels.knot_grad_hess(dx, phi, w)

    return run


def workload_fit(n):
    rng = np.random.default_rng(2)
    pts = rng.normal(0.0, 1.0, n)
    sample = WeightedSample.from_observations(pts)

    def run():
        fit_weighted_logconcave(sample)

    return run


def workload_em(n=1000):
    values, _ = sample_mixture(Normal(0.0, 2.0), Normal(3.0, 1.0), 0.5, n, 5)
    f0 = Normal(0.0, 2.0)
    cfg = EmConfig()

    def run():
        run_em(values, f0, cfg)

    return run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of this many runs (default 3)")
    args = parser.parse_args()

    backends = kernels.available_backends()
    print(f"available backends: {', '.join(backends)}")
    if len(backends) < 2:
        print("compiled extension not importable; timing python only")

    workloads = [
        ("grad_hess 200 knots x2000", workload_grad_hess()),
        ("fit n=100", workload_fit(100)),
        ("fit n=1000", workload_fit(1000)),
        ("fit n=5000", workload_fit(5000)),
        ("em n=1000", workload_em()),
    ]

    results = {}
    for backend in backends:
        kernels.set_backend(backend)
        for name, fn in workloads:
            fn()  # warm-up outside the timer
            results[(backend, name)] = best_of(fn, args.repeats)

    width = max(len(name) for name, _ in workloads)
    header = f"{'workload':<{width}}  " + "".join(
        f"{b + ' (s)':>12}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print()
    print(header)
    print("-" * len(header))
    for name, _ in workloads:
        row = f"{name:<{width}}  "
        for backend in backends:
            row += f"{results[(backend, name)]:>12.4f}"
        if len(backends) == 2:
            ratio = results[("python", name)] / results[("cython", name)]
            row += f"{ratio:>9.2f}x"
        print(row)

    kernels.set_backend(backends[-1])


if __name__ == "__main__":
    main()
