"""Kernel-backend primitives, timed on every importable backend.

The same three primitives as ``benchmarks/bench_backends.py``: one reduced
Newton gradient/Hessian assembly on 200 knots (2000 calls), a cold weighted
log-concave fit at n=100, 1000 and 5000, and a full EM run at n=1000. Each
timing is the median of ``REPEATS`` runs after one warm-up. Inputs come from
the workload seed.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from logconmix import em, kernels, logcon
from logconmix.families import Normal, sample_mixture

import layers
from workloads import derived_seed

REPEATS = 3
FIT_NS = (100, 1000, 5000)


def _median_time(fn):
    fn()
    walls = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def _inputs(seed):
    rng = np.random.default_rng(derived_seed(seed, 900))
    x = np.sort(rng.normal(0.0, 1.0, 200))
    grad_hess = (np.diff(x), -0.5 * x * x, np.full(200, 1.0 / 200))
    samples = {n: logcon.WeightedSample.from_observations(
        np.random.default_rng(derived_seed(seed, 901, n)).normal(0.0, 1.0, n))
        for n in FIT_NS}
    values, _ = sample_mixture(Normal(0.0, 2.0), Normal(3.0, 1.0), 0.5, 1000,
                               derived_seed(seed, 902))
    return grad_hess, samples, values


def run(seed):
    """Time the primitives on each backend, then trace one EM run at n=1000.

    Returns {backend: {metric: (value, unit)}}; the active backend is
    restored afterwards.
    """
    active = kernels.BACKEND
    grad_hess, samples, values = _inputs(seed)
    f0 = Normal(0.0, 2.0)
    out = {}
    try:
        for backend in kernels.available_backends():
            kernels.set_backend(backend)
            m = {}

            def many_grad_hess():
                for _ in range(2000):
                    kernels.knot_grad_hess(*grad_hess)

            m["grad_hess.s"] = (_median_time(many_grad_hess), "s")
            for n in FIT_NS:
                m[f"fit_cold_n{n}.s"] = (
                    _median_time(lambda: logcon.fit_weighted_logconcave(samples[n])), "s")
            m["em_n1000.s"] = (_median_time(lambda: em.run_em(values, f0)), "s")

            tracer = layers.Tracer()
            layers.install(tracer)
            try:
                t0 = perf_counter()
                em.run_em(values, f0)
                wall = perf_counter() - t0
            finally:
                tracer.uninstall()
            iters, steps, kernel_s, overhead = layers.em_decomposition(tracer, wall)
            m["em_n1000.iterations"] = (iters, "count")
            m["em_n1000.newton_steps"] = (steps, "count")
            m["em_n1000.kernel_s"] = (kernel_s, "s")
            m["em_n1000.overhead_s_per_iter"] = (overhead, "s")
            m["em_n1000.traced_s"] = (wall, "s")
            out[backend] = m
    finally:
        kernels.set_backend(active)
    return out
