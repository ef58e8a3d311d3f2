"""The benchmark's layer tracer still fits the package.

``perfbench/layers.py`` wraps module-level names of logconmix for a traced
run (``perfbench/run.py --trace 1``). A change that moves work across those
names can break the traced run without failing anything else, so one small
``run_em`` is traced here: the run must decompose into its traced parts, and
uninstalling must put every name back.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from logconmix import cli, em, kernels, logcon, simulate
from logconmix.families import Normal, sample_mixture

from test_solver import _tied_catalog_sample

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    owners = (cli, em, kernels, logcon, simulate, logcon.WeightedSample)
    return {owner: dict(vars(owner)) for owner in owners}


def _check_traced_run_em(monkeypatch, values, f0):
    """Trace one ``run_em`` and check the trace against the run; returns the
    result and the number of M-steps run."""
    layers = _load_layers()
    run = []
    m_step_f = em.m_step_f

    def counted(*args, **kwargs):
        run.append(1)
        return m_step_f(*args, **kwargs)

    monkeypatch.setattr(em, "m_step_f", counted)
    before = _namespaces()
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        assert em.m_step_f is not before[em]["m_step_f"]
        result = em.run_em(values, f0)
    finally:
        tracer.uninstall()

    after = _namespaces()
    for owner, names in before.items():
        assert after[owner].keys() == names.keys()
        moved = [name for name, value in names.items() if after[owner][name] is not value]
        assert not moved, (owner, moved)

    checks = {name: (ok, detail) for name, ok, detail in layers.consistency(tracer, 0.0)}
    assert checks["run_em_decomposes"][0], checks["run_em_decomposes"][1]
    assert checks["self_time_nonnegative"][0]
    totals = tracer.totals()
    assert totals["em.run_em"][0] == 1
    # every M-step is seen, and each goes through the traced fit; each of
    # the two EM passes runs one M-step for its start and one per iteration
    assert totals["em.m_step_f"][0] == len(run)
    assert len(run) == result.iterations + 2
    assert totals["logcon.fit_warm"][0] + totals["logcon.fit_cold"][0] == totals["em.m_step_f"][0]
    assert totals["kernels.knot_grad_hess"][0] > 0
    assert np.isfinite(result.p_hat)
    return result, len(run)


def test_tracer_decomposes_run_em_and_uninstalls_cleanly(monkeypatch):
    values, _ = sample_mixture(Normal(0.0, 2.0), Normal(3.0, 1.0), 0.4, 300, 11)
    _check_traced_run_em(monkeypatch, values, Normal(0.0, 2.0))


def test_tracer_counts_one_m_step_per_iteration_on_a_tied_sample(monkeypatch):
    # the clamp of this sample settles before it reaches its exact fixed
    # point, and every iteration counted runs its M-step
    result, m_steps = _check_traced_run_em(monkeypatch, *_tied_catalog_sample())
    assert m_steps == result.iterations + 2
