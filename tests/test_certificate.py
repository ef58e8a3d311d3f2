"""The optimality certificate of ``conftest.optimality_certificate``, which
shares no code with the solver, on the fits of EM's M-steps and on a
sample at shrinking scales; ``conftest.assert_certified`` holds the bounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from logconmix import em
from logconmix.families import sample_mixture
from logconmix.logcon import WeightedSample, fit_weighted_logconcave
from logconmix.rng import child_seed
from logconmix.simulate import model_catalog

from conftest import assert_certified
from test_golden import EM_SEED, M_STEP_CELLS


def test_every_converged_m_step_fit_is_certified(monkeypatch):
    # the three runs of test_golden's M-step pin; each converged fit is
    # checked against the weights it was given, zeros and floors included
    fits = []
    fit_weighted_logconcave_em = em.fit_weighted_logconcave

    def recorded(sample, init=None):
        fit = fit_weighted_logconcave_em(sample, init=init)
        fits.append((sample, fit))
        return fit

    monkeypatch.setattr(em, "fit_weighted_logconcave", recorded)
    for i, (model, p) in enumerate(M_STEP_CELLS):
        spec = model_catalog()[model]
        values, _ = sample_mixture(spec.known, spec.unknown, p, 1000,
                                   child_seed(EM_SEED, 100 + i))
        em.run_em(values, spec.known)
    converged = [(sample, fit) for sample, fit in fits if fit.converged]
    assert len(converged) > 200
    for sample, fit in converged:
        assert_certified(sample, fit)


ITEM_2 = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: the solver's KKT tolerance is "
                        "absolute, so a fit of shrunken data stops short")


@pytest.mark.parametrize("scale", [
    1.0, pytest.param(1e-5, marks=ITEM_2), pytest.param(1e-8, marks=ITEM_2)])
def test_a_scaled_normal_sample_is_certified(scale):
    # ROADMAP item 2's sample: 500 N(0, 1) draws (seed 0) times the scale;
    # every fit reports converged=True
    x = np.random.default_rng(0).normal(size=500) * scale
    sample = WeightedSample.from_observations(x)
    fit = fit_weighted_logconcave(sample)
    assert fit.converged
    assert_certified(sample, fit)
