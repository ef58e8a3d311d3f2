"""Identifiability diagnostics: verdict routing per known-component family,
clause composition, and the report serialization."""

from __future__ import annotations

import numpy as np
import pytest

from logconmix.em import run_em
from logconmix.families import (Exponential, Normal, StudentT, Tabulated,
                                Uniform, sample_mixture)
from logconmix.identifiability import (CONDITION_FAILS, CONDITION_HOLDS,
                                       IDENTIFIABLE, INCONCLUSIVE,
                                       IdentifiabilityClause,
                                       IdentifiabilityReport,
                                       check_identifiability, report_to_dict)
from logconmix.logcon import LogConcaveFit
from logconmix.simulate import model_catalog


def _fit(knots, phi):
    knots = np.asarray(knots, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return LogConcaveFit(knots=knots, phi=phi, objective=0.0,
                         kkt_residual=0.0, converged=True)


def test_student_t_is_identifiable_without_a_fit():
    report = check_identifiability(StudentT(5.0))
    assert report.verdict == IDENTIFIABLE
    names = [c.name for c in report.clauses]
    assert "sublinear_log_tail" in names


def test_student_t_stays_identifiable_with_a_fit():
    report = check_identifiability(StudentT(5.0), _fit([0.0, 1.0], [0.0, -1.0]))
    assert report.verdict == IDENTIFIABLE


def test_exponential_right_slope_steeper_than_rate_holds():
    # rightmost fitted slope -2 < -1 = -rate
    fit = _fit([0.0, 1.0, 3.0], [-1.0, -1.5, -5.5])
    report = check_identifiability(Exponential(1.0), fit)
    assert report.verdict == CONDITION_HOLDS
    clause = {c.name: c for c in report.clauses}["right_tail_slope"]
    assert clause.verdict == CONDITION_HOLDS


def test_exponential_right_slope_shallower_than_rate_fails():
    # rightmost fitted slope -0.5 > -1: f0's tail cannot be dominated
    fit = _fit([0.0, 2.0], [-1.0, -2.0])
    report = check_identifiability(Exponential(1.0), fit)
    assert report.verdict == CONDITION_FAILS
    # the unbounded f0 support must not contribute a spurious HOLDS clause
    assert "support_containment" not in [c.name for c in report.clauses]


def test_exponential_without_fit_is_inconclusive():
    assert check_identifiability(Exponential(2.0)).verdict == INCONCLUSIVE


def test_normal_with_compact_fit_reports_no_clause():
    # every compactly supported fit meets the Gaussian tail condition, so a
    # clause on it could never fail and says nothing about this fit
    fit = _fit([-1.0, 0.0, 1.0], [-1.0, -0.5, -1.5])
    report = check_identifiability(Normal(0.0, 2.0), fit)
    assert report.clauses == ()
    assert report.verdict == INCONCLUSIVE


def test_normal_without_fit_is_inconclusive():
    assert check_identifiability(Normal(0.0, 1.0)).verdict == INCONCLUSIVE


def test_uniform_with_strict_subinterval_fit_holds():
    fit = _fit([0.2, 0.8], [0.0, 0.0])
    report = check_identifiability(Uniform(0.0, 1.0), fit)
    assert report.verdict == CONDITION_HOLDS


def test_uniform_with_full_interval_fit_fails():
    fit = _fit([0.0, 1.0], [0.0, 0.0])
    assert check_identifiability(Uniform(0.0, 1.0), fit).verdict == \
        CONDITION_FAILS


def test_uniform_with_overhanging_fit_fails():
    fit = _fit([-0.1, 0.5], [0.0, 0.0])
    assert check_identifiability(Uniform(0.0, 1.0), fit).verdict == \
        CONDITION_FAILS


def test_tabulated_bounded_support_uses_containment():
    tab = Tabulated(np.linspace(0.0, 2.0, 5), np.full(5, -np.log(2.0)))
    inside = _fit([0.5, 1.0], [0.0, 0.0])
    assert check_identifiability(tab, inside).verdict == CONDITION_HOLDS
    outside = _fit([0.5, 2.5], [0.0, 0.0])
    assert check_identifiability(tab, outside).verdict == CONDITION_FAILS


@pytest.mark.parametrize("family, names", [
    (Normal, []),
    (Exponential, ["right_tail_slope"]),
    (Uniform, ["support_containment"]),
    (StudentT, ["sublinear_log_tail"]),
])
def test_run_em_reports_only_clauses_a_fit_can_change(family, names):
    # one run_em per known family of the catalog, plus a Student-t null: a
    # Normal null gets no clause, an unbounded null no support clause
    if family is StudentT:
        known, unknown = StudentT(5.0), Normal(4.0, 1.0)
    else:
        spec = next(s for s in model_catalog().values() if type(s.known) is family)
        known, unknown = spec.known, spec.unknown
    values, _ = sample_mixture(known, unknown, 0.3, 300, 11)
    result = run_em(values, known)
    assert [c.name for c in result.identifiability.clauses] == names


def test_report_verdict_takes_most_conclusive_clause():
    report = IdentifiabilityReport(clauses=(
        IdentifiabilityClause("a", INCONCLUSIVE, "c1"),
        IdentifiabilityClause("b", CONDITION_HOLDS, "c2"),
        IdentifiabilityClause("c", CONDITION_FAILS, "c3"),
    ))
    assert report.verdict == CONDITION_HOLDS
    empty = IdentifiabilityReport(clauses=())
    assert empty.verdict == INCONCLUSIVE


def test_report_to_dict_structure():
    report = check_identifiability(Uniform(0.0, 1.0), _fit([0.2, 0.7],
                                                           [0.0, 0.0]))
    doc = report_to_dict(report)
    assert doc["verdict"] == CONDITION_HOLDS
    assert isinstance(doc["clauses"], list) and doc["clauses"]
    assert {"name", "verdict", "condition", "detail"} <= set(doc["clauses"][0])
