"""Identifiability diagnostics for the mixture decomposition.

The mixing proportion is identifiable when no positive fraction of the known
component f0 can be absorbed into a log-concave density. The report holds
only clauses whose verdict can tell one fit from another, plus the one that
the paper proves of f0 alone. By family of f0:

- f0 with log-density growing slower than |x|^k for every k in (0, 1)
  (Student-t): identifiable against ANY log-concave alternative, no fit
  needed.
- bounded-support f0 (Uniform, Tabulated): identifiable when the fitted
  support is contained in supp(f0) with strictly smaller length.
- Exponential f0 (rate lambda): sufficient that the rightmost slope of the
  fitted phi is < -lambda (the estimate's right tail falls faster than f0's).
- Normal f0: no clause. The known condition, limsup phi(x)/x^2 <
  -1/(2 sigma^2), concerns the tail of the true f, and every compactly
  supported estimate, which is all this package produces, meets it, so
  checking it on the fit says nothing.

A clause that needs a fit is left out when there is none. Each clause
reports one of four verdicts; the report's overall verdict is the most
conclusive one, and Inconclusive when there is no clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .families import (Exponential, KnownComponent, StudentT, Tabulated,
                       Uniform)
from .logcon import LogConcaveFit

__all__ = [
    "IDENTIFIABLE", "CONDITION_HOLDS", "CONDITION_FAILS", "INCONCLUSIVE",
    "IdentifiabilityClause", "IdentifiabilityReport", "check_identifiability",
    "report_to_dict",
]

IDENTIFIABLE = "Identifiable"
CONDITION_HOLDS = "ConditionHolds"
CONDITION_FAILS = "ConditionFails"
INCONCLUSIVE = "Inconclusive"

_RANK = {IDENTIFIABLE: 3, CONDITION_HOLDS: 2, CONDITION_FAILS: 1, INCONCLUSIVE: 0}


@dataclass(frozen=True)
class IdentifiabilityClause:
    name: str
    verdict: str
    condition: str
    detail: str = ""


@dataclass(frozen=True)
class IdentifiabilityReport:
    clauses: Tuple[IdentifiabilityClause, ...]

    @property
    def verdict(self) -> str:
        """The most conclusive clause verdict, Inconclusive with no clause.

        ConditionHolds outranks ConditionFails because each clause is a
        sufficient condition: one that holds shows identifiability, and one
        that fails does not show non-identifiability."""
        best = INCONCLUSIVE
        for clause in self.clauses:
            if _RANK[clause.verdict] > _RANK[best]:
                best = clause.verdict
        return best


def _support_clause(f0: KnownComponent, fit: LogConcaveFit) -> IdentifiabilityClause:
    lo, hi = f0.support
    a, b = fit.support
    holds = (a >= lo) and (b <= hi) and (b - a) < (hi - lo)
    return IdentifiabilityClause(
        "support_containment", CONDITION_HOLDS if holds else CONDITION_FAILS,
        "fitted support strictly contained in supp(f0) with smaller Lebesgue measure",
        f"fitted support [{a:g}, {b:g}] vs supp(f0) = [{lo:g}, {hi:g}]")


def check_identifiability(f0: KnownComponent,
                          fit: Optional[LogConcaveFit] = None) -> IdentifiabilityReport:
    clauses = []
    if isinstance(f0, StudentT):
        clauses.append(IdentifiabilityClause(
            "sublinear_log_tail", IDENTIFIABLE,
            "log f0(x) = O(|x|^k) for every k in (0, 1)",
            f"Student-t log-density decays logarithmically (df={f0.df:g}); "
            "no log-concave density can absorb any fraction of f0"))
    if fit is None:
        return IdentifiabilityReport(clauses=tuple(clauses))
    if isinstance(f0, Exponential):
        slope = float((fit.phi[-1] - fit.phi[-2])
                      / (fit.knots[-1] - fit.knots[-2]))
        verdict = CONDITION_HOLDS if slope < -f0.rate else CONDITION_FAILS
        clauses.append(IdentifiabilityClause(
            "right_tail_slope", verdict, "rightmost slope of fitted phi < -rate",
            f"rightmost slope {slope:g} vs -rate = {-f0.rate:g}"))
    if isinstance(f0, (Uniform, Tabulated)):
        clauses.append(_support_clause(f0, fit))
    return IdentifiabilityReport(clauses=tuple(clauses))


def report_to_dict(report: IdentifiabilityReport) -> dict:
    return {
        "verdict": report.verdict,
        "clauses": [
            {"name": c.name, "verdict": c.verdict,
             "condition": c.condition, "detail": c.detail}
            for c in report.clauses
        ],
    }
