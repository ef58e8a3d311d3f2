"""Identifiability diagnostics for the mixture decomposition.

The mixing proportion is identifiable when no positive fraction of the known
component f0 can be absorbed into a log-concave density. Sufficient
conditions checked here, by family of f0:

- f0 with log-density growing slower than |x|^k for every k in (0, 1)
  (Student-t): identifiable against ANY log-concave alternative, no fit
  needed.
- bounded-support f0 (Uniform, Tabulated): identifiable when the fitted
  support is contained in supp(f0) with strictly smaller length.
- Normal f0: the tail condition limsup phi(x)/x^2 < -1/(2 sigma^2) is
  satisfied by every compactly supported estimate, which is what this
  package produces; reported through the support clause plus an explicit
  note.
- Exponential f0 (rate lambda): sufficient that the rightmost slope of the
  fitted phi is < -lambda (the estimate's right tail falls faster than f0's).

Each clause reports one of four verdicts; the report's overall verdict is
the most conclusive one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .families import (Exponential, KnownComponent, Normal, StudentT,
                       Tabulated, Uniform)
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
        best = INCONCLUSIVE
        for clause in self.clauses:
            if _RANK[clause.verdict] > _RANK[best]:
                best = clause.verdict
        return best


def _support_clause(f0: KnownComponent, fit: Optional[LogConcaveFit]) -> IdentifiabilityClause:
    lo, hi = f0.support
    cond = ("fitted support strictly contained in supp(f0) "
            "with smaller Lebesgue measure")
    if fit is None:
        return IdentifiabilityClause("support_containment", INCONCLUSIVE, cond,
                                     "no fitted density supplied")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        # With an unbounded supp(f0), a compactly supported estimate gives no
        # information: part of f0's tail can sometimes be folded into a
        # log-concave component anyway, so containment proves nothing.
        return IdentifiabilityClause(
            "support_containment", INCONCLUSIVE, cond,
            "supp(f0) is unbounded; the containment criterion applies only "
            "to bounded supports")
    a, b = fit.support
    f0_len = hi - lo
    contained = (a >= lo) and (b <= hi)
    smaller = (b - a) < f0_len
    detail = (f"fitted support [{a:g}, {b:g}] vs supp(f0) = "
              f"[{lo:g}, {hi:g}]")
    if contained and smaller:
        return IdentifiabilityClause("support_containment", CONDITION_HOLDS, cond, detail)
    return IdentifiabilityClause("support_containment", CONDITION_FAILS, cond, detail)


def check_identifiability(f0: KnownComponent,
                          fit: Optional[LogConcaveFit] = None) -> IdentifiabilityReport:
    clauses = []
    if isinstance(f0, StudentT):
        clauses.append(IdentifiabilityClause(
            "sublinear_log_tail", IDENTIFIABLE,
            "log f0(x) = O(|x|^k) for every k in (0, 1)",
            f"Student-t log-density decays logarithmically (df={f0.df:g}); "
            "no log-concave density can absorb any fraction of f0"))
    if isinstance(f0, Normal):
        if fit is not None:
            clauses.append(IdentifiabilityClause(
                "gaussian_tail_domination", CONDITION_HOLDS,
                "limsup phi(x)/x^2 < -1/(2 sigma^2) as |x| -> inf",
                "satisfied by compact support: the fitted phi is -inf outside "
                f"[{fit.support[0]:g}, {fit.support[1]:g}]"))
        else:
            clauses.append(IdentifiabilityClause(
                "gaussian_tail_domination", INCONCLUSIVE,
                "limsup phi(x)/x^2 < -1/(2 sigma^2) as |x| -> inf",
                "no fitted density supplied; any compactly supported estimate "
                "satisfies the condition"))
    if isinstance(f0, Exponential):
        cond = "rightmost slope of fitted phi < -rate"
        if fit is not None:
            slope = float((fit.phi[-1] - fit.phi[-2])
                          / (fit.knots[-1] - fit.knots[-2]))
            verdict = CONDITION_HOLDS if slope < -f0.rate else CONDITION_FAILS
            clauses.append(IdentifiabilityClause(
                "right_tail_slope", verdict, cond,
                f"rightmost slope {slope:g} vs -rate = {-f0.rate:g}"))
        else:
            clauses.append(IdentifiabilityClause(
                "right_tail_slope", INCONCLUSIVE, cond,
                "no fitted density supplied"))
    if fit is not None or isinstance(f0, (Uniform, Tabulated)):
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
