"""Spans and counters recorded at the boundaries between logconmix layers.

The program itself carries no instrumentation. :func:`install` replaces, for
the duration of a traced run, the module-level names through which each layer
calls the next one: ``kernels.<fn>`` (looked up as ``K.<fn>`` by ``logcon``),
and the names that ``em``, ``simulate`` and ``cli`` imported with
``from ... import``, which live in the calling module's namespace. Each
wrapper records one span (name, start, end, parent) in memory; spans are
written out only when the run ends. :meth:`Tracer.uninstall` puts every
original name back.
"""

from __future__ import annotations

import collections
import csv
import functools
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# The eight kernel functions that logcon.py calls.
KERNEL_FNS = (
    "knot_grad_hess", "knot_objective", "solve_newton_step", "aggregate_weights",
    "interp_to_points", "integral_grad_terms", "multipliers", "segment_integrals",
)

EXITS = ("converged", "cap", "AllKnown", "AllUnknown", "raised")


def em_exit(result) -> str:
    """Why a run_em call stopped: 'converged', 'cap' or a degenerate exit."""
    if result.degenerate is not None:
        return result.degenerate
    return "converged" if result.converged else "cap"


class Tracer:
    """In-memory span recorder.

    Spans are kept as four parallel lists; ``parent`` is the index of the
    enclosing span or -1. Counters (``counts``) and per-call observations
    (``values``) are recorded at the same boundaries as the spans.
    """

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.counts = collections.Counter()
        self.values = collections.defaultdict(list)
        self._stack = []
        self._patches = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def region(self, name):
        """A span around a block of benchmark code."""
        idx = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())

    def wrap(self, fn, name, observe=None):
        """Return ``fn`` wrapped in a span. ``name`` may be a callable of
        (args, kwargs); ``observe(tracer, args, kwargs, result)`` records
        counters after a successful call."""
        naming = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = naming(args, kwargs)
            idx = self._open(span)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{span}.raised:{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(idx, t0, perf_counter())
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr, name, observe=None, static=False):
        """Replace ``owner.attr`` by a traced wrapper until :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        traced = self.wrap(getattr(owner, attr), name, observe)
        setattr(owner, attr, staticmethod(traced) if static else traced)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(("name", "start", "end", "parent"))
            out.writerows(zip(self.names, self.start, self.end, self.parent))

    def totals(self):
        """Per span name: (calls, summed duration, summed self time); a name
        that never ran reads (0, 0.0, 0.0).

        A span's self time is its duration minus the durations of its direct
        children; spans nest on one call stack, so the children never overlap.
        """
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.intp)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        out = collections.defaultdict(lambda: (0, 0.0, 0.0))
        for i, name in enumerate(self.names):
            calls, total, self_s = out[name]
            out[name] = (calls + 1, total + float(dur[i]), self_s + float(own[i]))
        return out


def _observe_knots(tracer, args, kwargs, out):
    tracer.counts["kernels.knot_grad_hess.knots"] += len(args[1])


def _fit_name(args, kwargs):
    return "logcon.fit_cold" if kwargs.get("init") is None else "logcon.fit_warm"


def _observe_fit(tracer, args, kwargs, fit):
    tracer.counts["logcon.not_converged"] += int(not fit.converged)
    tracer.values["logcon.kkt_residual"].append(float(fit.kkt_residual))
    tracer.values["logcon.knots"].append(int(fit.knots.size))


def _observe_em(tracer, args, kwargs, result):
    tracer.counts[f"em.exit.{em_exit(result)}"] += 1
    tracer.values["em.iterations"].append(int(result.iterations))


def install(tracer):
    """Wrap every layer boundary of the imported logconmix package.

    Kernel wrappers sit on the module attributes that ``kernels.set_backend``
    rebinds, so install after choosing the backend.
    """
    from logconmix import cli, em, kernels, logcon, simulate

    for fn in KERNEL_FNS:
        tracer.patch(kernels, fn, f"kernels.{fn}",
                     _observe_knots if fn == "knot_grad_hess" else None)
    for module in (em, logcon):
        tracer.patch(module, "fit_weighted_logconcave", _fit_name, _observe_fit)
    tracer.patch(logcon.WeightedSample, "from_observations",
                 "logcon.from_observations", static=True)
    for module in (em, simulate, cli):
        tracer.patch(module, "run_em", "em.run_em", _observe_em)
    tracer.patch(em, "_gaussian_kde_at_points", "em.pilot_kde")
    tracer.patch(em, "e_step", "em.e_step")
    tracer.patch(em, "m_step_f", "em.m_step_f")
    tracer.patch(em, "log_pdf_known", "families.log_pdf_known")
    tracer.patch(em, "check_identifiability", "identifiability.check")
    tracer.patch(simulate, "_run_replication", "simulate.replication")
    tracer.patch(simulate, "sample_mixture", "families.sample_mixture")
    tracer.patch(cli, "_cmd_tstats", "cli.tstats")
    tracer.patch(cli, "_cmd_fit", "cli.fit")
    tracer.patch(cli, "student_t_two_sided_p", "special.t_p")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(tracer, overhead_frac):
    """The per-layer metrics of one traced pass, by name: (value, unit)."""
    tot = tracer.totals()

    def calls(name):
        return tot[name][0]

    def secs(name):
        return tot[name][1]

    def self_s(*names):
        return sum(tot[name][2] for name in names)

    m = {}
    for fn in KERNEL_FNS:
        m[f"kernels.{fn}.calls"] = (calls(f"kernels.{fn}"), "count")
        m[f"kernels.{fn}.s"] = (secs(f"kernels.{fn}"), "s")
    m["kernels.knot_grad_hess.knots"] = (tracer.counts["kernels.knot_grad_hess.knots"], "count")
    m["kernels.self_s"] = (self_s(*(f"kernels.{fn}" for fn in KERNEL_FNS)), "s")

    for kind in ("fit_cold", "fit_warm"):
        m[f"logcon.{kind}.calls"] = (calls(f"logcon.{kind}"), "count")
        m[f"logcon.{kind}.s"] = (secs(f"logcon.{kind}"), "s")
    m["logcon.self_s"] = (self_s("logcon.fit_cold", "logcon.fit_warm"), "s")
    m["logcon.from_observations.calls"] = (calls("logcon.from_observations"), "count")
    m["logcon.from_observations.s"] = (secs("logcon.from_observations"), "s")
    m["logcon.not_converged"] = (tracer.counts["logcon.not_converged"], "count")
    kkt = tracer.values["logcon.kkt_residual"]
    knots = tracer.values["logcon.knots"]
    m["logcon.kkt_residual_max"] = (max(kkt) if kkt else 0.0, "ratio")
    m["logcon.knots_mean"] = (float(np.mean(knots)) if knots else 0.0, "count")

    iters = tracer.values["em.iterations"]
    m["em.run_em.calls"] = (calls("em.run_em"), "count")
    m["em.run_em.s"] = (secs("em.run_em"), "s")
    m["em.iterations.sum"] = (int(sum(iters)), "count")
    m["em.iterations.p50"] = (float(np.median(iters)) if iters else 0.0, "count")
    m["em.iterations.max"] = (int(max(iters)) if iters else 0, "count")
    m["em.s_per_iter"] = (secs("em.run_em") / sum(iters) if sum(iters) else 0.0, "s")
    m["em.pilot_kde.s"] = (secs("em.pilot_kde"), "s")
    m["em.e_step.s"] = (secs("em.e_step"), "s")
    m["em.m_step_f.s"] = (secs("em.m_step_f"), "s")
    m["em.self_s"] = (self_s("em.run_em"), "s")
    raised = sum(v for k, v in tracer.counts.items() if k.startswith("em.run_em.raised:"))
    for kind in EXITS:
        count = raised if kind == "raised" else tracer.counts[f"em.exit.{kind}"]
        m[f"em.exit.{kind}"] = (count, "count")

    rep = [e - s for n, s, e in zip(tracer.names, tracer.start, tracer.end)
           if n == "simulate.replication"]
    for q, label in ((50, "p50"), (90, "p90"), (100, "max")):
        m[f"simulate.replication.s.{label}"] = (
            float(np.percentile(rep, q)) if rep else 0.0, "s")
    m["simulate.self_s"] = (self_s("simulate.run_scenario", "simulate.replication"), "s")

    m["cli.tstats.s"] = (secs("cli.tstats"), "s")
    m["cli.fit.s"] = (secs("cli.fit"), "s")
    m["cli.self_s"] = (self_s("cli.main", "cli.tstats", "cli.fit"), "s")
    m["special.t_p.calls"] = (calls("special.t_p"), "count")
    m["special.t_p.s"] = (secs("special.t_p"), "s")
    m["families.log_pdf_known.s"] = (secs("families.log_pdf_known"), "s")
    m["identifiability.check.s"] = (secs("identifiability.check"), "s")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m


def layer_self_times(tracer):
    """Summed self time per layer (the span-name prefix)."""
    out = collections.Counter()
    for name, (_, _, own) in tracer.totals().items():
        out[layer_of(name)] += own
    return dict(out)


def consistency(tracer, overhead_frac):
    """Traced-run self-checks; returns a list of (check name, ok, detail)."""
    tot = tracer.totals()
    checks = []
    worst = min((own for _, _, own in tot.values()), default=0.0)
    checks.append(("self_time_nonnegative", worst >= -1e-9,
                   f"smallest summed self time {worst:.3g} s"))
    run_em = tot["em.run_em"][1]
    if run_em > 0.0:
        parts = ["em.pilot_kde", "em.e_step", "em.m_step_f",
                 "identifiability.check", "families.log_pdf_known"]
        explained = sum(tot[p][1] for p in parts)
        explained += tot["em.run_em"][2]
        gap = (run_em - explained) / run_em
        # The only other children of run_em are the pooled fits of a
        # collapsed start; they may not exceed the tracing overhead.
        checks.append(("run_em_decomposes", abs(gap) <= max(overhead_frac, 0.0) + 0.01,
                       f"run_em {run_em:.4g} s = pilot_kde + e_step + m_step_f + "
                       f"identifiability + log_pdf_known + self, unexplained "
                       f"{100 * gap:.2f}%"))
    return checks


def em_decomposition(tracer, wall):
    """The EM time of one traced run_em as iterations x (Newton steps x
    kernel time + overhead); knot_grad_hess calls count the Newton steps."""
    iters = sum(tracer.values["em.iterations"])
    tot = tracer.totals()
    steps = tot["kernels.knot_grad_hess"][0]
    kernel_s = sum(tot[f"kernels.{fn}"][1] for fn in KERNEL_FNS)
    per_iter_overhead = (wall - kernel_s) / iters if iters else 0.0
    return iters, steps, kernel_s, per_iter_overhead
