"""Kernel backend selection.

The solver in ``logcon`` calls two kernels at every Newton point:
``knot_grad_hess`` and ``solve_newton_step``. The ``"compiled"`` backend
takes them from ``_kernels_c``, the C extension that ``setup.py`` builds
from ``_kernels_c.c``, and is selected when that module imports; the
``"python"`` backend takes them from ``_kernels_py``, their reference, and
is selected otherwise. The python knot kernels run one knot segment at a
time on Python floats, with the C library's exp and expm1 through ``math``
and sums taken left to right, as the compiled ones do; the two backends
agree to the bit. :func:`set_backend` switches at runtime.

``knot_grad_hess`` hands back each segment's mass with its derivatives, so
``logcon`` forms the Armijo value and the normalizing integral from one
kernel call per Newton point. Two layouts of the same formulas run on the
python backend: ``knot_grad_hess`` per knot segment on Python floats, and
J's value alone on arrays (``segment_integrals``); see ``_kernels_py``.
"""

from __future__ import annotations

from . import _kernels_py

# Six python kernels outside the contract, from _kernels_py on every
# backend. ``segment_integrals`` is what ``logcon.cdf`` calls to evaluate a
# finished fit, and ``knot_objective`` what ``logcon.objective`` calls, from
# ``segment_integrals``; ``integral_grad_terms`` is a one-line view of the
# python ``knot_grad_hess``, the only code that forms J's partials. The four
# per-point ones did logcon's per-point work, which now runs on its point
# grid. They stay here as test oracles and for the benchmark tracer, which
# wraps them by name.
from ._kernels_py import (aggregate_weights, integral_grad_terms,  # noqa: F401
                          interp_to_points, knot_objective, multipliers,
                          segment_integrals)

_CONTRACT = ["knot_grad_hess", "solve_newton_step"]

__all__ = _CONTRACT + ["segment_integrals", "knot_objective", "interp_to_points",
                       "aggregate_weights", "integral_grad_terms", "multipliers",
                       "BACKEND", "set_backend", "available_backends"]

BACKEND = "python"


def available_backends() -> list:
    out = ["python"]
    try:
        from . import _kernels_c  # noqa: F401
        out.append("compiled")
    except ImportError:
        pass
    return out


def set_backend(name: str) -> str:
    """Select the kernel implementation; returns the active backend name."""
    global BACKEND
    if name == "python":
        impl = _kernels_py
    elif name == "compiled":
        from . import _kernels_c as impl
    else:
        raise ValueError(f"unknown kernel backend {name!r}; use 'python' or 'compiled'")
    BACKEND = name
    for fn in _CONTRACT:
        globals()[fn] = getattr(impl, fn)
    return BACKEND


try:
    set_backend("compiled")
except ImportError:
    set_backend("python")
