"""Kernel backend selection.

The solver in ``logcon`` calls two kernels: ``newton_solve``, the Newton
loop on one knot set (step, step bound, Armijo halving and the first
blocking knot) in one call, and ``knot_grad_hess``, the objective and its
derivatives at one point, once per round. The ``"compiled"`` backend takes
them from ``_kernels_c``, the C extension that ``setup.py`` builds from
``_kernels_c.c``, and is selected when that module imports; the
``"python"`` backend takes them from ``_kernels_py``, their reference, and
is selected otherwise. The python kernels run on Python floats, one knot
segment at a time, with the C library's exp and expm1 through ``math`` and
sums taken left to right, as the compiled ones do; the two backends agree
to the bit. :func:`set_backend` switches at runtime.

Both kernels evaluate psi with each segment's mass and its derivatives in
one formula, so the Armijo value, the normalizing integral and
``objective`` are one rounding of psi; it has no other formula. Two
layouts of the same formulas run on the python backend: the kernels per
knot segment on Python floats, and J's value alone on arrays
(``segment_integrals``); see ``_kernels_py``.
"""

from __future__ import annotations

from . import _kernels_py

# Seven python names outside the contract and __all__, which nothing in the
# package calls through this module (newton_solve runs the core of
# solve_newton_step): they stay bound only because the benchmark tracer
# (perfbench/layers.KERNEL_FNS) wraps them by name, and
# tests/test_perfbench_tracer.py loads it. They go with its next change.
from ._kernels_py import (aggregate_weights, integral_grad_terms,  # noqa: F401
                          interp_to_points, knot_objective, multipliers,
                          segment_integrals, solve_newton_step)

_CONTRACT = ["knot_grad_hess", "newton_solve"]

__all__ = _CONTRACT + ["BACKEND", "set_backend", "available_backends"]

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
