"""Kernel backend selection.

``logcon`` calls five kernels: ``j_values``, ``segment_integrals``,
``knot_objective``, ``knot_grad_hess`` and ``solve_newton_step``. The
``"compiled"`` backend takes them from ``_kernels_c``, the C extension that
``setup.py`` builds from ``_kernels_c.c``, and is selected when that module
imports; the ``"python"`` backend takes them from the pure-numpy
``_kernels_py``, their reference. ``LOGCONMIX_BACKEND=python|compiled|auto``
forces a choice at import, and :func:`set_backend` switches at runtime.
"""

from __future__ import annotations

import os

from . import _kernels_py

# The four per-point kernels that logcon no longer calls: it does that work
# on its point grid. They stay, from _kernels_py on every backend, as that
# code's test oracle and for the benchmark tracer, which wraps them by name.
from ._kernels_py import (aggregate_weights, integral_grad_terms,  # noqa: F401
                          interp_to_points, multipliers)

_CONTRACT = ["j_values", "segment_integrals", "knot_objective",
             "knot_grad_hess", "solve_newton_step"]

__all__ = _CONTRACT + ["interp_to_points", "aggregate_weights",
                       "integral_grad_terms", "multipliers",
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


_requested = os.environ.get("LOGCONMIX_BACKEND", "").strip().lower()
if _requested in ("", "auto"):
    try:
        set_backend("compiled")
    except ImportError:
        set_backend("python")
elif _requested in ("python", "compiled"):
    set_backend(_requested)
else:
    raise ValueError(
        f"LOGCONMIX_BACKEND={_requested!r} not understood; use 'python', 'compiled', or 'auto'")
