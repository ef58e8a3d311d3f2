"""Kernel backend selection.

The compiled Cython kernels are used when the extension imported cleanly; the
pure-numpy module is the fallback. `LOGCONMIX_BACKEND=python` (or `cython`)
forces a choice, and tests/benchmarks can switch at runtime with
:func:`set_backend`.
"""

from __future__ import annotations

import os

from . import _kernels_py

# What logcon.py calls, and the four per-point kernels that it no longer
# calls (interp_to_points, aggregate_weights, integral_grad_terms and
# multipliers): logcon does that work on its point grid, and these stay as
# its test oracle and for the benchmark tracer, which wraps them by name. The
# scalar and partial J-kernels stay on each backend module, where
# tests/test_kernels.py checks them directly.
_FORWARDED = [
    "j_values", "segment_integrals", "knot_objective", "knot_grad_hess",
    "solve_newton_step", "interp_to_points", "aggregate_weights",
    "integral_grad_terms", "multipliers",
]

__all__ = _FORWARDED + ["BACKEND", "set_backend", "available_backends"]

_impl = _kernels_py
BACKEND = "python"


def available_backends() -> list:
    out = ["python"]
    try:
        from . import _kernels_cy  # noqa: F401
        out.append("cython")
    except ImportError:
        pass
    return out


def set_backend(name: str) -> str:
    """Select the kernel implementation; returns the active backend name."""
    global _impl, BACKEND
    if name == "python":
        _impl = _kernels_py
    elif name == "cython":
        from . import _kernels_cy
        _impl = _kernels_cy
    else:
        raise ValueError(f"unknown kernel backend {name!r}; use 'python' or 'cython'")
    BACKEND = name
    for fn in _FORWARDED:
        globals()[fn] = getattr(_impl, fn)
    return BACKEND


_requested = os.environ.get("LOGCONMIX_BACKEND", "").strip().lower()
if _requested in ("", "auto"):
    try:
        set_backend("cython")
    except ImportError:
        set_backend("python")
elif _requested in ("python", "cython"):
    set_backend(_requested)
else:
    raise ValueError(
        f"LOGCONMIX_BACKEND={_requested!r} not understood; use 'python', 'cython', or 'auto'")
