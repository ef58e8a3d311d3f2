"""Exception types shared across the package, and the integer check that
names the argument it rejects."""

import operator


def require_int(name: str, value) -> int:
    """``value`` as a Python int when it is an integer of any type (numpy's
    included); a ValueError naming ``name`` for a bool or a non-integral
    number, which ``int()`` would otherwise truncate."""
    try:
        out = operator.index(value)
    except TypeError:
        out = None
    if out is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return out


class LogconmixError(Exception):
    """Base class for package-specific failures."""


class DegenerateSampleError(LogconmixError):
    """Fewer than two distinct points: no density estimate exists."""


class ZeroMixtureDensityError(LogconmixError):
    """The mixture density is zero at an observation; responsibilities undefined."""


class ComponentCollapsedError(LogconmixError):
    """The unknown component's responsibility mass fell below the floor."""


class AllWeightsKnownError(LogconmixError):
    """Every posterior weight points to the known component; no mean to estimate."""


class AllReplicationsFailedError(LogconmixError):
    """Every replication of a scenario failed; no aggregate to report."""


class CliInputError(LogconmixError):
    """Malformed command-line input (file contents or parameter values)."""
