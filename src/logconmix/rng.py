"""Counter-based, splittable random number streams.

All sampling in the package goes through :func:`make_rng`. Streams are built
on the Philox counter-based bit generator, so replication ``r`` of a run with
base seed ``s`` always draws from ``child_seed(s, r)`` — the same stream no
matter how many worker processes are used or in which order replications are
scheduled.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import require_int

# A seed is either a plain integer or an already-derived SeedSequence.
RngSeed = Union[int, np.random.SeedSequence]

__all__ = ["RngSeed", "make_rng", "child_seed"]


def child_seed(seed: RngSeed, index: int) -> np.random.SeedSequence:
    """Derive the ``index``-th child stream of ``seed``.

    Children with different indices are statistically independent, and
    ``child_seed(s, i)`` is a pure function of ``(s, i)``.
    """
    index = require_int("index", index)
    if index < 0:
        raise ValueError(f"child index must be >= 0, got {index}")
    if isinstance(seed, np.random.SeedSequence):
        key = seed.spawn_key + (index,)
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=key)
    return np.random.SeedSequence(entropy=_entropy(seed), spawn_key=(index,))


def make_rng(seed: RngSeed) -> np.random.Generator:
    """Build a Generator on the Philox counter-based bit generator."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(entropy=_entropy(seed))
    return np.random.Generator(np.random.Philox(seed))


def _entropy(seed) -> int:
    """An integer seed as a Python int; a ValueError naming the seed for a
    negative or non-integral one, which would otherwise run as another."""
    value = require_int("seed", seed)
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    return value
