"""Deterministic random streams.

Every random draw in the package flows through a Philox (4x64)
counter-based bit generator with explicit seeding. The platform-default
global RNG is never used, so a run is reproducible from its seed alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

Seed = int | np.random.Generator


def check_seed(seed) -> None:
    """Raise ValidationError, naming the seed, unless it is an int >= 0.

    A numpy integer counts as an int; a bool does not.
    """
    if (not isinstance(seed, (int, np.integer)) or isinstance(seed, bool)
            or seed < 0):
        raise ValidationError(f"seed must be a non-negative int, got {seed!r}")


def make_generator(seed: Seed) -> np.random.Generator:
    """Return a seeded Philox generator, or pass an existing one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    check_seed(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def split_streams(seed: int, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from one seed.

    Children are spawned from a SeedSequence, so streams do not collide
    and the derivation is stable across runs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    children = np.random.SeedSequence(int(seed)).spawn(n)
    return [np.random.Generator(np.random.Philox(c)) for c in children]
