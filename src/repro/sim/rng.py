"""Seeded random-number utilities for reproducible experiments.

Every stochastic element of an experiment (job durations, arrival jitter,
boot-time noise) draws from a named stream derived from a single experiment
seed, so adding a new random consumer does not perturb existing streams —
a standard trick for variance reduction in simulation studies.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RandomStreams", "lognormal_from_mean_cv"]


class RandomStreams:
    """A family of independent, named RNG streams under one master seed."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        if name not in self._streams:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode()
            ).digest()
            substream_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(substream_seed)
        return self._streams[name]


def lognormal_from_mean_cv(rng: np.random.Generator, mean: float,
                           cv: float) -> float:
    """Lognormal draw parameterised by target mean and coefficient of
    variation — natural for heavy-ish-tailed batch-job durations."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    if cv < 0:
        raise ValueError("cv must be non-negative")
    if cv == 0:
        return float(mean)
    sigma2 = np.log(1.0 + cv * cv)
    mu = np.log(mean) - sigma2 / 2.0
    return float(rng.lognormal(mu, np.sqrt(sigma2)))
