"""Power-law sampling of integer neighborhood scales.

Scales are the neighborhood sizes handed to the embedding backend. Sampling
follows a power curve from the smallest to the largest scale: exponents above
one concentrate samples near the small end, where embeddings change fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "ScaleSamplingSpec",
    "power_samples",
    "sample_scales",
]


@dataclass(frozen=True)
class ScaleSamplingSpec:
    """Parameters of the sampling curve: range [min_scale, max_scale], the
    number of samples before deduplication, and the power-curve exponent."""

    min_scale: int
    max_scale: int
    count: int
    power: float

    def __post_init__(self) -> None:
        if not isinstance(self.min_scale, int) or not isinstance(self.max_scale, int):
            raise ConfigError("scales.min and scales.max must be integers")
        if self.min_scale < 2:
            raise ConfigError(f"scales.min must be at least 2, got {self.min_scale}")
        if self.max_scale <= self.min_scale:
            raise ConfigError(
                f"scales.max must exceed scales.min, got [{self.min_scale}, {self.max_scale}]"
            )
        if self.count < 2:
            raise ConfigError(f"scales.count must be at least 2, got {self.count}")
        if not 0 < self.power < math.inf:
            raise ConfigError(f"scales.power must be positive and finite, got {self.power}")


def power_samples(spec: ScaleSamplingSpec) -> np.ndarray:
    """The raw (pre-rounding) sampling curve: count values from min_scale to
    max_scale, spaced by t^power for t evenly spread over [0, 1]."""
    t = np.linspace(0.0, 1.0, spec.count)
    return spec.min_scale + (spec.max_scale - spec.min_scale) * t**spec.power


def sample_scales(spec: ScaleSamplingSpec) -> tuple[int, ...]:
    """Sample integer scales along the power curve, strictly increasing.

    Raw values are rounded half away from zero, clipped into the admissible
    range, deduplicated, and sorted. Both endpoints always survive.
    """
    raw = power_samples(spec)
    # Half-away-from-zero on positive values; Python's round() would round
    # halves to even instead.
    rounded = np.floor(raw + 0.5).astype(int)
    clipped = np.clip(rounded, spec.min_scale, spec.max_scale)
    return tuple(sorted(set(int(v) for v in clipped)))
