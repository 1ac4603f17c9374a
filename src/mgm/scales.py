"""Power-law sampling of integer neighborhood scales.

Scales are the neighborhood sizes handed to the embedding backend. Sampling
follows a power curve from the smallest to the largest scale: exponents above
one concentrate samples near the small end, where embeddings change fastest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidScaleSpecError

__all__ = [
    "ScaleSamplingSpec",
    "ScaleSet",
    "GapSummary",
    "power_samples",
    "sample_scales",
    "describe_density",
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
            raise InvalidScaleSpecError("min_scale and max_scale must be integers")
        if self.min_scale < 2:
            raise InvalidScaleSpecError(
                f"min_scale must be at least 2, got {self.min_scale}"
            )
        if self.max_scale <= self.min_scale:
            raise InvalidScaleSpecError(
                f"max_scale must exceed min_scale, got [{self.min_scale}, {self.max_scale}]"
            )
        if self.count < 2:
            raise InvalidScaleSpecError(f"count must be at least 2, got {self.count}")
        if not 0 < self.power < math.inf:
            raise InvalidScaleSpecError(
                f"power must be positive and finite, got {self.power}"
            )


@dataclass(frozen=True)
class ScaleSet:
    """Strictly increasing integer scales."""

    scales: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.scales) < 1:
            raise InvalidScaleSpecError("a scale set cannot be empty")
        if any(s < 2 for s in self.scales):
            raise InvalidScaleSpecError("every scale must be at least 2")
        if any(b <= a for a, b in zip(self.scales, self.scales[1:])):
            raise InvalidScaleSpecError("scales must be strictly increasing")

    def __len__(self) -> int:
        return len(self.scales)

    def __iter__(self):
        return iter(self.scales)


@dataclass(frozen=True)
class GapSummary:
    """Gap statistics between consecutive scales of a set."""

    min_gap: int
    max_gap: int
    mean_gap: float


def power_samples(spec: ScaleSamplingSpec) -> np.ndarray:
    """The raw (pre-rounding) sampling curve: count values from min_scale to
    max_scale, spaced by t^power for t evenly spread over [0, 1]."""
    t = np.linspace(0.0, 1.0, spec.count)
    return spec.min_scale + (spec.max_scale - spec.min_scale) * t**spec.power


def sample_scales(spec: ScaleSamplingSpec) -> ScaleSet:
    """Sample integer scales along the power curve.

    Raw values are rounded half away from zero, clipped into the admissible
    range, deduplicated, and sorted. Both endpoints always survive.
    """
    raw = power_samples(spec)
    # Half-away-from-zero on positive values; Python's round() would round
    # halves to even instead.
    rounded = np.floor(raw + 0.5).astype(int)
    clipped = np.clip(rounded, spec.min_scale, spec.max_scale)
    unique = tuple(sorted(set(int(v) for v in clipped)))
    return ScaleSet(scales=unique)


def describe_density(scales: ScaleSet) -> GapSummary:
    """Summarize consecutive gaps of a scale set with at least two scales."""
    if len(scales) < 2:
        raise InvalidScaleSpecError("gap statistics need at least two scales")
    gaps = tuple(int(g) for g in np.diff(scales.scales))
    return GapSummary(
        min_gap=min(gaps),
        max_gap=max(gaps),
        mean_gap=float(np.mean(gaps)),
    )
