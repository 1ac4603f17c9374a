import numpy as np
import pytest

from mgm.errors import ConfigError
from mgm.scales import (
    ScaleSamplingSpec,
    power_samples,
    sample_scales,
)


# (spec fields, a pattern for the whole message rejecting them)
_INVALID_SPECS = [
    (
        dict(min_scale=1, max_scale=10, count=5, power=1.0),
        r"scales\.min must be at least 2, got 1",
    ),
    (
        dict(min_scale=5, max_scale=5, count=5, power=1.0),
        r"scales\.max must exceed scales\.min, got \[5, 5\]",
    ),
    (
        dict(min_scale=8, max_scale=5, count=5, power=1.0),
        r"scales\.max must exceed scales\.min, got \[8, 5\]",
    ),
    (
        dict(min_scale=2, max_scale=10, count=1, power=1.0),
        r"scales\.count must be at least 2, got 1",
    ),
    (
        dict(min_scale=2, max_scale=10, count=5, power=0.0),
        r"scales\.power must be positive and finite, got 0\.0",
    ),
    (
        dict(min_scale=2, max_scale=10, count=5, power=-2.0),
        r"scales\.power must be positive and finite, got -2\.0",
    ),
    (
        dict(min_scale=2, max_scale=10, count=5, power=float("nan")),
        r"scales\.power must be positive and finite, got nan",
    ),
    (
        dict(min_scale=2, max_scale=10, count=5, power=float("inf")),
        r"scales\.power must be positive and finite, got inf",
    ),
    (
        dict(min_scale=2.0, max_scale=10, count=5, power=1.0),
        r"scales\.min and scales\.max must be integers",
    ),
]


class TestSpecValidation:
    def test_valid_spec(self):
        spec = ScaleSamplingSpec(min_scale=2, max_scale=10, count=5, power=1.0)
        assert spec.count == 5

    @pytest.mark.parametrize(
        "kwargs, message",
        _INVALID_SPECS,
        ids=[f"kwargs{i}" for i in range(len(_INVALID_SPECS))],
    )
    def test_invalid_specs_raise(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ScaleSamplingSpec(**kwargs)


class TestPowerSamples:
    def test_linear_curve(self):
        raw = power_samples(ScaleSamplingSpec(2, 10, 5, 1.0))
        assert np.allclose(raw, [2.0, 4.0, 6.0, 8.0, 10.0])

    def test_curve_endpoints_are_exact(self):
        spec = ScaleSamplingSpec(3, 47, 9, 2.7)
        raw = power_samples(spec)
        assert raw[0] == 3.0
        assert raw[-1] == 47.0
        assert len(raw) == 9

    def test_curve_is_nondecreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lo = int(rng.integers(2, 20))
            hi = lo + int(rng.integers(1, 100))
            spec = ScaleSamplingSpec(lo, hi, int(rng.integers(2, 30)), float(rng.uniform(0.2, 4.0)))
            raw = power_samples(spec)
            assert np.all(np.diff(raw) >= 0)

    def test_power_above_one_bunches_toward_min(self):
        linear = power_samples(ScaleSamplingSpec(2, 100, 9, 1.0))
        convex = power_samples(ScaleSamplingSpec(2, 100, 9, 2.0))
        # interior points sit below the linear curve
        assert np.all(convex[1:-1] < linear[1:-1])


class TestSampleScales:
    def test_linear_exact(self):
        result = sample_scales(ScaleSamplingSpec(2, 10, 5, 1.0))
        assert result == (2, 4, 6, 8, 10)

    def test_large_quadratic_set(self):
        spec = ScaleSamplingSpec(5, 100, 25, 2.0)
        result = sample_scales(spec)
        scales = result
        assert len(scales) == 23
        assert scales[0] == 5
        assert scales[-1] == 100
        for wanted in (5, 29, 100):
            assert wanted in scales

    @pytest.mark.parametrize(
        "spec,expected_len",
        [
            (ScaleSamplingSpec(5, 20, 11, 1.6), 10),
            (ScaleSamplingSpec(5, 50, 20, 1.6), 19),
            (ScaleSamplingSpec(5, 15, 9, 1.6), 8),
        ],
    )
    def test_preset_lengths(self, spec, expected_len):
        assert len(sample_scales(spec)) == expected_len

    def test_rounding_is_half_away_from_zero(self):
        # midpoint values 2.5 and 3.5 both round up, unlike banker's rounding
        result = sample_scales(ScaleSamplingSpec(2, 5, 4, 1.0))
        assert result == (2, 3, 4, 5)

    def test_endpoints_always_present(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            lo = int(rng.integers(2, 30))
            hi = lo + int(rng.integers(1, 200))
            spec = ScaleSamplingSpec(
                lo, hi, int(rng.integers(2, 40)), float(rng.uniform(0.2, 4.0))
            )
            scales = sample_scales(spec)
            assert scales[0] == lo
            assert scales[-1] == hi

    def test_strictly_increasing_and_within_bounds(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            lo = int(rng.integers(2, 15))
            hi = lo + int(rng.integers(1, 60))
            spec = ScaleSamplingSpec(
                lo, hi, int(rng.integers(2, 30)), float(rng.uniform(0.3, 3.0))
            )
            scales = np.array(sample_scales(spec))
            assert np.all(np.diff(scales) > 0)
            assert scales.min() >= lo
            assert scales.max() <= hi

    def test_count_never_exceeded(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            count = int(rng.integers(2, 30))
            lo = int(rng.integers(2, 10))
            hi = lo + int(rng.integers(1, 25))
            spec = ScaleSamplingSpec(lo, hi, count, float(rng.uniform(0.5, 3.0)))
            assert len(sample_scales(spec)) <= count

    def test_duplicates_collapse(self):
        # narrow range with many requested points forces collisions
        scales = sample_scales(ScaleSamplingSpec(2, 4, 20, 1.0))
        assert scales == (2, 3, 4)
        # quadratic curve start is flat enough that only the second point
        # collides with the first
        scales = sample_scales(ScaleSamplingSpec(5, 49, 13, 2.0))
        assert scales == (5, 6, 8, 10, 13, 16, 20, 25, 30, 36, 42, 49)
        assert len(scales) == 12
