import functools
import importlib
import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from mgm.errors import NumericalError
from mgm.config import load_config
from mgm.data import preprocess
from mgm.grassmann import (
    _CHORDAL_SQ_GUARD,
    _COSINE_GUARD,
    _ordered_bases,
    GrassmannMetric,
    distance,
    distance_from_angles,
    orthonormalize,
    principal_angles,
)
from mgm import pipeline
from mgm.pipeline import (
    _subspace_ranks,
    _tiled_distances,
    build_subspaces,
    distance_matrix,
    run_mgm,
)

from conftest import random_subspace, span
from oracles import (
    chordal_by_matmul,
    gram_schmidt_basis,
    ordered_bases_by_bytes,
    principal_angles_by_matmul,
    principal_angles_deflation,
    principal_angles_sine,
)

ALL_METRICS = list(GrassmannMetric)


def projector(s: np.ndarray) -> np.ndarray:
    return s @ s.T


def per_pair_calls(x, y):
    """principal_angles and distance under every metric, each on (x, y) and
    on (y, x), as calls that take no argument."""
    calls = []
    for a, b in ((x, y), (y, x)):
        calls.append(functools.partial(principal_angles, a, b))
        calls += [functools.partial(distance, a, b, metric) for metric in ALL_METRICS]
    return calls


class TestSubspaceTypes:
    """A subspace is its n x r orthonormal basis array, checked where
    principal_angles and distance take it."""

    def test_subspace_accepts_orthonormal_basis(self, rng):
        x, y = random_subspace(rng, 6, 3), random_subspace(rng, 6, 2)
        assert type(x) is np.ndarray and x.shape == (6, 3)
        assert principal_angles(x, y).shape == principal_angles(y, x).shape == (2,)
        for metric in ALL_METRICS:
            assert distance(x, y, metric) == distance(y, x, metric) > 0.0

    def test_subspace_rejects_non_orthonormal(self, rng):
        # An all-NaN basis fails the check as well: its defect is NaN, which
        # is not <= the tolerance.
        for bad in (np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]), np.full((3, 2), np.nan)):
            for call in per_pair_calls(random_subspace(rng, 3, 2), bad):
                with pytest.raises(ValueError, match="basis columns are not orthonormal"):
                    call()

    def test_subspace_rejects_an_infinite_basis_without_a_warning(self, rng):
        # inf * 0 in q.T @ q would warn, an error under the RuntimeWarning
        # filter, before the check could raise.
        bad = np.array([[1.0, 0.0], [0.0, np.inf], [0.0, 0.0]])
        for call in per_pair_calls(random_subspace(rng, 3, 2), bad):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="basis columns are not orthonormal"):
                    call()

    def test_subspace_rejects_rank_above_ambient(self):
        # and any shape other than n x r with 1 <= r <= n: 1-d, 3-d, rank 0
        for bad in (np.ones((2, 3)), np.eye(3)[0], np.ones((1, 2, 2)), np.zeros((3, 0))):
            for call in per_pair_calls(np.eye(3)[:, :1], bad):
                with pytest.raises(ValueError, match="need an n x r basis with 1 <= r <= n"):
                    call()

    def test_strided_views_give_the_bits_of_their_copies(self, rng):
        # distance_matrix hands a rank-reduced cell over as a strided view,
        # bases[k, :, :r] of the read-only basis array. BLAS rounds a
        # strided operand differently, so the per-pair functions copy it; a
        # contiguous basis is taken as given.
        for _ in range(50):
            p = int(rng.integers(3, 8))
            ranks = rng.integers(1, p, 2)
            bases = np.stack([random_subspace(rng, 12, p) for _ in range(2)])
            bases.setflags(write=False)
            x, y = bases[0, :, : ranks[0]], bases[1, :, : ranks[1]]
            assert not (x.flags.c_contiguous or x.flags.writeable)
            want = [call() for call in per_pair_calls(x.copy(), y.copy())]
            for got, value in zip(per_pair_calls(x, y), want):
                assert np.float64(got()).tobytes() == np.float64(value).tobytes()
        x, y = random_subspace(rng, 6, 3), random_subspace(rng, 6, 2)
        got = _ordered_bases(y, x)
        assert got[0] is x and got[1] is y

    def test_projector_roundtrip(self, rng):
        for _ in range(20):
            s = random_subspace(rng, 7, 3)
            p = projector(s)
            back = span(p)
            assert back.shape[1] == 3
            # same span: projectors agree
            assert np.linalg.norm(projector(back) - p) < 1e-10

    def test_principal_angles_type_validation(self, rng):
        x, y = random_subspace(rng, 6, 2), random_subspace(rng, 6, 3)
        assert type(principal_angles(x, y)) is np.ndarray
        # distance_from_angles checks the angles it is given, NaN included
        for bad in ([-0.2], [2.0], [np.nan, 0.1], [[0.1, np.nan]], np.full((2, 2, 2), 0.1), []):
            with pytest.raises(ValueError):
                distance_from_angles(np.array(bad), GrassmannMetric.GEODESIC)
        # the metric must be a member, not its name
        with pytest.raises(ValueError, match="unhandled metric 'geodesic'"):
            distance_from_angles(np.array([0.1]), "geodesic")
        # within 1e-12 of the range, angles are clipped into it
        assert distance_from_angles(np.array([-1e-13]), GrassmannMetric.GEODESIC) == 0.0
        at_right = distance_from_angles(np.array([math.pi / 2 + 1e-13]), GrassmannMetric.CHORDAL)
        assert at_right == 1.0
        batch = distance_from_angles(np.array([[0.0, 0.2], [0.1, 0.3]]), GrassmannMetric.CHORDAL)
        assert batch.shape == (2,)


class TestOrthonormalize:
    def test_matches_gram_schmidt_span(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, n + 1))
            a = rng.standard_normal((n, r))
            sub = span(a)
            gs = gram_schmidt_basis(a)
            assert sub.shape[1] == gs.shape[1]
            p_sub = sub @ sub.T
            p_gs = gs @ gs.T
            assert np.linalg.norm(p_sub - p_gs) < 1e-8

    def test_duplicate_columns_reduce_rank(self):
        col = np.array([[1.0], [2.0], [3.0]])
        sub = span(np.hstack([col, col, 2.0 * col]))
        assert sub.shape[1] == 1

    def test_dependent_column_dropped(self):
        # e1, e2, e1+e2 in R^4 span a plane
        z = np.array(
            [
                [1.0, 0.0, 1.0],
                [0.0, 1.0, 1.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        sub = span(z)
        assert sub.shape[1] == 2
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = 1.0
        assert np.linalg.norm(projector(sub) - expected) < 1e-12

    def test_all_zero_columns_raise(self):
        with pytest.raises(NumericalError, match="columns are numerically zero"):
            span(np.zeros((4, 2)))

    @pytest.mark.parametrize(
        "columns, message",
        [
            (np.ones((4, 2)), r"expected a nonempty 3-d array, got shape \(4, 2\)"),
            (np.full((1, 4, 2), np.inf), "input contains non-finite values"),
        ],
    )
    def test_bad_input_is_refused(self, columns, message):
        with pytest.raises(ValueError, match=message):
            orthonormalize(columns)

    def test_scaling_does_not_change_span(self, rng):
        a = rng.standard_normal((6, 3))
        p1 = projector(span(a))
        p2 = projector(span(a * np.array([1e-3, 1.0, 1e3])))
        assert np.linalg.norm(p1 - p2) < 1e-9


class TestPrincipalAngles:
    def test_identical_subspaces_give_zero_angles(self, rng):
        for _ in range(20):
            s = random_subspace(rng, 8, 3)
            theta = principal_angles(s, s)
            assert theta.max() < 1e-12

    def test_orthogonal_subspaces_give_right_angles(self):
        x = np.eye(6)[:, :2]
        y = np.eye(6)[:, 3:5]
        theta = principal_angles(x, y)
        assert np.allclose(theta, math.pi / 2)

    def test_count_is_min_of_ranks(self, rng):
        x = random_subspace(rng, 9, 4)
        y = random_subspace(rng, 9, 2)
        assert len(principal_angles(x, y)) == 2
        assert len(principal_angles(y, x)) == 2

    def test_swap_symmetry(self, rng):
        for _ in range(10):
            x = random_subspace(rng, 7, 3)
            y = random_subspace(rng, 7, 3)
            a = principal_angles(x, y)
            b = principal_angles(y, x)
            assert np.allclose(a, b, atol=1e-12)

    def test_known_rotation_angle(self):
        # rotate span{e1} by alpha inside the (e1, e2) plane
        for alpha in (0.0, 0.3, 1.0, math.pi / 2):
            x = np.eye(4)[:, :1]
            c, s = math.cos(alpha), math.sin(alpha)
            y = np.array([[c], [s], [0.0], [0.0]])
            theta = principal_angles(x, y)
            assert abs(theta[0] - min(alpha, math.pi - alpha)) < 1e-12

    def test_plane_sharing_a_line(self):
        # both planes contain e1, second tilted by 0.7 rad in the other direction
        x = np.eye(5)[:, :2]
        c, s = math.cos(0.7), math.sin(0.7)
        y = np.array(
            [
                [1.0, 0.0],
                [0.0, c],
                [0.0, 0.0],
                [0.0, s],
                [0.0, 0.0],
            ]
        )
        theta = principal_angles(x, y)
        assert abs(theta[0]) < 1e-12
        assert abs(theta[1] - 0.7) < 1e-12

    def test_matches_deflation_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            rx = int(rng.integers(1, min(n, 3) + 1))
            ry = int(rng.integers(1, min(n, 3) + 1))
            x = random_subspace(rng, n, rx)
            y = random_subspace(rng, n, ry)
            got = principal_angles(x, y)
            want = principal_angles_deflation(x, y)
            assert np.max(np.abs(got - want)) < 1e-7

    def test_tiny_angles_resolved_below_arccos_floor(self):
        # a perturbation of 1e-10 must not be rounded to an angle of zero
        eps = 1e-10
        x = np.eye(5)[:, :2]
        tilted = np.eye(5)[:, :2].copy()
        tilted[4, 0] = eps
        y = span(tilted)
        theta = principal_angles(x, y)
        assert abs(theta[-1] - eps) < 1e-12 * max(1.0, eps)

    def test_ambient_mismatch_raises(self, rng):
        x = random_subspace(rng, 5, 2)
        y = random_subspace(rng, 6, 2)
        with pytest.raises(NumericalError, match="ambient dims differ: 5 vs 6"):
            principal_angles(x, y)
        for call in per_pair_calls(x, y):  # distance too, in either order
            with pytest.raises(NumericalError, match="ambient dims differ: [56] vs [56]"):
                call()


class TestMetricValues:
    def test_chordal_fixture(self):
        theta = np.array([math.pi / 6, math.pi / 4])
        # sqrt(sin^2(30deg) + sin^2(45deg)) = sqrt(3)/2
        got = distance_from_angles(theta, GrassmannMetric.CHORDAL)
        assert abs(got - 0.8660254037844386) < 1e-12

    def test_geodesic_fixture(self):
        theta = np.array([math.pi / 6, math.pi / 4])
        got = distance_from_angles(theta, GrassmannMetric.GEODESIC)
        assert abs(got - 0.9439311165949147) < 1e-12

    def test_fubini_study_fixture(self):
        theta = np.array([math.pi / 6, math.pi / 4])
        # arccos(cos(30deg) * cos(45deg)) = arccos(sqrt(6)/4)
        got = distance_from_angles(theta, GrassmannMetric.FUBINI_STUDY)
        assert abs(got - 0.9117382909684876) < 1e-12

    def test_martin_fixture(self):
        # at pi/3 the cosine is 1/2, so the sum is log 4
        got = distance_from_angles(np.array([math.pi / 3]), GrassmannMetric.MARTIN)
        assert abs(got - math.sqrt(math.log(4.0))) < 1e-12

    def test_procrustes_fixture(self):
        got = distance_from_angles(np.array([math.pi / 2]), GrassmannMetric.PROCRUSTES)
        assert abs(got - math.sqrt(2.0)) < 1e-12

    def test_martin_diverges_at_right_angle(self):
        with pytest.raises(NumericalError, match="the Martin metric diverges"):
            distance_from_angles(np.array([math.pi / 2]), GrassmannMetric.MARTIN)
        with pytest.raises(NumericalError, match="the Martin metric diverges"):
            distance_from_angles(
                np.array([math.pi / 2 - 5e-10]), GrassmannMetric.MARTIN
            )

    def test_fubini_study_right_angle_is_half_pi(self):
        got = distance_from_angles(
            np.array([math.pi / 2, math.pi / 2]), GrassmannMetric.FUBINI_STUDY
        )
        assert abs(got - math.pi / 2) < 1e-12

    def test_zero_angles_give_zero_distance(self):
        theta = np.zeros(3)
        for metric in ALL_METRICS:
            assert distance_from_angles(theta, metric) == 0.0

    def test_identical_subspaces_give_positive_zero(self):
        # Martin's sqrt(-2 * 0.0) alone would be -0.0.
        x = np.eye(4)[:, :2]
        for metric in ALL_METRICS:
            assert bits(distance(x, x, metric)) == bits(0.0), metric
        batch = distance_from_angles(np.zeros((2, 3)), GrassmannMetric.MARTIN)
        assert batch.tobytes() == np.zeros(2).tobytes()

    def test_batch_rows_match_vectors_and_ignore_leading_zeros(self, rng):
        rows = [np.sort(rng.uniform(0.0, 1.5, 3)) for _ in range(5)]
        for pad in ((2, 0), (0, 2)):  # leading, then trailing zeros
            batch = np.array([np.pad(row, pad) for row in rows])
            for metric in ALL_METRICS:
                got = distance_from_angles(batch, metric)
                assert got.shape == (5,)
                for value, row in zip(got, rows):
                    want = distance_from_angles(row, metric)
                    assert abs(value - want) <= 1e-15 * max(1.0, want)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_angle_order_does_not_matter(self, rng, metric):
        # Every metric is a symmetric function of the angles. Summed or
        # multiplied in another order, k terms round differently by up to
        # (k - 1) eps relative; 2 ulps were seen at k = 7. Fubini-study's
        # arccos turns a change dp of the product p into dp / sqrt(1 - p^2).
        k = 7
        up = np.sort(rng.uniform(0.0, 1.5, (200, k)), axis=-1)
        want = distance_from_angles(up, metric)
        got = distance_from_angles(up[:, ::-1], metric)
        scale = want
        if metric is GrassmannMetric.FUBINI_STUDY:
            p = np.prod(np.cos(up), axis=-1)
            scale = np.maximum(want, p / np.sqrt(1.0 - p**2))
        assert np.all(np.abs(got - want) <= (k - 1) * np.finfo(float).eps * scale)


class TestMetricAxioms:
    def test_symmetry_and_identity(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 9))
            r = int(rng.integers(1, 4))
            x = random_subspace(rng, n, r)
            y = random_subspace(rng, n, r)
            for metric in ALL_METRICS:
                try:
                    dxy = distance(x, y, metric)
                    dyx = distance(y, x, metric)
                except NumericalError:
                    continue
                assert abs(dxy - dyx) < 1e-9
                assert distance(x, x, metric) < 1e-9
                assert dxy >= 0.0

    def test_triangle_inequality(self, rng):
        metrics = (
            GrassmannMetric.GEODESIC,
            GrassmannMetric.CHORDAL,
            GrassmannMetric.PROCRUSTES,
        )
        for _ in range(40):
            x = random_subspace(rng, 8, 3)
            y = random_subspace(rng, 8, 3)
            z = random_subspace(rng, 8, 3)
            for metric in metrics:
                dxy = distance(x, y, metric)
                dxz = distance(x, z, metric)
                dzy = distance(z, y, metric)
                assert dxy <= dxz + dzy + 1e-9

    def test_chordal_below_geodesic(self, rng):
        for _ in range(40):
            x = random_subspace(rng, 8, 3)
            y = random_subspace(rng, 8, 3)
            assert distance(x, y, GrassmannMetric.CHORDAL) <= distance(
                x, y, GrassmannMetric.GEODESIC
            ) + 1e-12

    def test_distance_consistent_with_angle_form(self, rng):
        for _ in range(20):
            x = random_subspace(rng, 7, 2)
            y = random_subspace(rng, 7, 3)
            theta = principal_angles(x, y)
            for metric in ALL_METRICS:
                got = distance(x, y, metric)
                want = distance_from_angles(theta, metric)
                if metric is GrassmannMetric.CHORDAL:
                    # chordal takes the residual route, not the angles
                    assert abs(got - want) <= 1e-12 + 1e-9 * want
                else:
                    assert got == want



def pair_with_angles(rng, n, rx, ry, angles):
    """Subspaces of R^n of ranks rx and ry whose principal angles are the
    given min(rx, ry) values, turned by one random rotation of R^n and with
    each basis mixed by its own random orthogonal factor."""
    k = len(angles)
    assert k == min(rx, ry) and n >= rx + ry
    ex = np.eye(n)[:, :rx]
    ey = np.zeros((n, ry))
    for i, theta in enumerate(angles):
        ey[i, i] = math.cos(theta)
        ey[rx + i, i] = math.sin(theta)
    for j in range(k, ry):
        ey[rx + j, j] = 1.0
    turn = np.linalg.qr(rng.standard_normal((n, n)))[0]

    def mixed(e):
        return turn @ e @ np.linalg.qr(rng.standard_normal(e.shape[1:] * 2))[0]

    return mixed(ex), mixed(ey)


def assert_matches_sine_oracle(x, y):
    want_angles = principal_angles_sine(x, y)
    for metric in ALL_METRICS:
        try:
            want = distance_from_angles(want_angles, metric)
        except NumericalError:
            with pytest.raises(NumericalError, match="the Martin metric diverges"):
                distance(x, y, metric)
            continue
        got = distance(x, y, metric)
        assert abs(got - want) <= 1e-12 + 1e-9 * abs(want), (metric, got, want)


def svd_calls(x, y, metric=None):
    """How many times principal_angles(x, y) calls np.linalg.svd, or
    distance(x, y, metric) when a metric is given."""
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", spy)
        if metric is None:
            principal_angles(x, y)
        else:
            distance(x, y, metric)
    return len(calls)


class TestCancellationGuard:
    def test_random_pairs_with_mixed_ranks(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 16))
            rx = int(rng.integers(1, n + 1))
            ry = int(rng.integers(1, n + 1))
            assert_matches_sine_oracle(
                random_subspace(rng, n, rx), random_subspace(rng, n, ry)
            )

    def test_prescribed_angles_with_mixed_ranks(self, rng):
        for rx, ry in ((3, 3), (2, 5), (5, 2), (1, 4), (6, 6)):
            k = min(rx, ry)
            angles = np.sort(rng.uniform(0.05, 1.5, k))
            assert_matches_sine_oracle(*pair_with_angles(rng, 14, rx, ry, angles))

    def test_identical_and_replicate_subspaces(self, rng):
        for r in (1, 3, 8):
            x = random_subspace(rng, 12, r)
            assert_matches_sine_oracle(x, x)
            # the same span held in another basis, as for replicate cells
            turn = np.linalg.qr(rng.standard_normal((r, r)))[0]
            assert_matches_sine_oracle(x, x @ turn)
            assert_matches_sine_oracle(x, span(x + 1e-14))

    @pytest.mark.parametrize("tiny", [1e-10, 1e-6])
    def test_one_tiny_angle_among_large_ones(self, rng, tiny):
        for rx, ry in ((3, 3), (3, 5)):
            x, y = pair_with_angles(rng, 10, rx, ry, [tiny, 0.6, 1.2])
            assert_matches_sine_oracle(x, y)
            assert principal_angles(x, y)[0] == pytest.approx(tiny, rel=1e-5)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_either_side_of_the_chordal_guard(self, rng, side):
        # three equal angles with sum(sin^2) just below or above the guard
        sq = _CHORDAL_SQ_GUARD * (1.0 + side * 1e-3)
        theta = math.asin(math.sqrt(sq / 3.0))
        x, y = pair_with_angles(rng, 9, 3, 4, [theta] * 3)
        assert_matches_sine_oracle(x, y)
        assert svd_calls(x, y) == (2 if side < 0 else 1)

    def test_rank_23_pairs_below_the_chordal_guard(self, rng):
        # Off the sine path a distance errs by about r * eps / d_chordal; at
        # the setup1 rank of 23 that breaks the tolerance near d^2 = 3e-6,
        # which is why the guard sits at 1e-4 and not lower.
        for sq in (3e-6, 1e-5):
            for _ in range(20):
                angles = np.sort(rng.uniform(0.2, 1.0, 23))
                angles *= math.sqrt(sq / np.sum(np.sin(angles) ** 2))
                assert_matches_sine_oracle(*pair_with_angles(rng, 50, 23, 23, angles))

    @pytest.mark.parametrize("side", [-1, 1])
    def test_either_side_of_the_cosine_guard(self, rng, side):
        # the largest cosine just below or above 1 - 1e-8, the others small
        theta = math.acos(1.0 - _COSINE_GUARD * (1.0 - side * 1e-3))
        x, y = pair_with_angles(rng, 8, 3, 3, [theta, 0.7, 1.3])
        assert_matches_sine_oracle(x, y)
        assert svd_calls(x, y) == (2 if side > 0 else 1)

    def test_near_right_angles(self, rng):
        x, y = pair_with_angles(rng, 8, 2, 3, [0.4, math.pi / 2 - 1e-12])
        assert_matches_sine_oracle(x, y)
        z = random_subspace(rng, 8, 2)
        cells = cells_of([z, x, y])
        with pytest.raises(NumericalError, match=r"pair \(1, 2\)"):
            distance_matrix(cells, GrassmannMetric.MARTIN)

    def test_bit_identical_under_swap(self, rng):
        pairs = [(random_subspace(rng, 9, 3), random_subspace(rng, 9, 3))]
        pairs.append(pair_with_angles(rng, 9, 3, 3, [1e-9, 0.2, 0.9]))
        pairs.append(pair_with_angles(rng, 9, 2, 4, [0.3, 1.0]))
        x = random_subspace(rng, 9, 4)
        pairs.append((x, x[:, ::-1]))
        for x, y in pairs:
            assert np.array_equal(
                principal_angles(x, y), principal_angles(y, x)
            )
            assert distance(x, y, GrassmannMetric.CHORDAL) == distance(
                y, x, GrassmannMetric.CHORDAL
            )

    def test_one_svd_per_pair_unless_guarded(self, rng):
        x, y = pair_with_angles(rng, 10, 4, 4, [0.2, 0.5, 0.9, 1.4])
        assert svd_calls(x, y) == 1
        assert svd_calls(x, x) == 2
        x, y = pair_with_angles(rng, 10, 4, 4, [1e-7, 0.5, 0.9, 1.4])
        assert svd_calls(x, y) == 2


def pair_with_chordal_sq(rng, n, r, sq):
    """Rank-r subspaces of R^n whose squared chordal distance is sq, spread
    unevenly over r angles."""
    sines = rng.uniform(0.2, 1.0, r)
    sines *= math.sqrt(sq / (sines @ sines))
    return pair_with_angles(rng, n, r, r, np.sort(np.arcsin(sines)))


class TestChordalResidual:
    def test_no_svd(self, rng):
        for x, y in (
            pair_with_angles(rng, 10, 4, 4, [0.2, 0.5, 0.9, 1.4]),
            pair_with_angles(rng, 10, 2, 5, [1e-9, 0.7]),
        ):
            assert svd_calls(x, y, GrassmannMetric.CHORDAL) == 0
            assert svd_calls(x, x, GrassmannMetric.CHORDAL) == 0

    @pytest.mark.parametrize(
        "sq", [1e-28, 3e-6, _CHORDAL_SQ_GUARD * 0.999, _CHORDAL_SQ_GUARD * 1.001, 1.0]
    )
    def test_rank_23_pairs_match_the_sine_oracle(self, rng, sq):
        # the setup1 shape, from replicate-cell distances up to large ones
        for _ in range(10):
            x, y = pair_with_chordal_sq(rng, 100, 23, sq)
            want = distance_from_angles(
                principal_angles_sine(x, y), GrassmannMetric.CHORDAL
            )
            got = distance(x, y, GrassmannMetric.CHORDAL)
            assert abs(got - want) <= 1e-12 + 1e-9 * want, (got, want)
            assert got == pytest.approx(math.sqrt(sq), rel=1e-6, abs=1e-12)

    def test_distance_matrix_on_replicate_cells(self, rng):
        base = [random_subspace(rng, 12, 3) for _ in range(3)]
        turn = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        points = base + [
            base[0] @ turn,
            span(base[1] + 1e-14),
        ]
        cells = cells_of(points)
        got, _ = distance_matrix(cells, GrassmannMetric.CHORDAL)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)
        for i, j in zip(*np.triu_indices(len(points), 1)):
            want = distance_from_angles(
                principal_angles_sine(points[i], points[j]),
                GrassmannMetric.CHORDAL,
            )
            assert abs(got[i, j] - want) <= 1e-12 + 1e-9 * want, (i, j)
        assert got[0, 3] < 1e-13 and got[1, 4] < 1e-13


def chordal_products(x, y):
    """How many np.dot products distance(x, y, CHORDAL) takes: 1 for the
    cross Gram alone, 2 when the pair falls back to the residual."""
    calls = []
    dot = np.dot

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return dot(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "dot", spy)
        distance(x, y, GrassmannMetric.CHORDAL)
    return len(calls)


class TestChordalGramGuard:
    """Chordal takes d^2 = min(rx, ry) - ||Qx^T Qy||_F^2 from the cross Gram,
    and the residual's norm below _CHORDAL_SQ_GUARD."""

    @pytest.mark.parametrize("side", [-1, 1])
    @pytest.mark.parametrize("rx, ry", [(3, 3), (3, 4), (4, 3), (2, 6), (1, 5)])
    def test_either_side_of_the_guard_with_mixed_ranks(self, rng, side, rx, ry):
        k = min(rx, ry)
        sq = _CHORDAL_SQ_GUARD * (1.0 + side * 1e-3)
        for _ in range(5):
            x, y = pair_with_angles(rng, 12, rx, ry, [math.asin(math.sqrt(sq / k))] * k)
            want = chordal_by_matmul(x, y)
            assert (want**2 < _CHORDAL_SQ_GUARD) == (side < 0)
            for a, b in ((x, y), (y, x)):
                assert chordal_products(a, b) == (2 if side < 0 else 1)
                assert_chordal_matches_matmul(distance(a, b, GrassmannMetric.CHORDAL), want)
            assert distance(x, y, GrassmannMetric.CHORDAL) == pytest.approx(
                math.sqrt(sq), rel=1e-9
            )

    def test_negative_gram_difference_takes_the_residual(self, rng):
        # For a subspace against itself or a replicate, ||Q^T Q||_F^2 can
        # round above r, so the Gram difference is below 0; the residual
        # still gives a tiny nonnegative distance, with the oracle's bits.
        negative = 0
        for r in (1, 3, 10, 23):
            for _ in range(20):
                x = random_subspace(rng, max(2 * r, 20), r)
                turn = np.linalg.qr(rng.standard_normal((r, r)))[0]
                for y in (x, x @ turn):
                    qx, qy = _ordered_bases(x, y)
                    g = np.dot(qx.T, qy)
                    negative += r - np.vdot(g, g) < 0
                    got = distance(x, y, GrassmannMetric.CHORDAL)
                    assert bits(got) == bits(chordal_by_matmul(x, y))
                    assert 0.0 <= got < 1e-13
        assert negative > 0

    def test_block_bits_do_not_depend_on_the_pair_order(self, rng):
        # Mixed ranks 1 to 5 in R^12, and a replicate cell (2, 12): a pair
        # has the same bits in either order, in any row block, and after
        # the cells are reversed.
        points = [random_subspace(rng, 12, 1 + k % 5) for k in range(12)]
        turn = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        points.append(points[2] @ turn)
        ranks = np.array([q.shape[1] for q in points])
        m = len(points)
        upper = np.triu_indices(12, 1)
        features = np.array(
            [np.r_[np.diag(q), math.sqrt(2.0) * q[upper]] for q in map(projector, points)]
        )
        full = pipeline._chordal_sq(features, ranks, 0, m)
        assert full.tobytes() == full.T.tobytes()
        for lo in range(0, m, 5):
            block = pipeline._chordal_sq(features, ranks, lo, lo + 5)
            assert block.tobytes() == full[lo : lo + 5, lo:].tobytes()
        back = pipeline._chordal_sq(features[::-1].copy(), ranks[::-1], 0, m)
        assert back.tobytes() == full[::-1, ::-1].tobytes()
        i, j = np.triu_indices(m, 1)
        below = full[i, j] < _CHORDAL_SQ_GUARD
        assert list(zip(i[below].tolist(), j[below].tolist())) == [(2, 12)]
        for p in np.flatnonzero(~below):
            want = distance(points[i[p]], points[j[p]], GrassmannMetric.CHORDAL)
            got = math.sqrt(full[i[p], j[p]])
            assert abs(got - want) <= 1e-12 + 1e-9 * want

    def test_permuted_samples_permute_the_matrix_bit_for_bit(self, rng):
        # 21 samples of ranks 2 to 5 in R^9, not a multiple of the tile, a
        # replicate cell and an exact duplicate among them. A permutation
        # moves pairs between tiles and swaps their order; pairs of rank
        # 5 + 5 > 9 and the two copies take the per-pair path.
        points = [random_subspace(rng, 9, 2 + k % 4) for k in range(21)]
        turn = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        points[19] = points[3] @ turn
        points[20] = points[8].copy()
        base, base_guarded = distance_matrix(cells_of(points), GrassmannMetric.CHORDAL)
        fives = sum(p.shape[1] == 5 for p in points)
        assert base_guarded == fives * (fives - 1) // 2 + 1
        assert max(base[3, 19], base[8, 20]) < 1e-13
        for _ in range(3):
            perm = rng.permutation(len(points))
            permuted = cells_of([points[k] for k in perm])
            got, guarded = distance_matrix(permuted, GrassmannMetric.CHORDAL)
            assert got.tobytes() == base[np.ix_(perm, perm)].tobytes()
            assert guarded == base_guarded


ANGLE_METRICS = [m for m in GrassmannMetric if m is not GrassmannMetric.CHORDAL]


def bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_chordal_matches_matmul(got, want):
    """A chordal distance against the @-operator residual: bit for bit below
    the cancellation guard, where distance takes that residual too, and
    within 1e-12 + 1e-9 * d above it, where it takes the cross Gram."""
    if want**2 < _CHORDAL_SQ_GUARD:
        assert bits(got) == bits(want), (got, want)
    else:
        assert abs(got - want) <= 1e-12 + 1e-9 * want, (got, want)


def assert_bits_match_matmul(x, y):
    """principal_angles and distance under every angle metric, in both
    argument orders, equal the @-operator path bit for bit; chordal matches
    it as assert_chordal_matches_matmul states."""
    for a, b in ((x, y), (y, x)):
        assert_chordal_matches_matmul(
            distance(a, b, GrassmannMetric.CHORDAL), chordal_by_matmul(a, b)
        )
        angles = principal_angles_by_matmul(a, b)
        assert principal_angles(a, b).tobytes() == angles.tobytes()
        for metric in ANGLE_METRICS:
            try:
                want = distance_from_angles(angles, metric)
            except NumericalError:
                with pytest.raises(NumericalError, match="the Martin metric diverges"):
                    distance(a, b, metric)
                continue
            assert bits(distance(a, b, metric)) == bits(want), metric


class TestPerPairKernelsMatchTheMatmulPath:
    """The per-pair kernels call np.dot where they first used @, and order
    bases by their raw bytes. The angle kernels keep every bit; chordal
    keeps them below the cancellation guard."""

    def test_random_mixed_rank_pairs(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 30))
            rx, ry = (int(r) for r in rng.integers(1, n + 1, 2))
            x = random_subspace(rng, n, rx)
            if rng.random() < 0.5:
                y = random_subspace(rng, n, ry)
            else:  # near x: small angles, past the cancellation guard
                noise = rng.choice([1e-14, 1e-9, 1e-5, 1e-2]) * rng.standard_normal((n, ry))
                y = span(np.resize(x.T, (ry, n)).T + noise)
            assert_bits_match_matmul(x, y)

    def test_self_pairs_on_one_buffer(self, rng):
        for n, r in ((1, 1), (5, 2), (12, 6), (20, 10), (29, 29), (100, 23)):
            x = random_subspace(rng, n, r)
            assert_bits_match_matmul(x, x)

    def test_rank_one_bases(self, rng):
        for n in range(1, 30):
            x, y = random_subspace(rng, n, 1), random_subspace(rng, n, 1)
            assert_bits_match_matmul(x, y)
            assert_bits_match_matmul(x, random_subspace(rng, n, int(rng.integers(1, n + 1))))

    def test_replicate_cells(self, rng):
        for n, r in ((12, 3), (20, 10), (100, 23)):
            x = random_subspace(rng, n, r)
            turn = np.linalg.qr(rng.standard_normal((r, r)))[0]
            for y in (x @ turn, span(x + 1e-14), x.copy()):
                assert_bits_match_matmul(x, y)

    @pytest.mark.parametrize(
        "sq", [1e-28, 3e-6, _CHORDAL_SQ_GUARD * 0.999, _CHORDAL_SQ_GUARD * 1.001, 1.0]
    )
    def test_chordal_residual_cases(self, rng, sq):
        for _ in range(3):
            assert_bits_match_matmul(*pair_with_chordal_sq(rng, 100, 23, sq))

    def test_bases_order_by_their_raw_bytes(self, rng):
        # Two bases of one plane that differ only in the sign of a zero:
        # their bytes differ, and +0.0 sorts first.
        x = np.eye(3)[:, :2].copy()
        y = x.copy()
        y[2, 0] = -0.0
        assert x.tobytes() < y.tobytes()
        pairs = [(x, y), (y, x), (x, x)]
        pairs += [(random_subspace(rng, 8, 3), random_subspace(rng, 8, 3)) for _ in range(20)]
        for a, b in pairs:
            got, want = _ordered_bases(a, b), ordered_bases_by_bytes(a, b)
            assert got[0] is want[0] and got[1] is want[1]
        assert _ordered_bases(y, x)[0] is x
        assert_bits_match_matmul(x, y)

    def test_chordal_matrix_on_the_benchmark_cells(self, monkeypatch):
        # The seed-5 pipeline-counts-m120 benchmark input under its preset:
        # 120 rank-10 subspaces of R^20, replicate cells among them.
        here = os.path.dirname(os.path.abspath(__file__))
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(here), "perfbench"))
        counts, _ = importlib.import_module("workloads").generate_counts(120, 5)
        cfg = load_config(preset="setup2-small", overrides={"clustering.k": "3"})
        pre = preprocess(
            counts.astype(float),
            normalize=cfg.normalize,
            log_transform=cfg.log_transform,
            top_features=cfg.top_features,
        )
        cells = run_mgm(pre, cfg)[0]
        points = points_of(cells)
        want = np.zeros((len(points), len(points)))
        for i, j in zip(*np.triu_indices(len(points), 1)):
            want[i, j] = chordal_by_matmul(points[i], points[j])
        got, _ = distance_matrix(cells, GrassmannMetric.CHORDAL)
        assert np.array_equal(got, got.T) and np.all(np.diag(got) == 0.0)
        below = 0
        for i, j in zip(*np.triu_indices(len(points), 1)):
            assert_chordal_matches_matmul(got[i, j], want[i, j])
            below += want[i, j] ** 2 < _CHORDAL_SQ_GUARD
        # the replicate cells, whose values keep the residual's bits
        assert below > 0


def per_pair_spy(monkeypatch):
    """Record the (i, j) of every pair distance_matrix hands to
    grassmann.distance, i and j the samples of its two bases[k, :, :r]
    views, read from each view's offset into bases."""
    calls = []
    real_distance = pipeline.distance

    def sample(view):
        offset = view.ctypes.data - view.base.ctypes.data
        assert offset % view.base.strides[0] == 0
        return offset // view.base.strides[0]

    def spy(x, y, metric):
        calls.append((sample(x), sample(y)))
        return real_distance(x, y, metric)

    monkeypatch.setattr(pipeline, "distance", spy)
    return calls


def assert_matrix_matches(points, metric, got):
    """Every pair agrees with grassmann.distance and with the sine oracle."""
    for i, j in zip(*np.triu_indices(len(points), 1)):
        x, y = points[i], points[j]
        for want in (
            distance(x, y, metric),
            distance_from_angles(principal_angles_sine(x, y), metric),
        ):
            assert abs(got[i, j] - want) <= 1e-12 + 1e-9 * want, (metric, i, j)
    assert np.array_equal(got, got.T)
    assert np.all(np.diag(got) == 0.0)


def cells_of(points):
    """The (M, n, p) basis array of the given subspaces, each padded with
    zero columns to the largest rank, as build_subspaces lays them out."""
    ranks = [p.shape[1] for p in points]
    bases = np.zeros((len(points), points[0].shape[0], max(ranks)))
    for k, p in enumerate(points):
        bases[k, :, : ranks[k]] = p
    return bases


def points_of(bases):
    """Each sample's basis on its own, bases[k, :, :r_k]."""
    return [bases[k, :, :r] for k, r in enumerate(_subspace_ranks(bases))]


def force_workers(monkeypatch, count):
    """Make _tiled_distances see `count` CPUs."""
    monkeypatch.setattr(pipeline, "_cpu_count", lambda: count)


def rank_reduced_and_replicate_cells(rng):
    # 21 samples, not a multiple of the tile. Samples 2, 9 and 17 repeat
    # a scale (rank 3), 5 and 13 repeat one row at every scale (rank 1);
    # 20 repeats 3, and 19 holds 4's features in another basis.
    emb = [rng.standard_normal((21, 12)) for _ in range(4)]
    for i in (2, 9, 17):
        emb[1][i] = emb[0][i]
    for i in (5, 13):
        for e in emb[1:]:
            e[i] = emb[0][i]
    for e in emb:
        e[20] = e[3]
    emb[0][19] = emb[0][4] + emb[1][4]
    for e in emb[1:]:
        e[19] = e[4]
    return build_subspaces(np.array(emb))


def points_either_side_of_both_guards(rng):
    chordal = [
        math.asin(math.sqrt(_CHORDAL_SQ_GUARD * (1.0 + side * 1e-3) / 3.0))
        for side in (-1, 1)
    ]
    cosine = [math.acos(1.0 - _COSINE_GUARD * (1.0 - side * 1e-3)) for side in (-1, 1)]
    points = [random_subspace(rng, 12, 3 + k % 2) for k in range(19)]
    placed = {
        (0, 9): pair_with_angles(rng, 12, 3, 4, [chordal[0]] * 3),  # below
        (1, 10): pair_with_angles(rng, 12, 3, 4, [chordal[1]] * 3),
        (2, 17): pair_with_angles(rng, 12, 3, 3, [cosine[1], 0.7, 1.3]),  # above
        (3, 11): pair_with_angles(rng, 12, 3, 3, [cosine[0], 0.7, 1.3]),
    }
    for (i, j), (x, y) in placed.items():
        points[i], points[j] = x, y
    turn = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    points[18] = points[4] @ turn  # a replicate cell
    points[12] = points[5].copy()  # an exact duplicate
    return points


def points_near_right_angles(rng):
    points = [random_subspace(rng, 10, 2) for _ in range(20)]
    # (3, 4) shares a tile, (2, 17) does not; (2, 17) comes first
    for i, j in ((3, 4), (2, 17)):
        points[i], points[j] = pair_with_angles(rng, 10, 2, 2, [0.4, math.pi / 2 - 1e-12])
    return points


def angle_kernel_peak(rng, m):
    """Peak bytes traced while _tiled_distances fills an m x m matrix of
    rank-6 subspaces of R^40. One untraced fill comes first, so the imports
    and caches of a first threaded call are not counted."""
    bases = cells_of([random_subspace(rng, 40, 6) for _ in range(m)])
    ranks = _subspace_ranks(bases)
    out = np.zeros((m, m))
    _tiled_distances(bases, ranks, GrassmannMetric.GEODESIC, out)
    tracemalloc.start()
    try:
        _tiled_distances(bases, ranks, GrassmannMetric.GEODESIC, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatchedAngleKernel:
    """The kernels of distance_matrix: the tiled angle kernel of the four
    angle metrics, and the projector Gram of chordal."""

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_rank_reduced_and_replicate_cells(self, rng, metric, monkeypatch):
        cells = rank_reduced_and_replicate_cells(rng)
        ranks = _subspace_ranks(cells).tolist()
        assert ranks.count(3) == 3 and ranks.count(1) == 2
        calls = per_pair_spy(monkeypatch)
        dmat, guarded_pairs = distance_matrix(cells, metric)
        assert_matrix_matches(points_of(cells), metric, dmat)
        assert calls == [(3, 20), (4, 19)]
        assert guarded_pairs == 2

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_either_side_of_both_guards(self, rng, metric, monkeypatch):
        points = points_either_side_of_both_guards(rng)
        calls = per_pair_spy(monkeypatch)
        dmat, guarded_pairs = distance_matrix(cells_of(points), metric)
        assert_matrix_matches(points, metric, dmat)
        # chordal has no cosine guard: (2, 17) is far above d^2 = 1e-4
        want = [(0, 9), (2, 17), (4, 18), (5, 12)]
        if metric is GrassmannMetric.CHORDAL:
            want.remove((2, 17))
        assert calls == want
        assert guarded_pairs == len(want)

    @pytest.mark.parametrize("metric", ANGLE_METRICS)
    def test_pairs_whose_ranks_sum_past_n_skip_the_batch(self, rng, metric, monkeypatch):
        # In R^6 subspaces of ranks 3 + 4 and 4 + 4 share a direction, and
        # fail the cosine guard; ranks 2 + 4 and 3 + 3 need not.
        points = [random_subspace(rng, 6, (2, 3, 4)[k % 3]) for k in range(19)]
        ranks = [p.shape[1] for p in points]
        shared = [
            (i, j) for i, j in zip(*np.triu_indices(19, 1)) if ranks[i] + ranks[j] > 6
        ]
        batched = []
        real_block = pipeline.block_distances

        def block(cross, counts, metric):
            batched.append(np.linalg.svd(cross, compute_uv=False)[:, 0])
            return real_block(cross, counts, metric)

        monkeypatch.setattr(pipeline, "block_distances", block)
        calls = per_pair_spy(monkeypatch)
        dmat, guarded_pairs = distance_matrix(cells_of(points), metric)
        assert_matrix_matches(points, metric, dmat)
        assert calls == shared
        assert guarded_pairs == len(shared) == 51
        largest = np.concatenate(batched)
        assert largest.size == 19 * 18 // 2 - len(shared)
        assert largest.max() < 1.0 - _COSINE_GUARD

    def test_chordal_takes_rank_sum_and_guarded_pairs_one_by_one(self, rng, monkeypatch):
        # The ranks of the test above, with two replicate cells, 70 rows:
        # more than one row block. Chordal runs on the calling thread alone
        # and never reaches the tiled kernel.
        points = [random_subspace(rng, 6, (2, 3, 4)[k % 3]) for k in range(70)]
        turn = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        points[68] = points[0] @ turn
        points[69] = points[3].copy()
        ranks = [p.shape[1] for p in points]
        redo = sorted(
            {(i, j) for i, j in zip(*np.triu_indices(70, 1)) if ranks[i] + ranks[j] > 6}
            | {(0, 68), (3, 69)}
        )
        threads = threading.active_count()
        seen = []
        real_gram = pipeline._chordal_sq

        def gram(*args):
            seen.append(threading.active_count())
            return real_gram(*args)

        def tiled(*args):
            raise AssertionError("chordal reached the tiled kernel")

        monkeypatch.setattr(pipeline, "_chordal_sq", gram)
        monkeypatch.setattr(pipeline, "block_distances", tiled)
        monkeypatch.setattr(pipeline, "_tile_row", tiled)
        force_workers(monkeypatch, 3)
        calls = per_pair_spy(monkeypatch)
        dmat, guarded_pairs = distance_matrix(cells_of(points), GrassmannMetric.CHORDAL)
        assert_matrix_matches(points, GrassmannMetric.CHORDAL, dmat)
        assert calls == redo
        assert guarded_pairs == len(redo)
        assert seen == [threads, threads]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("m", [1, 2, 8, 9])
    def test_small_and_ragged_sizes(self, rng, metric, m):
        points = [random_subspace(rng, 7, 1 + k % 3) for k in range(m)]
        dmat, guarded_pairs = distance_matrix(cells_of(points), metric)
        assert dmat.shape == (m, m)
        assert_matrix_matches(points, metric, dmat)
        assert guarded_pairs == 0

    def test_near_right_angles(self, rng):
        points = points_near_right_angles(rng)
        cells = cells_of(points)
        for metric in ALL_METRICS:
            if metric is GrassmannMetric.MARTIN:
                with pytest.raises(NumericalError, match=r"pair \(2, 17\)"):
                    distance_matrix(cells, metric)
            else:
                dmat, _ = distance_matrix(cells, metric)
                assert_matrix_matches(points, metric, dmat)

    @pytest.mark.parametrize(
        "cells",
        [
            rank_reduced_and_replicate_cells,
            lambda rng: cells_of(points_either_side_of_both_guards(rng)),
        ],
        ids=["rank_reduced_and_replicate_cells", "either_side_of_both_guards"],
    )
    def test_results_do_not_depend_on_the_worker_count(self, rng, cells, monkeypatch):
        cells = cells(rng)
        for metric in ALL_METRICS:
            runs = []
            for workers in (1, 2, 3):
                force_workers(monkeypatch, workers)
                with pytest.MonkeyPatch.context() as patch:
                    calls = per_pair_spy(patch)
                    dmat, guarded_pairs = distance_matrix(cells, metric)
                runs.append((dmat.tobytes(), guarded_pairs, calls))
            assert runs[1] == runs[0] and runs[2] == runs[0], metric

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_martin_error_names_the_first_pair_at_any_worker_count(
        self, rng, workers, monkeypatch
    ):
        cells = cells_of(points_near_right_angles(rng))
        force_workers(monkeypatch, workers)
        with pytest.raises(NumericalError, match=r"pair \(2, 17\)"):
            distance_matrix(cells, GrassmannMetric.MARTIN)

    def test_error_in_a_helper_thread_reaches_the_caller(self, rng, monkeypatch):
        # 40 rows of tiles over 3 workers. The first block_distances call on
        # a helper thread raises; the calling thread's first call waits for
        # it, so a helper is sure to fail while rows are left.
        cells = cells_of(
            [random_subspace(rng, 6, 2) for _ in range(40 * pipeline._TILE_SUBSPACES)]
        )
        force_workers(monkeypatch, 3)
        real_block, real_row = pipeline.block_distances, pipeline._tile_row

        def fail_once(metric):
            boom = RuntimeError(f"boom under {metric.value}")
            failed = threading.Event()
            lock = threading.Lock()
            started = []  # (row, whether the failure had happened)

            def block(cross, counts, metric):
                if threading.current_thread() is threading.main_thread():
                    failed.wait(timeout=30)
                else:
                    with lock:
                        first = not failed.is_set()
                        failed.set()
                    if first:
                        raise boom
                return real_block(cross, counts, metric)

            def row(bases, ranks, lo, metric, out):
                started.append((lo, failed.is_set()))
                return real_row(bases, ranks, lo, metric, out)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pipeline, "block_distances", block)
                patch.setattr(pipeline, "_tile_row", row)
                threads = threading.active_count()
                with pytest.raises(RuntimeError) as info:
                    distance_matrix(cells, metric)
            assert info.value is boom
            assert failed.is_set()
            assert [lo for lo, after in started if after] == []
            assert threading.active_count() == threads

        for metric in ANGLE_METRICS:
            fail_once(metric)

    def test_error_in_the_chordal_gram_reaches_the_caller(self, rng, monkeypatch):
        # Chordal fills its row blocks on the calling thread, with no helper
        # threads at any CPU count: the second block's error stops the build.
        cells = cells_of([random_subspace(rng, 6, 2) for _ in range(3 * pipeline._BLOCK_ROWS)])
        force_workers(monkeypatch, 3)
        real_gram = pipeline._chordal_sq
        boom = RuntimeError("boom under chordal")
        blocks = []

        def gram(features, ranks, lo, hi):
            blocks.append((lo, threading.current_thread() is threading.main_thread()))
            if len(blocks) == 2:
                raise boom
            return real_gram(features, ranks, lo, hi)

        monkeypatch.setattr(pipeline, "_chordal_sq", gram)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            distance_matrix(cells, GrassmannMetric.CHORDAL)
        assert info.value is boom
        assert blocks == [(0, True), (pipeline._BLOCK_ROWS, True)]
        assert threading.active_count() == threads

    def test_more_workers_than_cores_under_a_short_switch_interval(self, rng, monkeypatch):
        # A replicate in every row of tiles, so every worker flags a pair; a
        # lost write to the matrix or to the flagged pairs changes the result.
        tile = pipeline._TILE_SUBSPACES
        points = [random_subspace(rng, 12, 3) for _ in range(10 * tile)]
        for lo in range(0, len(points), tile):
            turn = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            points[lo + tile - 1] = points[lo] @ turn
        cells = cells_of(points)
        for metric in ALL_METRICS:
            force_workers(monkeypatch, 1)
            want, want_guarded = distance_matrix(cells, metric)
            force_workers(monkeypatch, 6)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(5):
                    got, guarded = distance_matrix(cells, metric)
                    assert got.tobytes() == want.tobytes(), metric
                    assert guarded == want_guarded == 10, metric
            finally:
                sys.setswitchinterval(interval)

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
        assert pipeline._cpu_count() == (os.cpu_count() or 1)

    def test_working_set_does_not_grow_with_the_sample_count(self, rng, monkeypatch):
        force_workers(monkeypatch, 1)
        small, large = angle_kernel_peak(rng, 24), angle_kernel_peak(rng, 96)
        # a tile pair's cross Gram, (8 x 6)^2 floats, and a few of its size
        assert small < 20 * 48**2 * 8
        assert large < small + 4096

    @pytest.mark.parametrize("workers", [2, 3])
    def test_working_set_grows_at_most_with_the_worker_count(self, rng, workers, monkeypatch):
        # each worker holds one row's tiles at a time
        force_workers(monkeypatch, 1)
        one = angle_kernel_peak(rng, 96)
        force_workers(monkeypatch, workers)
        assert angle_kernel_peak(rng, 96) <= workers * one + 4096
