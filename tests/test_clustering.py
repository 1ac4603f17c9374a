import warnings

import numpy as np
import pytest

from mgm import clustering
from mgm.clustering import (
    ClusteringMethod,
    classical_mds,
    cluster_distances,
    kmeans,
    kmeans_euclidean,
    spectral_cluster,
)
from mgm.errors import ConfigError, DegenerateAffinityError, DegenerateEmbeddingError
from mgm.grassmann import GrassmannMetric
from mgm.pipeline import DistanceMatrix

from conftest import make_blobs
from oracles import kmeans_1d_optimal


def euclidean_distance_matrix(points: np.ndarray) -> DistanceMatrix:
    diff = points[:, None, :] - points[None, :, :]
    values = np.sqrt(np.sum(diff**2, axis=2))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(values=values, metric=GrassmannMetric.CHORDAL)


def same_partition(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    mapping = {}
    for x, y in zip(a, b):
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


class TestKmeans:
    def test_matches_optimal_inertia_in_1d(self, rng):
        # dynamic programming gives the exact optimum for 1-d inputs
        for trial in range(20):
            m = int(rng.integers(6, 25))
            k = int(rng.integers(2, 5))
            points = rng.uniform(-10, 10, size=m)
            _, inertia = kmeans(points[:, None], k, seed=trial)
            best = kmeans_1d_optimal(points, k)
            assert inertia <= best * (1.0 + 1e-6) + 1e-9
            # never better than the true optimum
            assert inertia >= best - 1e-9

    def test_separated_blobs_recovered(self, rng):
        for seed in range(5):
            x, truth = make_blobs(m=60, d=5, sep=10.0, seed=seed)
            labels, _ = kmeans(x, 3, seed=0)
            assert same_partition(labels, truth)

    def test_deterministic(self, rng):
        x = rng.standard_normal((40, 4))
        a, ia = kmeans(x, 4, seed=9)
        b, ib = kmeans(x, 4, seed=9)
        assert np.array_equal(a, b)
        assert ia == ib

    def test_k_equals_one(self, rng):
        x = rng.standard_normal((10, 3))
        labels, inertia = kmeans(x, 1, seed=0)
        assert np.all(labels == 0)
        center = x.mean(axis=0)
        assert abs(inertia - np.sum((x - center) ** 2)) < 1e-9

    def test_k_equals_m_gives_zero_inertia(self, rng):
        x = rng.standard_normal((7, 3))
        labels, inertia = kmeans(x, 7, seed=0)
        assert sorted(labels) == list(range(7))
        assert inertia < 1e-18

    def test_k_out_of_range(self, rng):
        x = rng.standard_normal((5, 2))
        with pytest.raises(ConfigError):
            kmeans(x, 0, seed=0)
        with pytest.raises(ConfigError):
            kmeans(x, 6, seed=0)

    def test_duplicate_points_tolerated(self):
        x = np.zeros((8, 2))
        x[4:] = 1.0
        labels, inertia = kmeans(x, 2, seed=0)
        assert inertia < 1e-18
        assert same_partition(labels, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_empty_cluster_refill_keeps_every_centre_finite(self):
        # Two distinct points and k = 4: empty clusters are refilled from
        # clusters that keep a member, so no centre is the mean of nothing.
        x = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]] * 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, inertia = kmeans(x, 4, seed=0)
            again = kmeans(x, 4, seed=0)
        assert np.isfinite(inertia)
        assert inertia < 1e-18
        assert labels.min() >= 0 and labels.max() < 4
        assert np.array_equal(labels, again[0]) and inertia == again[1]

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_one_distance_table_per_set_of_centres(self, rng, monkeypatch, max_iter):
        # k one-centre tables seed k-means++, then one full table before
        # the loop and one after each centre update; the last one also
        # gives the final labels and inertia.
        real = clustering._sq_dists_to
        calls = []

        def spy(points, centers):
            calls.append(centers.copy())
            return real(points, centers)

        monkeypatch.setattr(clustering, "_sq_dists_to", spy)
        monkeypatch.setattr(clustering, "_KMEANS_MAX_ITER", max_iter)
        x = rng.standard_normal((200, 3))
        k = 5
        labels, inertia = clustering._lloyd(x, k, np.random.default_rng([0, 0]))
        assert [c.shape for c in calls] == [(1, 3)] * k + [(k, 3)] * (1 + max_iter)
        d2 = real(x, calls[-1])
        assert np.array_equal(labels, d2.argmin(axis=1))
        assert inertia == float(d2[np.arange(200), labels].sum())

    def test_euclidean_wrapper(self, rng):
        x, truth = make_blobs(m=30, d=4, sep=9.0, seed=1)
        labels = kmeans_euclidean(x, 3, seed=2)
        assert np.array_equal(labels, kmeans(x, 3, seed=2)[0])
        assert len(labels) == 30
        assert same_partition(labels, truth)


def spectral(d: DistanceMatrix, k: int, seed: int) -> np.ndarray:
    (labels,) = cluster_distances(d, ClusteringMethod.SPECTRAL, k, (seed,))
    return labels


def kmeans_mds(
    d: DistanceMatrix, k: int, seed: int, mds_dim: int | None = None
) -> np.ndarray:
    (labels,) = cluster_distances(d, ClusteringMethod.KMEANS_MDS, k, (seed,), mds_dim)
    return labels


class TestSpectralCluster:
    def test_unequal_blob_sizes_recovered(self):
        rng = np.random.default_rng(0)
        sizes = [30, 12, 6]
        centers = np.array([[0, 0, 0], [12, 0, 0], [0, 12, 0]], dtype=float)
        x = np.vstack(
            [centers[i] + rng.standard_normal((s, 3)) for i, s in enumerate(sizes)]
        )
        truth = np.repeat([0, 1, 2], sizes)
        labels = spectral(euclidean_distance_matrix(x), 3, seed=0)
        assert same_partition(labels, truth)

    def test_blobs_recovered(self):
        x, truth = make_blobs(m=45, d=6, sep=9.0, seed=3)
        labels = spectral(euclidean_distance_matrix(x), 3, seed=0)
        assert same_partition(labels, truth)

    def test_embedding_rows_are_unit_and_seed_free(self):
        x, _ = make_blobs(m=30, d=4, sep=6.0, seed=4)
        d = euclidean_distance_matrix(x)
        emb = spectral_cluster(d, 3)
        assert emb.shape == (30, 3)
        assert np.allclose(np.linalg.norm(emb, axis=1), 1.0)
        assert np.array_equal(emb, spectral_cluster(d, 3))

    def test_k_equals_one(self):
        x, _ = make_blobs(m=10, d=3, sep=5.0, seed=0)
        labels = spectral(euclidean_distance_matrix(x), 1, seed=0)
        assert np.all(labels == 0)

    def test_all_identical_points_rejected(self):
        d = DistanceMatrix(values=np.zeros((6, 6)), metric=GrassmannMetric.CHORDAL)
        with pytest.raises(DegenerateAffinityError):
            spectral_cluster(d, 2)
        with pytest.raises(DegenerateAffinityError):
            spectral(d, 2, seed=0)

    def test_deterministic(self):
        x, _ = make_blobs(m=30, d=4, sep=6.0, seed=4)
        d = euclidean_distance_matrix(x)
        assert np.array_equal(spectral(d, 3, seed=1), spectral(d, 3, seed=1))


class TestClassicalMds:
    def test_reconstructs_euclidean_distances(self, rng):
        points = rng.standard_normal((15, 4))
        d = euclidean_distance_matrix(points)
        coords = classical_mds(d.values, 4)
        assert coords.shape == (15, 4)
        rebuilt = euclidean_distance_matrix(coords)
        assert np.max(np.abs(rebuilt.values - d.values)) < 1e-8

    def test_centered_output(self, rng):
        points = rng.standard_normal((12, 3)) + 5.0
        coords = classical_mds(euclidean_distance_matrix(points).values, 3)
        assert np.max(np.abs(coords.mean(axis=0))) < 1e-9

    def test_collinear_points_use_one_real_dimension(self):
        t = np.linspace(0, 1, 9)
        points = np.column_stack([t, 2 * t, -t])
        coords = classical_mds(euclidean_distance_matrix(points).values, 5)
        norms = np.linalg.norm(coords, axis=0)
        # everything beyond the first coordinate is eigensolver noise
        assert norms[0] > 1.0
        assert np.all(norms[1:] < 1e-6)

    def test_dim_caps_output(self, rng):
        points = rng.standard_normal((10, 6))
        coords = classical_mds(euclidean_distance_matrix(points).values, 2)
        assert coords.shape == (10, 2)

    def test_deterministic_signs(self, rng):
        points = rng.standard_normal((10, 3))
        d = euclidean_distance_matrix(points).values
        assert np.array_equal(classical_mds(d, 3), classical_mds(d, 3))


class TestKmeansOnDistances:
    def test_blobs_recovered(self):
        x, truth = make_blobs(m=36, d=8, sep=9.0, seed=6)
        d = euclidean_distance_matrix(x)
        assert same_partition(kmeans_mds(d, 3, seed=0), truth)

    def test_zero_matrix_has_no_embedding(self):
        d = DistanceMatrix(values=np.zeros((5, 5)), metric=GrassmannMetric.CHORDAL)
        with pytest.raises(DegenerateEmbeddingError):
            kmeans_mds(d, 2, seed=0)

    def test_embed_dim_validation(self):
        x, _ = make_blobs(m=12, d=3, sep=5.0, seed=0)
        d = euclidean_distance_matrix(x)
        with pytest.raises(ConfigError):
            kmeans_mds(d, 2, seed=0, mds_dim=12)
        with pytest.raises(ConfigError):
            kmeans_mds(d, 2, seed=0, mds_dim=0)

    def test_k_equals_one(self):
        x, _ = make_blobs(m=8, d=3, sep=5.0, seed=0)
        labels = kmeans_mds(euclidean_distance_matrix(x), 1, seed=0)
        assert np.all(labels == 0)


class TestDispatch:
    def test_routes_by_method(self):
        x, _ = make_blobs(m=24, d=4, sep=8.0, seed=2)
        d = euclidean_distance_matrix(x)
        assert same_partition(spectral(d, 3, seed=0), kmeans_mds(d, 3, seed=0))

    def test_one_labelling_per_seed_from_one_embedding(self):
        x, _ = make_blobs(m=24, d=4, sep=3.0, seed=2)
        d = euclidean_distance_matrix(x)
        seeds = (4, 0, 4, 9)
        points = {
            ClusteringMethod.SPECTRAL: spectral_cluster(d, 3),
            ClusteringMethod.KMEANS_MDS: classical_mds(d.values, 3),
        }
        for method, emb in points.items():
            labels = cluster_distances(d, method, 3, seeds)
            assert len(labels) == len(seeds)
            for seed, got in zip(seeds, labels):
                assert np.array_equal(got, kmeans(emb, 3, seed)[0])

    def test_k_out_of_range(self):
        x, _ = make_blobs(m=6, d=3, sep=5.0, seed=0)
        d = euclidean_distance_matrix(x)
        for method in ClusteringMethod:
            for k in (0, 7):
                with pytest.raises(ConfigError):
                    cluster_distances(d, method, k, (0,))

