import importlib
import warnings
from pathlib import Path

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
from mgm.config import load_config
from mgm.errors import ConfigError, NumericalError
from mgm.experiment import run_experiment

from conftest import make_blobs
from oracles import kmeans_1d_optimal, kmeans_per_restart


def euclidean_distance_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    values = np.sqrt(np.sum(diff**2, axis=2))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    return values


def kmeans_one(points, k: int, seed: int) -> tuple[np.ndarray, float]:
    (result,) = kmeans(points, k, (seed,))
    return result


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
            _, inertia = kmeans_one(points[:, None], k, trial)
            best = kmeans_1d_optimal(points, k)
            assert inertia <= best * (1.0 + 1e-6) + 1e-9
            # never better than the true optimum
            assert inertia >= best - 1e-9

    def test_non_2d_points_are_refused(self):
        with pytest.raises(ValueError, match=r"nonempty 2-d array, got \(6,\)"):
            kmeans(np.arange(6.0), 2, (0,))

    def test_separated_blobs_recovered(self, rng):
        for seed in range(5):
            x, truth = make_blobs(m=60, d=5, sep=10.0, seed=seed)
            labels, _ = kmeans_one(x, 3, 0)
            assert same_partition(labels, truth)

    def test_deterministic(self, rng):
        x = rng.standard_normal((40, 4))
        a, ia = kmeans_one(x, 4, 9)
        b, ib = kmeans_one(x, 4, 9)
        assert np.array_equal(a, b)
        assert ia == ib

    def test_k_equals_one(self, rng):
        x = rng.standard_normal((10, 3))
        labels, inertia = kmeans_one(x, 1, 0)
        assert np.all(labels == 0)
        center = x.mean(axis=0)
        assert abs(inertia - np.sum((x - center) ** 2)) < 1e-9

    def test_k_equals_m_gives_zero_inertia(self, rng):
        x = rng.standard_normal((7, 3))
        labels, inertia = kmeans_one(x, 7, 0)
        assert sorted(labels) == list(range(7))
        assert inertia < 1e-18

    def test_k_out_of_range(self, rng):
        x = rng.standard_normal((5, 2))
        with pytest.raises(ConfigError):
            kmeans(x, 0, (0,))
        with pytest.raises(ConfigError):
            kmeans(x, 6, (0,))

    def test_duplicate_points_tolerated(self):
        x = np.zeros((8, 2))
        x[4:] = 1.0
        labels, inertia = kmeans_one(x, 2, 0)
        assert inertia < 1e-18
        assert same_partition(labels, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_empty_cluster_refill_keeps_every_centre_finite(self):
        # Two distinct points and k = 4: empty clusters are refilled from
        # clusters that keep a member, so no centre is the mean of nothing.
        x = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]] * 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, inertia = kmeans_one(x, 4, 0)
            again = kmeans_one(x, 4, 0)
        assert np.isfinite(inertia)
        assert inertia < 1e-18
        assert labels.min() >= 0 and labels.max() < 4
        assert np.array_equal(labels, again[0]) and inertia == again[1]

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_one_distance_table_per_set_of_centres(self, rng, monkeypatch, max_iter):
        # k one-centre tables seed k-means++, then one full table before
        # the loop and one after each centre update; the last one also
        # gives the final labels and inertia.
        real = clustering._sq_dist_tables
        calls = []

        def spy(points, sq_norms, centers):
            calls.append(centers.copy())
            return real(points, sq_norms, centers)

        monkeypatch.setattr(clustering, "_sq_dist_tables", spy)
        monkeypatch.setattr(clustering, "_KMEANS_MAX_ITER", max_iter)
        monkeypatch.setattr(clustering, "_KMEANS_RESTARTS", 1)
        x = rng.standard_normal((200, 3))
        k = 5
        labels, inertia = kmeans_one(x, k, 0)
        assert [c.shape for c in calls] == [(1, 1, 3)] * k + [(1, k, 3)] * (1 + max_iter)
        d2 = real(x, np.sum(x**2, axis=1), calls[-1])[0]
        assert np.array_equal(labels, d2.argmin(axis=1))
        assert inertia == float(d2[np.arange(200), labels].sum())

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_one_distance_table_per_step_of_a_group(self, rng, monkeypatch, max_iter):
        # Runs advance in groups: each group of n runs makes k tables of n
        # one-centre rows for k-means++, then 1 + max_iter tables for Lloyd's
        # loop, none of which converges within 3 steps on these points.
        real = clustering._sq_dist_tables
        calls = []

        def spy(points, sq_norms, centers):
            calls.append(centers.shape)
            return real(points, sq_norms, centers)

        monkeypatch.setattr(clustering, "_sq_dist_tables", spy)
        monkeypatch.setattr(clustering, "_KMEANS_MAX_ITER", max_iter)
        x = rng.standard_normal((200, 3))
        k = 5
        # 4 runs a group: 5 groups for the 20 runs of 2 seeds
        monkeypatch.setattr(clustering, "_KMEANS_GROUP_BYTES", 4 * 8 * 200 * (3 * k + 3 + 3))
        got = kmeans(x, k, (0, 1))
        want = []
        for _ in range(5):
            want += [(4, 1, 3)] * k + [(4, k, 3)] * (1 + max_iter)
        assert calls == want
        for seed, (labels, inertia) in zip((0, 1), got):
            want_labels, want_inertia = kmeans_per_restart(x, k, seed)
            assert np.array_equal(labels, want_labels) and inertia == want_inertia

    def test_euclidean_wrapper(self, rng):
        x, truth = make_blobs(m=30, d=4, sep=9.0, seed=1)
        seeds = (2, 5)
        labellings = kmeans_euclidean(x, 3, seeds)
        assert len(labellings) == len(seeds)
        for seed, labels in zip(seeds, labellings):
            assert np.array_equal(labels, kmeans_one(x, 3, seed)[0])
            assert len(labels) == 30
            assert same_partition(labels, truth)


def assert_matches_per_restart(points, k: int, seeds) -> None:
    """Every seed's labels and inertia from one batched call are bitwise
    those of the per-restart oracle run for that seed alone."""
    got = kmeans(points, k, seeds)
    assert len(got) == len(seeds)
    for seed, (labels, inertia) in zip(seeds, got):
        want_labels, want_inertia = kmeans_per_restart(points, k, seed)
        assert np.array_equal(labels, want_labels)
        assert np.float64(inertia).tobytes() == np.float64(want_inertia).tobytes()


class TestBatchedKmeans:
    @pytest.mark.parametrize("d", [1, 3, 20])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_random_points(self, rng, d, k):
        # 90 points: clusters far past the 8 values under which a pairwise
        # and a row-order sum agree
        x = rng.standard_normal((90, d)) * 10.0 ** rng.uniform(-2, 2, size=(90, 1))
        assert_matches_per_restart(x, k, (0, 1, 2))

    @pytest.mark.parametrize("d", [1, 2, 3, 20])
    def test_cluster_means_are_bitwise_the_per_cluster_means(self, rng, d):
        # Labels and inertia hardly move with the last bit of a centre, since
        # the inertia is flat at the mean, so the means are checked directly:
        # one column is summed pairwise, wider rows in row order.
        m, k, runs = 300, 3, 4
        x = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
        labels = rng.integers(0, k, size=(runs, m))
        counts = np.stack([np.bincount(row, minlength=k) for row in labels])
        bins = labels + k * np.arange(runs)[:, None]
        got = clustering._cluster_means(np.tile(x.T, runs), bins, counts.ravel())
        want = [x[row == c].mean(axis=0) for row in labels for c in range(k)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_empty_clusters_refilled(self):
        x = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]] * 10)
        assert_matches_per_restart(x, 4, (0, 1, 2, 3))

    def test_duplicate_points(self, rng):
        x = np.repeat(rng.standard_normal((6, 3)), 5, axis=0)
        assert_matches_per_restart(x, 4, (0, 7))
        assert_matches_per_restart(x[:, :1], 4, (0, 7))

    @pytest.mark.parametrize("d", [1, 3])
    def test_k_equals_m(self, rng, d):
        assert_matches_per_restart(rng.standard_normal((9, d)), 9, (0, 9))

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_runs_that_stop_early_stay_frozen(self, monkeypatch, max_iter):
        # On three blobs with k = 4 some runs converge at the second step
        # and others run on, so the later tables hold fewer runs; a frozen
        # run that moved would differ from the oracle.
        real = clustering._sq_dist_tables
        runs = []

        def spy(points, sq_norms, centers):
            runs.append(centers.shape[0])
            return real(points, sq_norms, centers)

        monkeypatch.setattr(clustering, "_sq_dist_tables", spy)
        monkeypatch.setattr(clustering, "_KMEANS_MAX_ITER", max_iter)
        x, _ = make_blobs(m=60, d=3, sep=4.0, seed=1)
        assert_matches_per_restart(x, 4, (0, 1))
        lloyd = runs[4:]
        assert len(lloyd) == 1 + max_iter
        if max_iter == 3:
            assert lloyd[0] == 20 and lloyd[-1] < 20

    def test_a_seed_does_not_depend_on_its_batch(self, rng):
        x = rng.standard_normal((70, 4))
        seeds = (5, 1, 9, 3, 7)
        together = kmeans(x, 3, seeds)
        permuted = dict(zip(seeds[::-1], kmeans(x, 3, seeds[::-1])))
        for seed, (labels, inertia) in zip(seeds, together):
            for other in (permuted[seed], kmeans_one(x, 3, seed)):
                assert np.array_equal(labels, other[0]) and inertia == other[1]

    @pytest.mark.parametrize("data_seed", [5, 7])
    def test_pipeline_points(self, monkeypatch, data_seed):
        # The MDS, baseline-PCA and average-embedding points of the
        # pipeline-counts-m120 benchmark inputs.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        counts, labels = importlib.import_module("workloads").generate_counts(120, data_seed)
        real = clustering.kmeans
        calls = []

        def spy(points, k, seeds):
            calls.append((np.array(points), k, tuple(seeds)))
            return real(points, k, seeds)

        monkeypatch.setattr(clustering, "kmeans", spy)
        cfg = load_config(preset="setup2-small", overrides={"clustering.k": "3"})
        run_experiment(counts.astype(float), cfg, labels=tuple(str(v) for v in labels))
        assert [(p.shape[1], k, s) for p, k, s in calls] == [
            (3, 3, cfg.seeds),
            (20, 3, cfg.seeds),
            (20, 3, cfg.seeds),
        ]
        for points, k, seeds in calls:
            assert_matches_per_restart(points, k, seeds)


def spectral(d: np.ndarray, k: int, seed: int) -> np.ndarray:
    (labels,) = cluster_distances(d, ClusteringMethod.SPECTRAL, k, (seed,))
    return labels


def kmeans_mds(d: np.ndarray, k: int, seed: int) -> np.ndarray:
    (labels,) = cluster_distances(d, ClusteringMethod.KMEANS_MDS, k, (seed,))
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
        d = np.zeros((6, 6))
        with pytest.raises(NumericalError, match="median pairwise distance is zero"):
            spectral_cluster(d, 2)
        with pytest.raises(NumericalError, match="median pairwise distance is zero"):
            spectral(d, 2, seed=0)

    def test_deterministic(self):
        x, _ = make_blobs(m=30, d=4, sep=6.0, seed=4)
        d = euclidean_distance_matrix(x)
        assert np.array_equal(spectral(d, 3, seed=1), spectral(d, 3, seed=1))


class TestClassicalMds:
    def test_reconstructs_euclidean_distances(self, rng):
        points = rng.standard_normal((15, 4))
        d = euclidean_distance_matrix(points)
        coords = classical_mds(d, 4)
        assert coords.shape == (15, 4)
        rebuilt = euclidean_distance_matrix(coords)
        assert np.max(np.abs(rebuilt - d)) < 1e-8

    def test_centered_output(self, rng):
        points = rng.standard_normal((12, 3)) + 5.0
        coords = classical_mds(euclidean_distance_matrix(points), 3)
        assert np.max(np.abs(coords.mean(axis=0))) < 1e-9

    def test_collinear_points_use_one_real_dimension(self):
        t = np.linspace(0, 1, 9)
        points = np.column_stack([t, 2 * t, -t])
        coords = classical_mds(euclidean_distance_matrix(points), 5)
        norms = np.linalg.norm(coords, axis=0)
        # everything beyond the first coordinate is eigensolver noise
        assert norms[0] > 1.0
        assert np.all(norms[1:] < 1e-6)

    def test_dim_caps_output(self, rng):
        points = rng.standard_normal((10, 6))
        coords = classical_mds(euclidean_distance_matrix(points), 2)
        assert coords.shape == (10, 2)

    def test_deterministic_signs(self, rng):
        points = rng.standard_normal((10, 3))
        d = euclidean_distance_matrix(points)
        assert np.array_equal(classical_mds(d, 3), classical_mds(d, 3))


class TestKmeansOnDistances:
    def test_blobs_recovered(self):
        x, truth = make_blobs(m=36, d=8, sep=9.0, seed=6)
        d = euclidean_distance_matrix(x)
        assert same_partition(kmeans_mds(d, 3, seed=0), truth)

    def test_zero_matrix_has_no_embedding(self):
        d = np.zeros((5, 5))
        with pytest.raises(NumericalError, match="no positive eigenvalue"):
            kmeans_mds(d, 2, seed=0)

    def test_embed_dim_is_k_at_most_m_minus_1(self, monkeypatch):
        dims = []

        def spy(values, dim):
            dims.append(dim)
            return classical_mds(values, dim)

        monkeypatch.setattr(clustering, "classical_mds", spy)
        x, _ = make_blobs(m=12, d=3, sep=5.0, seed=0)
        d = euclidean_distance_matrix(x)
        assert set(kmeans_mds(d, 3, seed=0)) == {0, 1, 2}
        labels = kmeans_mds(d, 12, seed=0)
        assert labels.shape == (12,) and set(labels) <= set(range(12))
        assert dims == [3, 11]

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
            ClusteringMethod.KMEANS_MDS: classical_mds(d, 3),
        }
        for method, emb in points.items():
            labels = cluster_distances(d, method, 3, seeds)
            assert len(labels) == len(seeds)
            for seed, got in zip(seeds, labels):
                assert np.array_equal(got, kmeans_one(emb, 3, seed)[0])

    def test_k_out_of_range(self):
        x, _ = make_blobs(m=6, d=3, sep=5.0, seed=0)
        d = euclidean_distance_matrix(x)
        for method in ClusteringMethod:
            for k in (0, 7):
                with pytest.raises(ConfigError):
                    cluster_distances(d, method, k, (0,))

