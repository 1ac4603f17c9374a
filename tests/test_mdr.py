import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mgm import mdr
from mgm.errors import ConfigError, DataError, NumericalError
from mgm.grassmann import GrassmannMetric
from mgm.mdr import (
    MdrBackendSpec,
    build_stack,
    laplacian_eigenmaps,
    pca_reduce,
)
from mgm.pipeline import build_subspaces, distance_matrix

from conftest import make_blobs
from oracles import laplacian_eigenmaps_dense, pca_by_covariance, pca_by_svd


def noisy_curve(m=200, seed=7):
    """Points along a jittered 1-d curve in R^6. Its kNN graph is a thick
    path, so the bottom Laplacian eigenvalues are distinct and separated."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, m) + 0.001 * rng.standard_normal(m)
    x = np.column_stack([t, 0.3 * np.sin(3 * t), 0.2 * np.cos(5 * t)])
    x += 0.002 * rng.standard_normal(x.shape)
    return np.column_stack([x, 0.001 * rng.standard_normal((m, 3))])


def assert_same_up_to_column_sign(got, want, tol):
    for j in range(want.shape[1]):
        delta = min(
            np.max(np.abs(got[:, j] - want[:, j])),
            np.max(np.abs(got[:, j] + want[:, j])),
        )
        assert delta < tol


def spy_on_eigh(monkeypatch):
    """Record the keyword arguments of every scipy.linalg.eigh call in mdr."""
    calls = []
    real = mdr.scipy.linalg.eigh

    def spy(a, **kwargs):
        calls.append(kwargs)
        return real(a, **kwargs)

    monkeypatch.setattr(mdr.scipy.linalg, "eigh", spy)
    return calls


def block_sq_dists(x):
    """Every row of the pairwise squared distances, computed in the neighbor
    graph's row blocks so each row rounds as it does there."""
    sq = mdr._squared_norms(x)
    blocks = mdr._row_blocks(0, x.shape[0])
    return np.vstack([mdr._pairwise_sq_dists(x, b, sq) for b in blocks])


def projector(emb):
    q, _ = np.linalg.qr(emb)
    return q @ q.T


def two_blob_data(m=40, d=6, sep=8.0, seed=0):
    rng = np.random.default_rng(seed)
    half = m // 2
    x = rng.standard_normal((m, d))
    x[half:, 0] += sep
    labels = np.repeat([0, 1], half)
    return x, labels


class TestPcaReduce:
    def test_matches_covariance_oracle(self, rng):
        for _ in range(20):
            m = int(rng.integers(5, 30))
            n = int(rng.integers(3, 12))
            dim = int(rng.integers(1, min(m, n) + 1))
            x = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0, size=n)
            got = pca_reduce(x, dim)
            want = pca_by_covariance(x, dim)
            # each score column is determined up to sign
            for j in range(dim):
                delta = min(
                    np.max(np.abs(got[:, j] - want[:, j])),
                    np.max(np.abs(got[:, j] + want[:, j])),
                )
                assert delta < 1e-8

    def test_non_2d_input_is_refused(self):
        with pytest.raises(ValueError, match=r"expected a 2-d array, got shape \(6,\)"):
            pca_reduce(np.arange(6.0), 1)

    def test_line_collapses_to_one_component(self):
        t = np.linspace(-2.0, 2.0, 11)
        x = np.column_stack([3.0 * t, -4.0 * t])
        scores = pca_reduce(x, 1)
        # points on a line through the origin, direction (3, -4)/5
        assert np.allclose(np.abs(scores[:, 0]), np.abs(5.0 * t), atol=1e-12)

    def test_full_rank_projection_preserves_distances(self, rng):
        x = rng.standard_normal((15, 6))
        scores = pca_reduce(x, 6)
        for i in range(0, 15, 3):
            for j in range(15):
                orig = np.linalg.norm(x[i] - x[j])
                proj = np.linalg.norm(scores[i] - scores[j])
                assert abs(orig - proj) < 1e-9

    def test_scores_are_centered(self, rng):
        x = rng.standard_normal((20, 5)) + 7.0
        scores = pca_reduce(x, 3)
        assert np.max(np.abs(scores.mean(axis=0))) < 1e-10

    def test_deterministic(self, rng):
        x = rng.standard_normal((12, 7))
        a = pca_reduce(x, 4)
        b = pca_reduce(x, 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "m, n, dim",
        [
            (m, n, dim)
            for m in (400, 1000)
            for n in (200, 500)
            for dim in (5, 20, 50)
            if (dim + 1) * mdr._SUBSET_SOLVER_RATIO <= min(m, n)
        ],
    )
    def test_gram_tier_matches_svd_oracle(self, monkeypatch, m, n, dim):
        rng = np.random.default_rng(m + n + dim)
        x = rng.standard_normal((m, n)) * rng.uniform(0.5, 3.0, size=n)
        calls = spy_on_eigh(monkeypatch)
        got = pca_reduce(x, dim)
        short = min(m, n)
        assert calls == [{"subset_by_index": [short - dim, short - 1]}]
        assert_same_up_to_column_sign(got, pca_by_svd(x, dim), 1e-9)

    @pytest.mark.parametrize("dim", [5, 17])
    def test_wide_data_uses_the_sample_gram(self, monkeypatch, dim):
        # With far more genes than cells the Gram matrix is cells x cells.
        m, n = 150, 3000
        rng = np.random.default_rng(dim)
        x = np.log1p(rng.poisson(np.exp(rng.normal(0.0, 1.0, n)), size=(m, n)))
        shapes = []
        real = mdr.scipy.linalg.eigh

        def spy(a, **kwargs):
            shapes.append((a.shape, kwargs))
            return real(a, **kwargs)

        monkeypatch.setattr(mdr.scipy.linalg, "eigh", spy)
        got = pca_reduce(x, dim)
        assert shapes == [((m, m), {"subset_by_index": [m - dim, m - 1]})]
        # the loading signs are fixed too
        assert np.max(np.abs(got - pca_by_svd(x, dim))) < 1e-9

    def test_wide_data_below_dim_rank(self):
        # rank 3 < dim: the last dim - 3 scores come from null directions
        # of the Gram and must stay near zero, not blow up dividing by s
        m, n, dim = 100, 2000, 10
        rng = np.random.default_rng(4)
        x = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
        got = pca_reduce(x, dim)
        want = pca_by_svd(x, dim)
        assert np.max(np.abs(got[:, :3] - want[:, :3])) < 1e-9
        assert np.max(np.abs(got[:, 3:])) < 1e-6 * np.max(np.abs(want))

    def test_gram_tier_with_replicate_rows(self):
        # log counts with a fifth of the cells repeated exactly
        rng = np.random.default_rng(3)
        x = np.log1p(rng.poisson(np.exp(rng.normal(0.0, 1.0, 300)), size=(600, 300)))
        x[::5] = x[1::5]
        assert_same_up_to_column_sign(pca_reduce(x, 20), pca_by_svd(x, 20), 1e-9)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_tier_cutoff(self, monkeypatch, offset, transpose):
        # min(M, N) one below, at and one above (dim + 1) * ratio
        dim = 5
        short = (dim + 1) * mdr._SUBSET_SOLVER_RATIO + offset
        shape = (short, 70) if transpose else (70, short)
        x = np.random.default_rng(short).standard_normal(shape)
        calls = spy_on_eigh(monkeypatch)
        got = pca_reduce(x, dim)
        if offset < 0:
            assert calls == []
            assert np.array_equal(got, pca_by_svd(x, dim))
        else:
            assert len(calls) == 1
            assert_same_up_to_column_sign(got, pca_by_svd(x, dim), 1e-9)

    @pytest.mark.parametrize("dim", [0, -1, 8])
    def test_dim_out_of_range(self, rng, dim):
        x = rng.standard_normal((10, 7))
        message = f"pca.dim {dim} is outside [1, min(M, N)] = [1, 7]"
        with pytest.raises(ConfigError, match=re.escape(message)):
            pca_reduce(x, dim)


class TestLaplacianEigenmaps:
    def test_shape(self):
        x, _ = two_blob_data()
        emb = laplacian_eigenmaps(x, n_neighbors=5, dim=3)
        assert emb.shape == (40, 3)
        assert np.all(np.isfinite(emb))

    def test_two_blobs_split_on_first_coordinate(self):
        x, labels = two_blob_data(sep=12.0)
        emb = laplacian_eigenmaps(x, n_neighbors=5, dim=2)
        signs = emb[:, 0] > 0
        # the leading coordinate separates the components, one side per blob
        assert len(np.unique(signs[labels == 0])) == 1
        assert len(np.unique(signs[labels == 1])) == 1
        assert signs[0] != signs[-1]

    def test_degree_weighted_orthogonality(self):
        # columns y_i satisfy y_i' D y_j = delta_ij for the graph degree D
        x, _ = two_blob_data(m=30, seed=3)
        emb = laplacian_eigenmaps(x, n_neighbors=6, dim=4)
        from mgm.mdr import _BACKGROUND_AFFINITY

        d2 = block_sq_dists(x)
        order = np.argsort(d2, axis=1, kind="stable")
        neighbors = order[:, 1:7]
        sigma = np.sqrt(d2[np.arange(30), order[:, 3]])
        mask = np.zeros((30, 30), dtype=bool)
        mask[np.arange(30)[:, None], neighbors] = True
        mask |= mask.T
        affinity = np.where(mask, np.exp(-d2 / np.outer(sigma, sigma)), 0.0)
        affinity = affinity + _BACKGROUND_AFFINITY
        np.fill_diagonal(affinity, 0.0)
        degree = affinity.sum(axis=1)
        gram = emb.T @ (emb * degree[:, None])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-6

    def test_row_permutation_equivariance_of_span(self):
        # permuting the samples permutes the embedding rows; compare spans
        # because eigenvectors are only defined up to sign and rotation
        x, _ = two_blob_data(m=24, seed=5)
        rng = np.random.default_rng(11)
        perm = rng.permutation(24)
        emb = laplacian_eigenmaps(x, n_neighbors=5, dim=3)
        emb_p = laplacian_eigenmaps(x[perm], n_neighbors=5, dim=3)
        q1, _ = np.linalg.qr(emb[perm])
        q2, _ = np.linalg.qr(emb_p)
        assert np.linalg.norm(q1 @ q1.T - q2 @ q2.T) < 1e-6

    def test_deterministic(self):
        x, _ = two_blob_data(m=20, seed=9)
        a = laplacian_eigenmaps(x, n_neighbors=4, dim=3)
        b = laplacian_eigenmaps(x, n_neighbors=4, dim=3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [0, 1, 20, 25])
    def test_neighbor_count_out_of_range(self, k):
        x = np.random.default_rng(0).standard_normal((20, 4))
        with pytest.raises(ConfigError, match=f"scale {k} needs"):
            laplacian_eigenmaps(x, n_neighbors=k, dim=2)

    def test_dim_needs_enough_samples(self):
        x = np.random.default_rng(0).standard_normal((6, 4))
        with pytest.raises(ConfigError, match=r"^embedding\.dim 6 needs at least 7 samples$"):
            laplacian_eigenmaps(x, n_neighbors=3, dim=6)


class TestNeighborGraph:
    """The blockwise neighbor graph against a stable argsort of the full
    pairwise squared distances."""

    @staticmethod
    def assert_matches_full_sort(x, k):
        d2 = block_sq_dists(x)
        want = np.argsort(d2, axis=1, kind="stable")[:, : k + 1]
        dists, order = mdr._neighbor_graph(x, k)
        assert np.array_equal(order, want)
        assert np.array_equal(dists, np.take_along_axis(d2, want, axis=1))

    @pytest.mark.parametrize(
        "m, k",
        [
            (2 * mdr._NEIGHBOR_BLOCK_ROWS + 37, 15),  # last block partial
            (mdr._NEIGHBOR_BLOCK_ROWS // 2, 15),  # one block
            (30, 29),  # k + 1 == M
            (mdr._NEIGHBOR_BLOCK_ROWS + 9, mdr._NEIGHBOR_BLOCK_ROWS + 8),
        ],
    )
    def test_random_points(self, m, k):
        x = np.random.default_rng(m).standard_normal((m, 7))
        self.assert_matches_full_sort(x, k)
        dists, order = mdr._neighbor_graph(x, k)
        assert np.array_equal(order[:, 0], np.arange(m))
        assert np.all(dists[:, 0] == 0.0)

    @pytest.mark.parametrize("k", [3, 6, 10, 21])
    def test_ties_across_the_cut_and_block_boundary(self, k):
        # A 21 x 21 integer lattice: the 4 points at distance 1 and the 4 at
        # sqrt(2) tie, so the k-th neighbor falls inside a tied shell. Rows
        # on either side of the first block boundary are lattice neighbors,
        # and exact duplicates sit on both sides of it.
        b = mdr._NEIGHBOR_BLOCK_ROWS
        grid = np.arange(21.0)
        x = np.column_stack([np.repeat(grid, 21), np.tile(grid, 21)])
        assert x.shape[0] > b
        x[[b, b + 1, 7]] = x[b - 1]
        x[b - 2] = x[b + 2]
        self.assert_matches_full_sort(x, k)

    def test_edge_weights_are_symmetric_and_sorted(self):
        # Row blocks of the Gram matrix need not round symmetrically, so each
        # unordered pair must take a single squared distance.
        m, k = 2 * mdr._NEIGHBOR_BLOCK_ROWS + 37, 15
        x = np.random.default_rng(m).standard_normal((m, 7))
        rows, cols, weights = mdr._knn_edges(*mdr._neighbor_graph(x, k), k)
        assert np.all(np.diff(rows * m + cols) > 0)
        dense = np.zeros((m, m))
        dense[rows, cols] = weights
        assert np.array_equal(dense, dense.T)

    def test_memory_stays_below_one_square_array(self):
        m, k = 3000, 50
        x = np.random.default_rng(0).standard_normal((m, 50))
        tracemalloc.start()
        try:
            dists, order = mdr._neighbor_graph(x, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert order.shape == dists.shape == (m, k + 1)
        assert peak < m * m * 8

    def test_a_graph_narrower_than_the_scale_is_refused(self):
        # A graph serves every scale up to the one it was built for, and a
        # larger scale is named with the graph's width, not left to fail
        # inside the edge arrays.
        x = np.random.default_rng(4).standard_normal((200, 6))
        graph = mdr._neighbor_graph(x, 5)
        at_width = laplacian_eigenmaps(x, 5, 4, graph=graph)
        assert np.array_equal(at_width, laplacian_eigenmaps(x, 5, 4))
        with pytest.raises(ValueError, match="^graph has 5 neighbors, fewer than scale 10$"):
            laplacian_eigenmaps(x, 10, 4, graph=graph)

    def test_a_graph_of_other_samples_is_refused(self):
        # A graph is only the graph of the x it was built on: one of more or
        # fewer rows is named, not embedded.
        x = np.random.default_rng(4).standard_normal((200, 6))
        for rows, samples in ((100, 200), (200, 100)):
            graph = mdr._neighbor_graph(x[:rows], 5)
            with pytest.raises(ValueError, match=f"^graph has {rows} rows, x has {samples}$"):
                laplacian_eigenmaps(x[:samples], 5, 4, graph=graph)


class TestBackendSpec:
    def test_dim_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            MdrBackendSpec(embedding_dim=1)

    def test_external_needs_scale_placeholder(self):
        for pattern in ("emb.csv", ""):
            with pytest.raises(ValueError, match="lacks '{scale}'"):
                MdrBackendSpec(embedding_dim=3, external_pattern=pattern)
        spec = MdrBackendSpec(embedding_dim=3, external_pattern="emb_{scale}.csv")
        assert spec.external_pattern == "emb_{scale}.csv"


class TestExternalBackend:
    def test_reads_files_verbatim(self, tmp_path, rng):
        want = rng.standard_normal((8, 3))
        path = tmp_path / "emb_5.csv"
        np.savetxt(path, want, delimiter=",", fmt="%.17g")
        spec = MdrBackendSpec(
            embedding_dim=3, external_pattern=str(tmp_path / "emb_{scale}.csv")
        )
        stack = build_stack(np.zeros((8, 2)), (5,), spec)
        assert np.allclose(stack[:, :, 0], want, atol=1e-15)

    def test_header_and_id_column_load(self, tmp_path, rng):
        # The layout of pandas' DataFrame.to_csv with named rows and columns.
        want = rng.standard_normal((8, 3))
        rows = [",dim_0,dim_1,dim_2"] + [
            f"cell_{i}," + ",".join(f"{v:.17g}" for v in row) for i, row in enumerate(want)
        ]
        (tmp_path / "emb_5.csv").write_text("\n".join(rows) + "\n")
        spec = MdrBackendSpec(
            embedding_dim=3, external_pattern=str(tmp_path / "emb_{scale}.csv")
        )
        stack = build_stack(np.zeros((8, 2)), (5,), spec)
        assert np.array_equal(stack[:, :, 0], want)

    def test_missing_file_raises(self, tmp_path):
        spec = MdrBackendSpec(
            embedding_dim=3, external_pattern=str(tmp_path / "emb_{scale}.csv")
        )
        with pytest.raises(DataError, match="scale 7"):
            build_stack(np.zeros((8, 2)), (7,), spec)

    def test_unreadable_file_raises(self, tmp_path):
        (tmp_path / "emb_7.csv").mkdir()
        spec = MdrBackendSpec(
            embedding_dim=3, external_pattern=str(tmp_path / "emb_{scale}.csv")
        )
        with pytest.raises(DataError, match=r"scale 7: cannot read .*emb_7\.csv"):
            build_stack(np.zeros((8, 2)), (7,), spec)

    def test_empty_file_raises_without_warning(self, tmp_path):
        (tmp_path / "emb_5.csv").write_text("")
        spec = MdrBackendSpec(
            embedding_dim=3, external_pattern=str(tmp_path / "emb_{scale}.csv")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="emb_5.csv is empty"):
                build_stack(np.zeros((8, 2)), (5,), spec)

    def test_wrong_shape_raises(self, tmp_path, rng):
        path = tmp_path / "emb_5.csv"
        np.savetxt(path, rng.standard_normal((8, 2)), delimiter=",")
        spec = MdrBackendSpec(
            embedding_dim=3, external_pattern=str(tmp_path / "emb_{scale}.csv")
        )
        with pytest.raises(DataError, match="shape"):
            build_stack(np.zeros((8, 2)), (5,), spec)


class TestBuildStack:
    def test_shapes_and_order(self):
        x, _ = two_blob_data(m=30)
        scales = (3, 5, 8)
        spec = MdrBackendSpec(embedding_dim=4)
        stack = build_stack(x, scales, spec)
        assert stack.shape == (30, 4, 3)
        for scale, emb in zip(scales, np.moveaxis(stack, 2, 0)):
            assert np.array_equal(emb, laplacian_eigenmaps(x, scale, 4))

    def test_error_names_offending_scale(self):
        x, _ = two_blob_data(m=10)
        scales = (3, 9, 12)
        spec = MdrBackendSpec(embedding_dim=3)
        with pytest.raises(ConfigError, match="scale 12"):
            build_stack(x, scales, spec)

    def test_empty_scale_tuple_is_a_config_error(self, tmp_path, monkeypatch):
        # Refused before any neighbour graph is built, and with an external
        # pattern too, where no graph is built at all.
        def graph(*args):
            raise AssertionError("built a neighbour graph")

        monkeypatch.setattr(mdr, "_neighbor_graph", graph)
        x, _ = two_blob_data(m=10)
        pattern = str(tmp_path / "emb_{scale}.csv")
        for spec in (MdrBackendSpec(embedding_dim=3), MdrBackendSpec(3, pattern)):
            with pytest.raises(ConfigError, match=r"^scales \(\) holds no scale to embed at$"):
                build_stack(x, (), spec)

    def test_stack_validates_matching_shapes(self):
        # build_subspaces takes build_stack's (M, n, p) array and no other rank
        for shape in ((2, 4), (2, 4, 5, 1)):
            with pytest.raises(ValueError, match=r"need an \(M, n, p\) array"):
                build_subspaces(np.ones(shape))

    def test_non_finite_value_names_its_scale(self, monkeypatch):
        real = mdr.laplacian_eigenmaps

        def infinite_at_scale_5(x, scale, dim, graph=None):
            emb = real(x, scale, dim, graph=graph)
            if scale == 5:
                emb[3, 0] = np.inf
            return emb

        monkeypatch.setattr(mdr, "laplacian_eigenmaps", infinite_at_scale_5)
        x, _ = two_blob_data(m=30)
        with pytest.raises(NumericalError, match="^embedding for scale 5 has non-finite values$"):
            build_stack(x, (3, 5, 8), MdrBackendSpec(embedding_dim=4))

    def test_stack_embeddings_are_immutable(self):
        x, _ = two_blob_data(m=20)
        values = build_stack(x, (2, 3), MdrBackendSpec(embedding_dim=2))
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0, 0, 0] = 5.0
        with pytest.raises(ValueError):
            values[1] += 1.0

    def test_built_stack_is_held_without_a_copy(self):
        x, _ = two_blob_data(m=60)
        values = build_stack(x, (3, 5, 8), MdrBackendSpec(embedding_dim=4))
        assert values.shape == (60, 4, 3) and values.flags.c_contiguous
        assert values.flags.owndata and not values.flags.writeable
        # np.asarray hands it back uncopied; build_subspaces then copies it
        # once, since it is read-only, and leaves it as it was
        assert np.asarray(values, dtype=float) is values
        before = values.tobytes()
        assert not np.shares_memory(build_subspaces(values), values)
        assert values.tobytes() == before and not values.flags.writeable

    def test_blob_stack_is_reproducible(self):
        x, _ = make_blobs(m=45, d=10, sep=7.0, seed=2)
        scales = (4, 8, 14)
        spec = MdrBackendSpec(embedding_dim=5)
        a = build_stack(x, scales, spec)
        b = build_stack(x, scales, spec)
        assert np.array_equal(a, b)

    def test_neighbor_graph_built_once(self, monkeypatch):
        counts = {"dists": 0, "graphs": 0, "embeds": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(mdr, "_pairwise_sq_dists", counted("dists", mdr._pairwise_sq_dists))
        monkeypatch.setattr(mdr, "_neighbor_graph", counted("graphs", mdr._neighbor_graph))
        monkeypatch.setattr(
            mdr, "laplacian_eigenmaps", counted("embeds", mdr.laplacian_eigenmaps)
        )
        x, _ = two_blob_data(m=30)
        spec = MdrBackendSpec(embedding_dim=4)
        build_stack(x, (3, 5, 8), spec)
        assert counts == {"dists": 1, "graphs": 1, "embeds": 3}


class TestDenseOracleParity:
    """The shared neighbor graph and the bottom-eigenpair solver against a
    from-scratch dense full-spectrum embedding per scale."""

    SCALES = (6, 10, 15)

    def test_subset_solver_spans_match_dense(self):
        # (dim + 1) * 8 = 48 <= M = 200: the subset solver runs
        x = noisy_curve()
        spec = MdrBackendSpec(embedding_dim=5)
        stack = build_stack(x, self.SCALES, spec)
        for scale, emb in zip(self.SCALES, np.moveaxis(stack, 2, 0)):
            want = laplacian_eigenmaps_dense(x, scale, 5)
            assert np.max(np.abs(projector(emb) - projector(want))) < 1e-10
            assert np.array_equal(laplacian_eigenmaps(x, scale, 5), emb)

    @pytest.mark.parametrize("metric", [GrassmannMetric.CHORDAL, GrassmannMetric.GEODESIC])
    def test_subset_solver_distances_match_dense(self, metric):
        x = noisy_curve()
        spec = MdrBackendSpec(embedding_dim=5)
        shared = build_stack(x, self.SCALES, spec)
        dense = np.stack([laplacian_eigenmaps_dense(x, s, 5) for s in self.SCALES], axis=2)

        def distances(stack):
            # every 4th sample keeps the per-pair distance loop short
            return distance_matrix(build_subspaces(stack[::4]), metric)[0]

        assert np.max(np.abs(distances(shared) - distances(dense))) < 1e-10

    @pytest.mark.parametrize("m, dim", [(40, 5), (47, 5), (30, 15)])
    def test_full_solver_equals_dense(self, m, dim):
        # (dim + 1) * 8 > M: the full dense solver runs, bit for bit
        x, _ = make_blobs(m=m, d=8, sep=6.0, seed=m)
        scales = (3, 7, m - 1)
        spec = MdrBackendSpec(embedding_dim=dim)
        stack = build_stack(x, scales, spec)
        for scale, emb in zip(scales, np.moveaxis(stack, 2, 0)):
            want = laplacian_eigenmaps_dense(x, scale, dim)
            assert np.array_equal(emb, want)
            assert np.array_equal(laplacian_eigenmaps(x, scale, dim), want)

    @pytest.mark.parametrize("m, subset", [(47, False), (48, True), (200, True)])
    def test_solver_cutoff(self, monkeypatch, m, subset):
        calls = []
        real = mdr.scipy.linalg.eigh

        def spy(a, **kwargs):
            calls.append(kwargs)
            return real(a, **kwargs)

        monkeypatch.setattr(mdr.scipy.linalg, "eigh", spy)
        laplacian_eigenmaps(noisy_curve(m), 6, 5)
        assert calls == ([{"subset_by_index": [0, 5]}] if subset else [])

    def test_duplicate_samples_have_finite_embedding(self):
        # 12 copies of one point: its bandwidth is 0 at every scale up to 24
        x = noisy_curve(m=40)
        x[1:13] = x[0]
        for scale in (5, 10, 24):
            emb = laplacian_eigenmaps(x, scale, 5)
            assert np.all(np.isfinite(emb))
            assert np.array_equal(emb, laplacian_eigenmaps_dense(x, scale, 5))


class TestLanczosTier:
    """From _SPARSE_SOLVER_MIN_SAMPLES samples on, subset-sized solves run
    Lanczos on the sparse graph; checked against the from-scratch dense
    full-spectrum embedding."""

    SCALES = (6, 10, 15)

    def distances(self, stack, metric):
        # every 12th sample keeps the per-pair distance loop short
        return distance_matrix(build_subspaces(stack[::12]), metric)[0]

    @pytest.mark.parametrize("data, dim", [("curve", 5), ("curve", 20), ("blobs", 5)])
    def test_spans_match_dense(self, data, dim):
        m = 600
        assert m >= mdr._SPARSE_SOLVER_MIN_SAMPLES and (dim + 1) * 8 <= m
        # sep=60 leaves the three blobs' kNN graphs disconnected
        x = noisy_curve(m=m) if data == "curve" else make_blobs(m=m, sep=60.0)[0]
        spec = MdrBackendSpec(embedding_dim=dim)
        stack = build_stack(x, self.SCALES, spec)
        for scale, emb in zip(self.SCALES, np.moveaxis(stack, 2, 0)):
            want = laplacian_eigenmaps_dense(x, scale, dim)
            assert np.max(np.abs(projector(emb) - projector(want))) < 1e-10
            assert np.array_equal(laplacian_eigenmaps(x, scale, dim), emb)

    @pytest.mark.parametrize("dim, tol", [(5, 1e-9), (20, 1e-10)])
    def test_distances_match_dense(self, dim, tol):
        # Distances see each eigenvector, not only the span, so they are as
        # well determined as the eigengaps allow. At dim 5 the dense oracle
        # itself moves by up to 1.2e-10 when the samples are permuted.
        # (Blobs are not checked: their two bottom nontrivial eigenvalues
        # nearly coincide, so no solver pins those two vectors.)
        x = noisy_curve(m=600)
        spec = MdrBackendSpec(embedding_dim=dim)
        stack = build_stack(x, self.SCALES, spec)
        dense = np.stack([laplacian_eigenmaps_dense(x, s, dim) for s in self.SCALES], axis=2)
        for metric in (GrassmannMetric.CHORDAL, GrassmannMetric.GEODESIC):
            got = self.distances(stack, metric)
            want = self.distances(dense, metric)
            assert np.max(np.abs(got - want)) < tol

    @pytest.mark.parametrize("scale, tol", [(5, 1e-9), (10, 1e-10), (24, 1e-10)])
    def test_duplicate_samples_match_dense(self, scale, tol):
        # 12 copies of one point, nearly cut off from the rest of the graph;
        # at scale 5 the dense oracle's own eigengap limits the agreement
        x = noisy_curve(m=600)
        x[1:13] = x[0]
        emb = laplacian_eigenmaps(x, scale, 5)
        assert np.all(np.isfinite(emb))
        want = laplacian_eigenmaps_dense(x, scale, 5)
        assert np.max(np.abs(projector(emb) - projector(want))) < tol

    @pytest.mark.parametrize("offset, lanczos", [(-1, False), (0, True)])
    def test_eigsh_once_per_scale_from_floor(self, monkeypatch, offset, lanczos):
        calls = []
        real = mdr.scipy.sparse.linalg.eigsh

        def spy(*args, **kwargs):
            calls.append(kwargs["k"])
            return real(*args, **kwargs)

        monkeypatch.setattr(mdr.scipy.sparse.linalg, "eigsh", spy)
        x = noisy_curve(m=mdr._SPARSE_SOLVER_MIN_SAMPLES + offset)
        spec = MdrBackendSpec(embedding_dim=5)
        build_stack(x, self.SCALES, spec)
        assert calls == ([5] * len(self.SCALES) if lanczos else [])

    def test_deterministic(self):
        x = noisy_curve(m=600)
        assert np.array_equal(laplacian_eigenmaps(x, 10, 5), laplacian_eigenmaps(x, 10, 5))

    def test_no_convergence_falls_back_to_dense_subset(self, monkeypatch):
        floor = mdr._SPARSE_SOLVER_MIN_SAMPLES
        x = noisy_curve(m=floor)
        monkeypatch.setattr(mdr, "_SPARSE_SOLVER_MIN_SAMPLES", floor + 1)
        subset = laplacian_eigenmaps(x, 10, 5)
        monkeypatch.setattr(mdr, "_SPARSE_SOLVER_MIN_SAMPLES", floor)

        def fail(*args, **kwargs):
            raise mdr.scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(mdr.scipy.sparse.linalg, "eigsh", fail)
        assert np.array_equal(laplacian_eigenmaps(x, 10, 5), subset)
