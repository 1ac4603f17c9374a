import numpy as np
import pytest

from mgm.config import PipelineConfig
from mgm.errors import (
    AllColumnsZeroError,
    ConfigError,
    DataError,
    MartinDivergentError,
)
from mgm.grassmann import GrassmannMetric, distance, to_projector
from mgm.mdr import EmbeddingStack, MdrBackendSpec, MdrMethod, build_stack
from mgm.pipeline import (
    CellSubspaceSet,
    DistanceMatrix,
    aggregate_features,
    build_subspaces,
    distance_matrix,
    run_mgm,
)
from mgm.scales import ScaleSamplingSpec, ScaleSet

from conftest import make_blobs


def random_stack(m=12, n=8, p=4, seed=0):
    rng = np.random.default_rng(seed)
    scales = ScaleSet(scales=tuple(range(2, 2 + p)))
    embeddings = tuple(rng.standard_normal((m, n)) for _ in range(p))
    return EmbeddingStack(scales=scales, embeddings=embeddings)


def blob_stack(m=60):
    x, labels = make_blobs(m=m, d=20, sep=6.0, seed=7)
    scales = ScaleSet(scales=(5, 9, 14, 20))
    spec = MdrBackendSpec(MdrMethod.LAPLACIAN_EIGENMAPS, embedding_dim=10)
    return build_stack(x, scales, spec), labels


class TestAggregateFeatures:
    def test_columns_are_embedding_rows(self):
        stack = random_stack(m=6, n=5, p=3)
        for i in range(6):
            features = aggregate_features(stack, i)
            assert features.shape == (5, 3)
            for j, emb in enumerate(stack.embeddings):
                assert np.array_equal(features[:, j], emb[i])

    def test_index_out_of_range(self):
        stack = random_stack(m=6)
        with pytest.raises(IndexError):
            aggregate_features(stack, 6)
        with pytest.raises(IndexError):
            aggregate_features(stack, -1)


class TestBuildSubspaces:
    def test_full_rank_stack(self):
        stack = random_stack(m=10, n=8, p=4)
        cells = build_subspaces(stack)
        assert len(cells) == 10
        assert cells.nominal_rank == 4
        assert cells.embedding_dim == 8
        assert cells.rank_reduced_count == 0
        for sub in cells.points:
            assert sub.rank == 4

    def test_identical_embeddings_collapse_to_lines(self):
        rng = np.random.default_rng(3)
        emb = rng.standard_normal((7, 6))
        scales = ScaleSet(scales=(2, 4, 8))
        stack = EmbeddingStack(scales=scales, embeddings=(emb, emb, emb))
        cells = build_subspaces(stack)
        assert cells.rank_reduced_count == 7
        for sub in cells.points:
            assert sub.rank == 1

    def test_dependent_scale_detected(self):
        rng = np.random.default_rng(4)
        e1 = rng.standard_normal((5, 6))
        e2 = rng.standard_normal((5, 6))
        scales = ScaleSet(scales=(2, 3, 4))
        stack = EmbeddingStack(scales=scales, embeddings=(e1, e2, e1 + e2))
        cells = build_subspaces(stack)
        for sub in cells.points:
            assert sub.rank == 2

    def test_column_norms_do_not_matter_when_normalizing(self):
        stack = random_stack(m=8, n=7, p=3, seed=5)
        scaled = EmbeddingStack(
            scales=stack.scales,
            embeddings=(
                stack.embeddings[0] * 250.0,
                stack.embeddings[1],
                stack.embeddings[2] * 1e-3,
            ),
        )
        a = build_subspaces(stack, normalize_columns=True)
        b = build_subspaces(scaled, normalize_columns=True)
        for sa, sb in zip(a.points, b.points):
            pa = to_projector(sa).matrix
            pb = to_projector(sb).matrix
            assert np.linalg.norm(pa - pb) < 1e-9

    def test_zero_sample_raises_with_index(self):
        emb = np.ones((4, 5))
        emb[2] = 0.0
        scales = ScaleSet(scales=(2, 3))
        stack = EmbeddingStack(scales=scales, embeddings=(emb, emb * 2.0))
        with pytest.raises(AllColumnsZeroError, match="sample 2"):
            build_subspaces(stack)

    def test_warns_when_dim_below_scale_count(self):
        stack = random_stack(m=6, n=3, p=5)
        with pytest.warns(UserWarning, match="rank reduced"):
            cells = build_subspaces(stack)
        # rank 3 is the cap min(p, n), so nothing counts as reduced below it
        assert cells.rank_reduced_count == 0
        for sub in cells.points:
            assert sub.rank == 3


class TestDistanceMatrix:
    def test_matches_pairwise_calls(self):
        stack = random_stack(m=9, n=8, p=3, seed=6)
        cells = build_subspaces(stack)
        for metric in (GrassmannMetric.CHORDAL, GrassmannMetric.GEODESIC):
            dmat = distance_matrix(cells, metric)
            assert dmat.values.shape == (9, 9)
            for i in range(9):
                assert dmat.values[i, i] == 0.0
                for j in range(i + 1, 9):
                    want = distance(cells.points[i], cells.points[j], metric)
                    assert dmat.values[i, j] == want
                    assert dmat.values[j, i] == want

    def test_martin_divergence_names_pair(self):
        # sample 0 spans {e0, e1}, sample 1 spans {e2, e3}: a right angle
        e = np.eye(6)
        scales = ScaleSet(scales=(2, 3))
        stack = EmbeddingStack(
            scales=scales,
            embeddings=(np.array([e[0], e[2]]), np.array([e[1], e[3]])),
        )
        cells = build_subspaces(stack)
        with pytest.raises(MartinDivergentError, match=r"pair \(0, 1\)"):
            distance_matrix(cells, GrassmannMetric.MARTIN)

    def test_validation_rejects_asymmetric(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix(values=bad, metric=GrassmannMetric.CHORDAL)

    def test_validation_rejects_nonzero_diagonal(self):
        bad = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix(values=bad, metric=GrassmannMetric.CHORDAL)


class TestStackInvariances:
    """Distances depend only on the span of each sample's feature matrix."""

    def test_scale_order_does_not_matter(self):
        stack, _ = blob_stack()
        cells = build_subspaces(stack)
        base = distance_matrix(cells, GrassmannMetric.CHORDAL)
        shuffled = EmbeddingStack(
            scales=stack.scales,
            embeddings=(
                stack.embeddings[2],
                stack.embeddings[0],
                stack.embeddings[3],
                stack.embeddings[1],
            ),
        )
        other = distance_matrix(build_subspaces(shuffled), GrassmannMetric.CHORDAL)
        assert np.max(np.abs(base.values - other.values)) < 1e-9

    def test_per_scale_rescaling_does_not_matter(self):
        stack, _ = blob_stack()
        base = distance_matrix(build_subspaces(stack), GrassmannMetric.CHORDAL)
        rescaled = EmbeddingStack(
            scales=stack.scales,
            embeddings=tuple(
                emb * factor
                for emb, factor in zip(stack.embeddings, (3.7, 0.02, 1.0, 40.0))
            ),
        )
        other = distance_matrix(build_subspaces(rescaled), GrassmannMetric.CHORDAL)
        assert np.max(np.abs(base.values - other.values)) < 1e-9

    def test_sample_permutation_conjugates_the_matrix(self):
        stack, _ = blob_stack()
        perm = np.random.default_rng(17).permutation(stack.sample_count)
        permuted = EmbeddingStack(
            scales=stack.scales,
            embeddings=tuple(emb[perm] for emb in stack.embeddings),
        )
        base = distance_matrix(build_subspaces(stack), GrassmannMetric.CHORDAL)
        other = distance_matrix(build_subspaces(permuted), GrassmannMetric.CHORDAL)
        assert np.max(np.abs(base.values[np.ix_(perm, perm)] - other.values)) < 1e-12


class TestRunMgm:
    def make_config(self, **overrides):
        defaults = dict(
            scales=ScaleSamplingSpec(3, 12, 4, 1.0),
            embedding=MdrBackendSpec(MdrMethod.LAPLACIAN_EIGENMAPS, embedding_dim=8),
            pca_dim=None,
            metric=GrassmannMetric.CHORDAL,
            seeds=(1,),
        )
        defaults.update(overrides)
        return PipelineConfig(**defaults)

    def test_shapes_and_report(self):
        x, _ = make_blobs(m=40, d=15, sep=6.0, seed=3)
        cfg = self.make_config(pca_dim=10)
        cells, dmat, report, _ = run_mgm(x, cfg)
        assert isinstance(cells, CellSubspaceSet)
        assert len(cells) == 40
        assert cells.embedding_dim == 8
        assert dmat.values.shape == (40, 40)
        assert report.sample_count == 40
        assert report.feature_count == 15
        assert report.pca_dim == 10
        assert report.scales == (3, 6, 9, 12)
        assert report.scale_count == 4
        assert report.nominal_rank == 4
        assert report.metric == "chordal"
        assert report.seed == 1
        assert set(report.stage_seconds) == {
            "scales",
            "pca",
            "embed",
            "subspaces",
            "distances",
        }
        payload = report.to_dict()
        assert payload["scales"] == [3, 6, 9, 12]

    def test_max_scale_clamped_to_sample_count(self):
        x, _ = make_blobs(m=20, d=10, sep=6.0, seed=4)
        cfg = self.make_config(scales=ScaleSamplingSpec(3, 50, 5, 1.0))
        _, _, report, _ = run_mgm(x, cfg)
        assert report.scales[-1] == 19

    def test_min_scale_too_large_fails_in_scales_stage(self):
        x = np.random.default_rng(0).standard_normal((6, 5))
        cfg = self.make_config(scales=ScaleSamplingSpec(10, 20, 3, 1.0))
        with pytest.raises(ConfigError, match="stage 'scales'"):
            run_mgm(x, cfg)

    def test_embed_stage_annotates_errors(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((10, 5))
        cfg = self.make_config(
            embedding=MdrBackendSpec(
                MdrMethod.EXTERNAL,
                embedding_dim=3,
                external_pattern=str(tmp_path / "missing_{scale}.csv"),
            ),
            scales=ScaleSamplingSpec(3, 6, 2, 1.0),
        )
        with pytest.raises(DataError, match="stage 'embed'"):
            run_mgm(x, cfg)

    def test_deterministic_for_fixed_seed(self):
        x, _ = make_blobs(m=30, d=12, sep=6.0, seed=5)
        cfg = self.make_config()
        _, d1, _, _ = run_mgm(x, cfg)
        _, d2, _, _ = run_mgm(x, cfg)
        assert np.array_equal(d1.values, d2.values)
