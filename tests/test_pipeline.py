import importlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mgm.clustering import ClusteringMethod, cluster_distances
from mgm.config import PipelineConfig, load_config
from mgm.errors import ConfigError, DataError, NumericalError
from mgm.grassmann import _CHORDAL_SQ_GUARD, _RANK_TOL, GrassmannMetric, distance, orthonormalize
from mgm.experiment import _preprocess, export_scatter
from mgm.mdr import MdrBackendSpec, build_stack
import mgm
from mgm import pipeline
from mgm.pipeline import (
    _subspace_ranks,
    build_subspaces,
    distance_matrix,
    embed_multiscale,
    run_mgm,
)
from mgm.scales import ScaleSamplingSpec

from conftest import make_blobs
from oracles import bases_per_sample
from test_grassmann import (
    cells_of,
    force_workers,
    points_of,
    points_either_side_of_both_guards,
    rank_reduced_and_replicate_cells,
)


def random_stack(m=12, n=8, p=4, seed=0):
    return np.random.default_rng(seed).standard_normal((p, m, n))


def refused_on_entry(values, message):
    """cluster_distances and export_scatter each raise ValueError matching
    message on values, before any other work."""
    with pytest.raises(ValueError, match=message):
        cluster_distances(values, ClusteringMethod.SPECTRAL, 1, (0,))
    with pytest.raises(ValueError, match=message):
        export_scatter(values, None, os.devnull)


def blob_stack(m=60):
    x, labels = make_blobs(m=m, d=20, sep=6.0, seed=7)
    scales = (5, 9, 14, 20)
    spec = MdrBackendSpec(embedding_dim=10)
    return build_stack(x, scales, spec), labels


def identical_scales_stack():
    emb = np.random.default_rng(3).standard_normal((7, 6))
    return np.array([emb, emb, emb])


def dependent_scale_stack():
    rng = np.random.default_rng(4)
    e1, e2 = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
    return np.array([e1, e2, e1 + e2])


class TestBuildSubspaces:
    def test_full_rank_stack(self):
        stack = random_stack(m=10, n=8, p=4)
        bases = build_subspaces(stack)
        assert bases.shape == (10, 8, 4)
        assert _subspace_ranks(bases).tolist() == [4] * 10

    def test_identical_embeddings_collapse_to_lines(self):
        bases = build_subspaces(identical_scales_stack())
        assert _subspace_ranks(bases).tolist() == [1] * 7
        assert not bases[:, :, 1:].any()

    def test_dependent_scale_detected(self):
        bases = build_subspaces(dependent_scale_stack())
        assert _subspace_ranks(bases).tolist() == [2] * 5

    def test_column_norms_do_not_move_the_span(self):
        stack = random_stack(m=8, n=7, p=3, seed=5)
        scaled = stack * np.array([250.0, 1.0, 1e-3])[:, None, None]
        a = build_subspaces(stack)
        b = build_subspaces(scaled)
        for qa, qb in zip(a, b):
            assert np.linalg.norm(qa @ qa.T - qb @ qb.T) < 1e-9

    def test_zero_sample_raises_with_index(self):
        emb = np.ones((4, 5))
        emb[2] = 0.0
        with pytest.raises(NumericalError, match="sample 2"):
            build_subspaces(np.array([emb, emb * 2.0]))

    @pytest.mark.parametrize("n", [5, 3], ids=["dim_equals_scales", "dim_below_scales"])
    def test_dim_at_most_the_scale_count_raises(self, n):
        # Every sample would span all of R^n, every distance rounding noise.
        message = f"embedding.dim {n} must exceed the number of sampled scales 5"
        with pytest.raises(ConfigError, match=message):
            build_subspaces(random_stack(m=6, n=n, p=5))

    def test_a_later_write_by_the_caller_does_not_reach_the_bases(self):
        # The bases are filled into an array of their own, which refuses
        # writes: a write to the embeddings afterwards changes nothing.
        stack = random_stack()
        bases = build_subspaces(stack)
        want = bases.tobytes()
        stack[:, 0] = 5.0
        assert bases.tobytes() == want
        with pytest.raises(ValueError, match="read-only"):
            bases[0, 0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            bases[1] += 1.0
        assert bases.tobytes() == want

    def test_built_arrays_are_held_without_a_copy(self):
        bases = build_subspaces(random_stack())
        assert bases.flags.owndata and bases.flags.c_contiguous and not bases.flags.writeable
        assert np.asarray(bases, dtype=float) is bases


def near_dependent_stack():
    # The third singular value is 4e-10 (kept) or 5e-11 (dropped) times the
    # first, either side of the rank rule's 1e-10.
    rng = np.random.default_rng(6)
    features = [
        np.linalg.qr(rng.standard_normal((6, 3)))[0]
        @ np.diag([1.0, 0.5, 4e-10 if k % 2 else 5e-11])
        @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
        for k in range(10)
    ]
    return np.array(features).transpose(2, 0, 1)


class TestBatchedBuild:
    """build_subspaces against one SVD per sample (oracles.bases_per_sample)."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_stack(m=16, n=8, p=4, seed=1),
            lambda: random_stack(m=13, n=8, p=4, seed=2),  # not a multiple of the chunk
            identical_scales_stack,  # rank 1
            dependent_scale_stack,  # rank 2 of 3
            near_dependent_stack,  # ranks 3 and 2
            lambda: random_stack(m=21, n=100, p=23, seed=4),  # the setup1 shape
        ],
        ids=["random", "ragged", "identical", "dependent", "near_dependent", "setup1"],
    )
    def test_bitwise_equal_to_one_svd_per_sample(self, make):
        stack = make()
        got = build_subspaces(stack)
        bases, ranks = bases_per_sample(stack, _RANK_TOL)
        assert _subspace_ranks(got).tolist() == ranks.tolist()
        if make is near_dependent_stack:
            assert ranks.tolist() == [2, 3] * 5
        assert got.shape == bases.shape
        assert got.tobytes() == bases.tobytes()

    def test_orthonormalize_at_dim_below_scales(self):
        # build_subspaces refuses n <= p; orthonormalize caps each rank at n.
        stack = random_stack(m=6, n=3, p=5, seed=3)
        got, ranks = orthonormalize(stack.transpose(1, 2, 0))
        bases, want = bases_per_sample(stack, _RANK_TOL)
        assert ranks.tolist() == want.tolist() == [3] * 6
        assert got.tobytes() == bases[:, :, :3].copy().tobytes()
        assert not bases[:, :, 3:].any()

    def test_zero_sample_past_a_chunk_boundary_is_named(self):
        emb = np.random.default_rng(5).standard_normal((12, 5))
        emb[9] = 0.0
        assert pipeline._TILE_SUBSPACES < 9
        with pytest.raises(NumericalError, match=r"sample 9\b"):
            build_subspaces(np.array([emb, emb * 2.0]))

    def test_subspace_ranks_rejects_bad_bases(self):
        # A rank is the count of nonzero columns, which must come first;
        # distance_matrix reads the ranks the same way.
        bases = np.zeros((4, 5, 3))
        bases[:, 0, 0] = 1.0
        bases[3, 1, 1] = 1.0
        assert _subspace_ranks(bases).tolist() == [1, 1, 1, 2]
        no_column = bases.copy()
        no_column[1] = 0.0
        late = bases.copy()
        late[2, 0, 0], late[2, 2, 1] = 0.0, 1.0
        for bad, message in (
            (bases[0], r"^need a nonempty \(M, n, p\) basis array, got shape \(5, 3\)$"),
            (bases[:0], r"^need a nonempty \(M, n, p\) basis array, got shape \(0, 5, 3\)$"),
            (no_column, "^sample 1 has no nonzero basis column$"),
            (late, "^sample 2 has a zero column before a nonzero one$"),
        ):
            with pytest.raises(ValueError, match=message):
                _subspace_ranks(bad)
            with pytest.raises(ValueError, match=message):
                distance_matrix(bad, GrassmannMetric.GEODESIC)


class TestDistanceMatrix:
    def test_matches_pairwise_calls(self):
        # Samples 7 and 8 repeat 1 and 4 up to a factor per scale: the same
        # spans, two replicate pairs below the chordal guard.
        values = random_stack(m=9, n=8, p=3, seed=6)
        values[:, 7] = values[:, 1] * np.array([[2.0], [0.5], [3.0]])
        values[:, 8] = values[:, 4]
        cells = build_subspaces(values)
        points = points_of(cells)
        for metric in (GrassmannMetric.CHORDAL, GrassmannMetric.GEODESIC):
            dmat, guarded_pairs = distance_matrix(cells, metric)
            assert dmat.shape == (9, 9)
            below = []
            for i in range(9):
                assert dmat[i, i] == 0.0
                for j in range(i + 1, 9):
                    want = distance(points[i], points[j], metric)
                    got = dmat[i, j]
                    if metric is GrassmannMetric.CHORDAL and want**2 < _CHORDAL_SQ_GUARD:
                        # recomputed by the per-pair call itself
                        below.append((i, j))
                        assert got == want
                    else:
                        # from the batched kernel: equal up to rounding
                        assert abs(got - want) <= 1e-12 + 1e-9 * want
                    assert dmat[j, i] == got
            assert guarded_pairs == 2
            if metric is GrassmannMetric.CHORDAL:
                assert below == [(1, 7), (4, 8)]

    def test_ranks_are_read_from_the_bases(self):
        # Every column of four orthonormal 6 x 3 bases is nonzero, so each
        # sample is rank 3 and each entry is grassmann.distance on its two
        # whole bases; a zero first column is refused, not read as rank 2.
        bases = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 6, 3)))[0]
        assert _subspace_ranks(bases).tolist() == [3] * 4
        for metric in (GrassmannMetric.GEODESIC, GrassmannMetric.CHORDAL):
            got, _ = distance_matrix(bases, metric)
            for i, j in zip(*np.triu_indices(4, 1)):
                want = distance(bases[i], bases[j], metric)
                assert abs(got[i, j] - want) <= 1e-12 + 1e-9 * want, (metric, i, j)
        bases[2, :, 0] = 0.0
        message = "^sample 2 has a zero column before a nonzero one$"
        for metric in (GrassmannMetric.GEODESIC, GrassmannMetric.CHORDAL):
            with pytest.raises(ValueError, match=message):
                distance_matrix(bases, metric)

    def test_non_orthonormal_bases_are_refused_by_name(self):
        # Six 3-dim subspaces of R^8 scaled by 1.01, a defect of 3.5e-2. No
        # chordal pair of them is guarded, so without the check on entry
        # chordal raised nothing and moved distances by up to 0.028.
        bases = build_subspaces(random_stack(m=6, n=8, p=3, seed=2))
        assert distance_matrix(bases, GrassmannMetric.CHORDAL)[1] == 0
        one_off = bases.copy()
        one_off[4] *= 1.01
        nan = bases.copy()
        nan[1, 0, 0] = np.nan
        for bad, sample in ((bases * 1.01, 0), (one_off, 4), (nan, 1)):
            for metric in (GrassmannMetric.CHORDAL, GrassmannMetric.GEODESIC):
                with pytest.raises(ValueError, match=rf"^sample {sample}: basis columns are not orthonormal"):
                    distance_matrix(bad, metric)
        # Five nonzero columns in R^3 cannot be orthonormal.
        wide = np.random.default_rng(0).standard_normal((2, 3, 5))
        assert _subspace_ranks(wide).tolist() == [5, 5]
        for metric in (GrassmannMetric.CHORDAL, GrassmannMetric.GEODESIC):
            with pytest.raises(ValueError, match=r"^sample 0: basis columns are not orthonormal"):
                distance_matrix(wide, metric)

    def test_martin_divergence_names_pair(self):
        # sample 0 spans {e0, e1}, sample 1 spans {e2, e3}: a right angle
        e = np.eye(6)
        cells = build_subspaces(np.array([[e[0], e[2]], [e[1], e[3]]]))
        with pytest.raises(NumericalError, match=r"pair \(0, 1\)"):
            distance_matrix(cells, GrassmannMetric.MARTIN)

    def test_validation_rejects_asymmetric(self):
        refused_on_entry(np.array([[0.0, 1.0], [0.5, 0.0]]), "^distance matrix is not symmetric$")

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros((2, 3)), r"must be square, got shape \(2, 3\)"),
            (np.array([[0.0, np.nan], [np.nan, 0.0]]), "has non-finite values"),
            (np.array([[0.0, -1.0], [-1.0, 0.0]]), "has negative entries"),
        ],
    )
    def test_validation_rejects_bad_values(self, values, message):
        refused_on_entry(values, message)

    def test_symmetry_is_checked_across_row_blocks(self):
        # 150 rows are three row blocks, the last one partial.
        rng = np.random.default_rng(3)
        upper = np.triu(rng.random((150, 150)), 1)
        for i, j, step, ok in ((140, 3, 1e-9, False), (3, 140, 1e-12, True), (70, 69, 1e-9, False)):
            values = upper + upper.T
            values[i, j] += step
            if ok:
                cluster_distances(values, ClusteringMethod.SPECTRAL, 1, (0,))
            else:
                refused_on_entry(values, "distance matrix is not symmetric")

    @pytest.mark.parametrize(
        "cells",
        [
            rank_reduced_and_replicate_cells,
            lambda rng: cells_of(points_either_side_of_both_guards(rng)),
        ],
        ids=["rank_reduced_and_replicate_cells", "either_side_of_both_guards"],
    )
    def test_both_triangles_hold_the_same_bits(self, rng, cells, monkeypatch):
        # Each kernel and the per-pair path write a pair into out[i, j] and
        # out[j, i] where they compute it, on whichever worker takes its row.
        cells = cells(rng)
        for metric in GrassmannMetric:
            for workers in (1, 2, 3):
                force_workers(monkeypatch, workers)
                values, _ = distance_matrix(cells, metric)
                assert values.tobytes() == values.T.copy().tobytes(), (metric, workers)
                assert not np.signbit(values).any(), (metric, workers)

    def test_validation_holds_two_row_blocks(self):
        # cluster_distances checks the matrix it is given by row blocks, with
        # no M x M temporary; at k = 1 it does nothing else.
        m = 1000
        upper = np.triu(np.random.default_rng(5).random((m, m)), 1)
        values = upper + upper.T
        tracemalloc.start()
        try:
            (labels,) = cluster_distances(values, ClusteringMethod.SPECTRAL, 1, (0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not labels.any()
        assert peak < 2 * 8 * m * pipeline._BLOCK_ROWS

    def test_distance_matrix_holds_one_matrix(self, monkeypatch):
        # Traced from the call on: the output, handed over read-only without
        # a copy, and at most two row blocks beside it. Geodesic at rank 1
        # keeps the distance kernel's share
        # small; chordal also holds its projector features, n(n+1)/2 per
        # cell, and fills the matrix by row blocks, with no M x M or
        # M(M-1)/2 temporary.
        monkeypatch.setattr(pipeline, "_cpu_count", lambda: 1)
        m = 400
        for metric, n, rank in ((GrassmannMetric.GEODESIC, 3, 1), (GrassmannMetric.CHORDAL, 8, 3)):
            features = 8 * m * n * (n + 1) // 2 if metric is GrassmannMetric.CHORDAL else 0
            columns = np.random.default_rng(8).standard_normal((m, n, rank))
            bases = np.linalg.qr(columns)[0]
            tracemalloc.start()
            try:
                dmat, _ = distance_matrix(bases, metric)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert dmat.shape == (m, m) and dmat.flags.owndata and not dmat.flags.writeable
            assert peak < 8 * m * (m + 2 * pipeline._BLOCK_ROWS) + features, metric

    def test_validation_rejects_nonzero_diagonal(self):
        bad = np.array([[0.1, 1.0], [1.0, 0.0]])
        refused_on_entry(bad, "^distance matrix diagonal must be exactly zero$")


class TestStackInvariances:
    """Distances depend only on the span of each sample's feature matrix."""

    def test_scale_order_does_not_matter(self):
        stack, _ = blob_stack()
        cells = build_subspaces(stack)
        base, _ = distance_matrix(cells, GrassmannMetric.CHORDAL)
        other, _ = distance_matrix(build_subspaces(stack[[2, 0, 3, 1]]), GrassmannMetric.CHORDAL)
        assert np.max(np.abs(base - other)) < 1e-9

    def test_per_scale_rescaling_does_not_matter(self):
        stack, _ = blob_stack()
        base, _ = distance_matrix(build_subspaces(stack), GrassmannMetric.CHORDAL)
        factors = np.array([3.7, 0.02, 1.0, 40.0])
        rescaled = stack * factors[:, None, None]
        other, _ = distance_matrix(build_subspaces(rescaled), GrassmannMetric.CHORDAL)
        assert np.max(np.abs(base - other)) < 1e-9

    def test_sample_permutation_conjugates_the_matrix(self):
        stack, _ = blob_stack()
        perm = np.random.default_rng(17).permutation(stack.shape[1])
        base, _ = distance_matrix(build_subspaces(stack), GrassmannMetric.CHORDAL)
        other, _ = distance_matrix(build_subspaces(stack[:, perm]), GrassmannMetric.CHORDAL)
        assert np.max(np.abs(base[np.ix_(perm, perm)] - other)) < 1e-12


class TestRunMgm:
    def make_config(self, **overrides):
        defaults = dict(
            scales=ScaleSamplingSpec(3, 12, 4, 1.0),
            embedding=MdrBackendSpec(embedding_dim=8),
            pca_dim=None,
            metric=GrassmannMetric.CHORDAL,
            seeds=(1,),
        )
        defaults.update(overrides)
        return PipelineConfig(**defaults)

    def test_non_2d_input_is_refused(self):
        with pytest.raises(ValueError, match=r"expected a 2-d matrix, got shape \(40,\)"):
            run_mgm(np.ones(40), self.make_config())

    def test_shapes_and_report(self):
        x, _ = make_blobs(m=40, d=15, sep=6.0, seed=3)
        cfg = self.make_config(pca_dim=10)
        bases, dmat, report, _ = run_mgm(x, cfg)
        assert bases.shape == (40, 8, 4) and not bases.flags.writeable
        assert dmat.shape == (40, 40) and not dmat.flags.writeable
        assert report.sample_count == 40
        assert report.feature_count == 15
        assert report.pca_dim == 10
        assert report.scales == (3, 6, 9, 12)
        assert report.scale_count == 4
        assert report.nominal_rank == 4
        assert report.rank_reduced_cells == 0
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

    def test_report_counts_guarded_pairs(self, monkeypatch):
        # two replicate cells among blob samples: their pair fails the guard
        x, _ = make_blobs(m=40, d=15, sep=6.0, seed=3)
        x[[17, 33]] = x[[4, 9]]
        calls = []
        real = pipeline.distance

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pipeline, "distance", spy)
        for metric in (GrassmannMetric.GEODESIC, GrassmannMetric.CHORDAL):
            calls.clear()
            _, _, report, _ = run_mgm(x, self.make_config(metric=metric))
            assert report.guarded_pairs == len(calls) >= 2
            assert report.to_dict()["guarded_pairs"] == len(calls)

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
                embedding_dim=3,
                external_pattern=str(tmp_path / "missing_{scale}.csv"),
            ),
            scales=ScaleSamplingSpec(3, 6, 2, 1.0),
        )
        with pytest.raises(DataError, match="stage 'embed'"):
            run_mgm(x, cfg)

    @pytest.mark.parametrize("metric", [GrassmannMetric.CHORDAL, GrassmannMetric.GEODESIC])
    def test_exported_stages_chained_by_hand_give_run_mgms_matrix(self, metric):
        x, _ = make_blobs(m=40, d=15, sep=6.0, seed=3)
        cfg = self.make_config(pca_dim=10, metric=metric)
        scales = mgm.sample_scales(cfg.scales)
        embeddings = mgm.build_stack(mgm.pca_reduce(x, cfg.pca_dim), scales, cfg.embedding)
        dmat, _ = mgm.distance_matrix(mgm.build_subspaces(embeddings), metric)
        _, want, report, embedding = run_mgm(x, cfg)
        assert report.scales == embedding.scales == scales
        assert embedding.values.tobytes() == embeddings.tobytes()
        assert dmat.tobytes() == want.tobytes()

    def test_deterministic_for_fixed_seed(self):
        x, _ = make_blobs(m=30, d=12, sep=6.0, seed=5)
        cfg = self.make_config()
        _, d1, _, _ = run_mgm(x, cfg)
        _, d2, _, _ = run_mgm(x, cfg)
        assert np.array_equal(d1, d2)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize(
    "preset,m,nested,want",
    [
        ("setup2-small", 120, False, {"chordal": 3, "geodesic": 11}),
        ("setup1", 200, True, {"geodesic": 4}),
    ],
)
def test_guarded_pairs_on_the_benchmark_inputs(monkeypatch, preset, m, nested, want):
    # The README's counts on the seed-5 inputs of pipeline-counts-m120 and
    # mgm-geodesic-nested-m200: a routing change that moves a pair onto or
    # off the per-pair path moves them.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    counts, _ = importlib.import_module("workloads").generate_counts(m, 5, nested=nested)
    cfg = load_config(preset=preset)
    bases = build_subspaces(embed_multiscale(_preprocess(counts, cfg), cfg).values)
    got = {metric: distance_matrix(bases, GrassmannMetric(metric))[1] for metric in want}
    assert got == want


_THREADS_CHILD = """
import sys
import numpy as np
from workloads import generate_counts
from mgm.clustering import cluster_distances
from mgm.config import load_config
from mgm.experiment import _preprocess
from mgm.pipeline import run_mgm
counts, _ = generate_counts(300, 5)
cfg = load_config(preset="setup2-small", overrides={"clustering.k": "3"})
dmat = run_mgm(_preprocess(counts, cfg), cfg)[1]
labels = cluster_distances(dmat, cfg.clustering_method, cfg.k, cfg.seeds)
np.savez(sys.argv[1], dmat=dmat, labels=np.stack(labels))
"""


def test_blas_thread_count_moves_no_label(tmp_path):
    # One process at 1 BLAS thread and one at 2, on an M = 300 setup2-small
    # input: the bits may move from PCA on, but every preset seed's labels
    # must not, and the distances agree within 1e-10.
    src = Path(mgm.__file__).resolve().parents[1]
    runs = {}
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]),
        )
        out = tmp_path / f"threads-{threads}.npz"
        runs[out] = subprocess.Popen([sys.executable, "-c", _THREADS_CHILD, str(out)], env=env)
    assert [child.wait(timeout=300) for child in runs.values()] == [0, 0]
    one, two = (np.load(out) for out in runs)
    assert one["labels"].shape == (5, 300)
    assert np.array_equal(one["labels"], two["labels"])
    assert np.max(np.abs(one["dmat"] - two["dmat"])) <= 1e-10
