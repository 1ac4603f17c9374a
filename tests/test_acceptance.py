"""Acceptance gate: each test checks one shipped guarantee end to end and
prints a single [ACCEPTANCE] PASS/FAIL line (run with -s to see them all)."""

import functools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from mgm.clustering import ClusteringMethod, cluster_distances, kmeans_euclidean
from mgm.config import config_from_mapping, load_config
from mgm.data import load_labels, load_matrix
from mgm.experiment import run_experiment
from mgm.grassmann import GrassmannMetric, distance, principal_angles
from mgm.mdr import MdrBackendSpec, build_stack, pca_reduce
from mgm.metrics import accuracy, ari, avg_purity, evaluate, nmi, purity
from mgm.pipeline import build_subspaces, distance_matrix
from mgm.scales import ScaleSamplingSpec, sample_scales

from conftest import make_blobs, random_subspace
from oracles import accuracy_by_enumeration, ari_by_pair_counting, principal_angles_deflation

ALL_METRICS = list(GrassmannMetric)
TRIANGLE_METRICS = (
    GrassmannMetric.GEODESIC,
    GrassmannMetric.CHORDAL,
    GrassmannMetric.PROCRUSTES,
)


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"[ACCEPTANCE] {name}: SKIP")
                raise
            except BaseException:
                print(f"[ACCEPTANCE] {name}: FAIL")
                raise
            print(f"[ACCEPTANCE] {name}: PASS")
            return result

        return wrapper

    return decorate


@criterion("grassmann-metric-axioms")
def test_metric_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        x = random_subspace(rng, 8, 3)
        y = random_subspace(rng, 8, 3)
        z = random_subspace(rng, 8, 3)
        for metric in ALL_METRICS:
            dxy = distance(x, y, metric)
            assert abs(dxy - distance(y, x, metric)) <= 1e-9
            assert distance(x, x, metric) <= 1e-9
            assert dxy >= 0.0
        for metric in TRIANGLE_METRICS:
            assert distance(x, y, metric) <= (
                distance(x, z, metric) + distance(z, y, metric) + 1e-9
            )
        assert distance(x, y, GrassmannMetric.CHORDAL) <= (
            distance(x, y, GrassmannMetric.GEODESIC) + 1e-12
        )
    assert time.perf_counter() - start < 5.0


@criterion("principal-angle-oracle")
def test_principal_angle_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        rx = int(rng.integers(1, min(n, 3) + 1))
        ry = int(rng.integers(1, min(n, 3) + 1))
        x = random_subspace(rng, n, rx)
        y = random_subspace(rng, n, ry)
        got = principal_angles(x, y)
        want = principal_angles_deflation(x, y)
        assert np.max(np.abs(got - want)) <= 1e-7
    assert time.perf_counter() - start < 10.0


@criterion("scale-sampling-exactness")
def test_scale_sampling_exactness():
    assert sample_scales(ScaleSamplingSpec(2, 10, 5, 1.0)) == (2, 4, 6, 8, 10)
    large = sample_scales(ScaleSamplingSpec(5, 100, 25, 2.0))
    assert len(large) <= 25
    for wanted in (5, 29, 100):
        assert wanted in large
    rng = np.random.default_rng(12)
    for _ in range(500):
        lo = int(rng.integers(2, 40))
        hi = lo + int(rng.integers(1, 300))
        spec = ScaleSamplingSpec(
            lo, hi, int(rng.integers(2, 50)), float(rng.uniform(0.1, 5.0))
        )
        scales = sample_scales(spec)
        assert scales[0] == lo
        assert scales[-1] == hi


def sixty_cell_stack():
    x, _ = make_blobs(m=60, d=20, sep=6.0, seed=7)
    scales = sample_scales(ScaleSamplingSpec(5, 20, 4, 1.6))
    spec = MdrBackendSpec(embedding_dim=10)
    return build_stack(x, scales, spec)


@criterion("pipeline-invariances")
def test_pipeline_invariances():
    stack = sixty_cell_stack()
    base = distance_matrix(build_subspaces(stack), GrassmannMetric.CHORDAL)[0]

    order = [2, 0, 3, 1]
    reordered = stack[order]
    got = distance_matrix(build_subspaces(reordered), GrassmannMetric.CHORDAL)[0]
    assert np.max(np.abs(got - base)) <= 1e-9

    factors = np.array([3.7, 0.02, 1.0, 40.0])
    rescaled = stack * factors[:, None, None]
    got = distance_matrix(build_subspaces(rescaled), GrassmannMetric.CHORDAL)[0]
    assert np.max(np.abs(got - base)) <= 1e-9

    perm = np.random.default_rng(17).permutation(60)
    permuted = stack[:, perm]
    got = distance_matrix(build_subspaces(permuted), GrassmannMetric.CHORDAL)[0]
    assert np.max(np.abs(got - base[np.ix_(perm, perm)])) == 0.0


@criterion("evaluation-metric-oracles")
def test_evaluation_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    for _ in range(50):
        m = int(rng.integers(2, 11))
        pred = rng.integers(0, int(rng.integers(1, 5)), size=m)
        truth = rng.integers(0, int(rng.integers(1, 5)), size=m)
        assert abs(accuracy(pred, truth) - accuracy_by_enumeration(pred, truth)) <= 1e-12
    for _ in range(50):
        m = int(rng.integers(2, 9))
        pred = rng.integers(0, int(rng.integers(1, 4)), size=m)
        truth = rng.integers(0, int(rng.integers(1, 4)), size=m)
        assert abs(ari(pred, truth) - ari_by_pair_counting(pred, truth)) <= 1e-12

    pred = [0, 0, 1, 1]
    truth = [0, 1, 1, 1]
    h_pred = math.log(2.0)
    h_truth = 0.75 * math.log(4.0 / 3.0) + 0.25 * math.log(4.0)
    info = (
        0.25 * math.log(0.25 / (0.5 * 0.25))
        + 0.25 * math.log(0.25 / (0.5 * 0.75))
        + 0.5 * math.log(0.5 / (0.5 * 0.75))
    )
    assert abs(nmi(pred, truth) - info / math.sqrt(h_pred * h_truth)) <= 1e-12

    pred = [0, 0, 0, 1, 1, 2]
    truth = [0, 0, 1, 1, 1, 1]
    assert abs(purity(pred, truth) - 5.0 / 6.0) <= 1e-12
    assert abs(avg_purity(pred, truth) - (2.0 / 3.0 + 2.0) / 3.0) <= 1e-12
    assert time.perf_counter() - start < 5.0


def e2e_config():
    return config_from_mapping(
        {
            "scales.min": "10",
            "scales.max": "35",
            "scales.count": "5",
            "scales.power": "1.6",
            "embedding.dim": "40",
            "pca.dim": "25",
            "metric": "chordal",
            "clustering.method": "spectral",
            "clustering.k": "3",
            "seeds": "1,3,5,7,9",
            "preprocess.normalize": "false",
            "preprocess.log1p": "false",
        }
    )


@criterion("end-to-end-synthetic-clustering")
def test_end_to_end_synthetic_clustering():
    start = time.perf_counter()
    x, truth = make_blobs(m=150, d=50, sep=6.0, seed=5)
    labels = tuple(str(t) for t in truth)
    result = run_experiment(x, e2e_config(), labels=labels, with_baselines=False)
    means = result.mean_metrics()
    assert means["ari"] >= 0.95
    assert means["acc"] >= 0.95
    assert time.perf_counter() - start < 60.0


@criterion("degradation-beats-single-scales")
def test_degradation_beats_single_scales():
    # 2 of the 5 per-scale embeddings are replaced by pure noise; pooling
    # the scales must not do worse than the average single-scale route
    x, truth = make_blobs(m=150, d=50, sep=6.0, seed=5)
    cfg = e2e_config()
    reduced = pca_reduce(x, 25)
    scale_set = sample_scales(cfg.scales)
    stack = build_stack(reduced, scale_set, cfg.embedding)
    noise = np.random.default_rng(123)
    corrupted = stack.copy()
    for idx in (1, 3):
        corrupted[idx] = noise.standard_normal(corrupted[idx].shape)

    dmat, _ = distance_matrix(build_subspaces(corrupted), GrassmannMetric.CHORDAL)
    seeds = (1, 3, 5, 7, 9)
    mgm_scores = [
        ari(labels, truth)
        for labels in cluster_distances(dmat, ClusteringMethod.SPECTRAL, 3, seeds)
    ]
    single_scores = [
        ari(labels, truth)
        for emb in corrupted
        for labels in kmeans_euclidean(emb, 3, seeds)
    ]
    assert np.mean(mgm_scores) >= np.mean(single_scores)


GSE57249_DIR = Path(
    os.environ.get(
        "MGM_GSE57249_DIR",
        Path(__file__).resolve().parent.parent / "data" / "gse57249",
    )
)


@criterion("gse57249-external-backend-parity")
def test_gse57249_external_backend_parity():
    matrix_path = GSE57249_DIR / "matrix.csv"
    labels_path = GSE57249_DIR / "labels.txt"
    pattern = GSE57249_DIR / "umap_scale_{scale}.csv"
    cfg = load_config(
        preset="setup2-tiny",
        overrides={
            "embedding.external_pattern": str(pattern),
            "clustering.k": "3",
        },
    )
    needed = [matrix_path, labels_path] + [
        Path(str(pattern).replace("{scale}", str(s)))
        for s in sample_scales(cfg.scales)
    ]
    if not all(p.is_file() for p in needed):
        pytest.skip("GSE57249 matrix, labels, or per-scale embeddings not present")
    values = load_matrix(matrix_path)
    labels = load_labels(labels_path, expected=len(values))
    result = run_experiment(values, cfg, labels=labels, with_baselines=False)
    acc = result.mean_metrics()["acc"]
    assert abs(acc - 0.9796) <= 0.05
