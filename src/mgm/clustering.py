"""Clustering on a precomputed distance matrix.

Two routes are provided: spectral clustering on a Gaussian affinity built
from the distances, and k-means on a classical multidimensional-scaling
embedding of the distances. Each route embeds the matrix once, without a
seed; the shared k-means core then runs per seed and is fully deterministic
given one.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, DegenerateAffinityError, DegenerateEmbeddingError
from .mdr import _fix_column_signs, _normalized_laplacian
from .pipeline import DistanceMatrix

__all__ = [
    "ClusteringMethod",
    "kmeans",
    "kmeans_euclidean",
    "spectral_cluster",
    "cluster_distances",
    "classical_mds",
]

_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 300
_KMEANS_REL_TOL = 1e-6


class ClusteringMethod(enum.Enum):
    SPECTRAL = "spectral"
    KMEANS_MDS = "kmeans-mds"


def _sq_dists_to(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        + np.sum(centers**2, axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    m = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(m))]
    closest = _sq_dists_to(points, centers[:1])[:, 0]
    for c in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            idx = int(rng.integers(m))
        else:
            idx = int(rng.choice(m, p=closest / total))
        centers[c] = points[idx]
        closest = np.minimum(closest, _sq_dists_to(points, centers[c : c + 1])[:, 0])
    return centers


def _lloyd(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    m = points.shape[0]
    centers = _kmeans_pp_init(points, k, rng)
    # One table per set of centres: it gives that step's inertia, the next
    # step's assignment and the final labels.
    d2 = _sq_dists_to(points, centers)
    prev_inertia = np.inf
    for _ in range(_KMEANS_MAX_ITER):
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        for c in np.flatnonzero(counts == 0):
            # Refill an empty cluster with the worst-served point of a
            # cluster that keeps a member after the move. One exists while
            # a cluster is empty, since k <= m.
            costs = d2[np.arange(m), labels]
            costs[counts[labels] < 2] = -np.inf
            i = int(np.argmax(costs))
            counts[labels[i]] -= 1
            labels[i] = c
            counts[c] = 1
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
        d2 = _sq_dists_to(points, centers)
        inertia = float(d2[np.arange(m), labels].sum())
        if prev_inertia - inertia <= _KMEANS_REL_TOL * max(inertia, 1e-300):
            break
        prev_inertia = inertia
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(m), labels].sum())
    return labels, inertia


def kmeans(points: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, float]:
    """k-means with k-means++ starts; the best of _KMEANS_RESTARTS runs wins.

    Each restart r draws from an independent generator seeded by (seed, r),
    and ties on inertia keep the earliest restart, so results depend only on
    (points, k, seed).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"points must be a nonempty 2-d array, got {points.shape}")
    m = points.shape[0]
    if not 1 <= k <= m:
        raise ConfigError(f"k must lie in [1, {m}], got {k}")
    if k == 1:
        center = points.mean(axis=0)
        inertia = float(np.sum((points - center) ** 2))
        return np.zeros(m, dtype=int), inertia
    best_labels, best_inertia = None, np.inf
    for r in range(_KMEANS_RESTARTS):
        rng = np.random.default_rng([seed, r])
        labels, inertia = _lloyd(points, k, rng)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    assert best_labels is not None
    return best_labels, best_inertia


def kmeans_euclidean(points: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """k-means labels directly on coordinates; the baseline route."""
    return kmeans(points, k, seed)[0]


def spectral_cluster(d: DistanceMatrix, k: int) -> np.ndarray:
    """Spectral embedding of a distance matrix for k clusters.

    The affinity is exp(-d^2 / (2 sigma^2)) with sigma the median
    off-diagonal distance. Returns the rows of the bottom-k eigenvectors of
    the symmetric normalized Laplacian, unit-normalized (Ng, Jordan & Weiss
    2001); k-means on them gives the clusters.
    """
    m = d.size
    off_diag = d.values[~np.eye(m, dtype=bool)]
    sigma = float(np.median(off_diag))
    if sigma <= 0.0:
        raise DegenerateAffinityError(
            "median pairwise distance is zero; the affinity scale is undefined"
        )
    affinity = np.exp(-(d.values**2) / (2.0 * sigma**2))
    lap, _ = _normalized_laplacian(affinity)
    _, vecs = np.linalg.eigh(lap)
    emb = vecs[:, :k].copy()
    norms = np.linalg.norm(emb, axis=1)
    nonzero = norms > 0
    emb[nonzero] /= norms[nonzero, None]
    return emb


def classical_mds(d_values: np.ndarray, dim: int) -> np.ndarray:
    """Classical MDS coordinates of a distance matrix.

    Double-centers the squared distances and keeps eigenvectors with strictly
    positive eigenvalues, at most dim of them, scaled by sqrt(eigenvalue).
    The result may have fewer than dim columns; signs are fixed per column.
    """
    d = np.asarray(d_values, dtype=float)
    b = -0.5 * (d**2)
    b = b - b.mean(axis=0)[None, :]
    b = b - b.mean(axis=1)[:, None]
    b = (b + b.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals)[::-1]
    keep = [i for i in order[:dim] if eigvals[i] > 0.0]
    return _fix_column_signs(eigvecs[:, keep] * np.sqrt(eigvals[keep]))


def cluster_distances(
    d: DistanceMatrix,
    method: ClusteringMethod,
    k: int,
    seeds: Sequence[int],
    mds_dim: int | None = None,
) -> tuple[np.ndarray, ...]:
    """Labels in [0, k) for every seed, from one embedding of the matrix.

    The embedding does not depend on the seed, so it is computed once: the
    spectral embedding, or classical MDS coordinates in mds_dim dimensions
    (default k, at most M - 1). Only k-means runs per seed. A matrix whose
    centered squared distances have no positive eigenvalue cannot be
    embedded by MDS and is rejected.
    """
    m = d.size
    if not 1 <= k <= m:
        raise ConfigError(f"k must lie in [1, {m}], got {k}")
    if k == 1:
        return tuple(np.zeros(m, dtype=int) for _ in seeds)
    if method is ClusteringMethod.SPECTRAL:
        points = spectral_cluster(d, k)
    else:
        dim = min(k, m - 1) if mds_dim is None else mds_dim
        if not 1 <= dim <= m - 1:
            raise ConfigError(f"mds_dim must lie in [1, {m - 1}], got {dim}")
        points = classical_mds(d.values, dim)
        if points.shape[1] == 0:
            raise DegenerateEmbeddingError(
                "no positive eigenvalue in the centered squared distances; "
                "the matrix admits no Euclidean embedding"
            )
    return tuple(kmeans(points, k, seed)[0] for seed in seeds)
