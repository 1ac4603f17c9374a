"""Clustering on a precomputed distance matrix.

Two routes are provided: spectral clustering on a Gaussian affinity built
from the distances, and k-means on a classical multidimensional-scaling
embedding of the distances. Each route embeds the matrix once, without a
seed; the shared k-means core then runs every restart of every seed as one
batched program, and each seed's labels are fully deterministic given it.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .mdr import _fix_column_signs, _normalized_laplacian
from .pipeline import _check_distances

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
# Runs advance in groups of at most this much scratch, taken as 3k + d + 3
# doubles per point per run (tracemalloc: 3k + d + 1.8 at M = 2,000-20,000). At
# M = 10,000, k = 3, d = 20 the stage peaked at 8.1 MB for 5 seeds and 7.8 MB
# for 1, and 1-16 MiB budgets took about the same time; M = 120 fits one group.
_KMEANS_GROUP_BYTES = 8 << 20


class ClusteringMethod(enum.Enum):
    SPECTRAL = "spectral"
    KMEANS_MDS = "kmeans-mds"


def _sq_dist_tables(points: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (runs, M, c) from every point to each run's c centres."""
    cross = 2.0 * np.matmul(points, centers.transpose(0, 2, 1))
    d2 = sq_norms[:, None] + np.sum(centers**2, axis=2)[:, None, :]
    d2 -= cross
    return np.maximum(d2, 0.0, out=d2)


def _cluster_means(columns: np.ndarray, bins: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean point of each bin of bins (runs, M); counts holds the bin sizes,
    none zero, and columns (d, runs * M) each column of the points once per
    run. Sums add as points[labels == c].mean(axis=0) adds them, so the means
    are bitwise equal to it: one column pairwise from zero (numpy's reduction
    along a contiguous axis), wider rows in row order (bincount's order)."""
    if columns.shape[0] == 1:
        order = np.argsort(bins, axis=None, kind="stable")
        starts = np.cumsum(counts) - counts
        runs = np.insert(columns[0, order], starts, 0.0)
        sums = np.add.reduceat(runs, starts + np.arange(counts.size))[:, None]
    else:
        flat = bins.ravel()
        sums = np.stack([np.bincount(flat, weights=w, minlength=counts.size) for w in columns], 1)
    return sums / counts[:, None]


def _kmeans_pp_starts(points, sq_norms, k: int, rngs: list) -> np.ndarray:
    """k centres (runs, k, d) per generator, drawn by k-means++."""
    m = points.shape[0]
    centers = np.empty((len(rngs), k, points.shape[1]))
    centers[:, 0] = points[[int(rng.integers(m)) for rng in rngs]]
    closest = _sq_dist_tables(points, sq_norms, centers[:, :1])[:, :, 0]
    for c in range(1, k):
        for r, (rng, total) in enumerate(zip(rngs, closest.sum(axis=1).tolist())):
            draw = rng.integers(m) if total <= 0.0 else rng.choice(m, p=closest[r] / total)
            centers[r, c] = points[int(draw)]
        added = _sq_dist_tables(points, sq_norms, centers[:, c : c + 1])[:, :, 0]
        closest = np.minimum(closest, added)
    return centers


def _lloyd_runs(points, sq_norms, k: int, rngs: list) -> tuple[np.ndarray, np.ndarray]:
    """Labels (runs, M) and inertias of one k-means++ start and Lloyd's loop
    per generator, all runs stepped together. A run whose inertia fell by no
    more than _KMEANS_REL_TOL, relative, stops and is never advanced again."""
    m = points.shape[0]
    labels, inertia = np.empty((len(rngs), m), dtype=np.intp), np.empty(len(rngs))
    prev, live = np.full(len(rngs), np.inf), np.arange(len(rngs))
    columns = np.tile(points.T, len(rngs))
    # One table per set of centres: it gives that step's inertia, the next
    # step's assignment and the final labels.
    d2 = _sq_dist_tables(points, sq_norms, _kmeans_pp_starts(points, sq_norms, k, rngs))
    for step in range(_KMEANS_MAX_ITER):
        offsets = k * np.arange(live.size)[:, None]
        step_labels = d2.argmin(axis=2)
        counts = np.bincount((step_labels + offsets).ravel(), minlength=live.size * k)
        counts = counts.reshape(live.size, k)
        for r, c in zip(*np.nonzero(counts == 0)):
            # Refill an empty cluster with the worst-served point of a
            # cluster that keeps a member after the move. One exists while
            # a cluster is empty, since k <= m.
            run_labels, run_counts = step_labels[r], counts[r]
            costs = d2[r, np.arange(m), run_labels]
            costs[run_counts[run_labels] < 2] = -np.inf
            i = int(np.argmax(costs))
            run_counts[run_labels[i]] -= 1
            run_labels[i] = c
            run_counts[c] = 1
        means = _cluster_means(columns[:, : live.size * m], step_labels + offsets, counts.ravel())
        d2 = _sq_dist_tables(points, sq_norms, means.reshape(live.size, k, -1))
        now = np.take_along_axis(d2, step_labels[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        tol = _KMEANS_REL_TOL * np.maximum(now, 1e-300)
        stop = (prev[live] - now <= tol) | (step == _KMEANS_MAX_ITER - 1)
        prev[live], done = now, live[stop]
        labels[done] = d2[stop].argmin(axis=2)
        inertia[done] = d2[stop].min(axis=2).sum(axis=1)
        live, d2 = live[~stop], d2[~stop]
        if not live.size:
            break
    return labels, inertia


def kmeans(
    points: np.ndarray, k: int, seeds: Sequence[int]
) -> tuple[tuple[np.ndarray, float], ...]:
    """(labels, inertia) per seed, each the best of _KMEANS_RESTARTS k-means++ runs.

    Restart r of a seed draws from its own generator, seeded by (seed, r), and
    ties on inertia keep the earliest restart, so a seed's result depends only
    on (points, k, seed). All runs of all seeds advance together, as one
    batched Lloyd program in groups bounded by _KMEANS_GROUP_BYTES.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError(f"points must be a nonempty 2-d array, got {points.shape}")
    m, d = points.shape
    if not 1 <= k <= m:
        raise ConfigError(f"k must lie in [1, {m}], got {k}")
    if k == 1:
        inertia = float(np.sum((points - points.mean(axis=0)) ** 2))
        return tuple((np.zeros(m, dtype=int), inertia) for _ in seeds)
    rngs = [np.random.default_rng([s, r]) for s in seeds for r in range(_KMEANS_RESTARTS)]
    sq_norms = np.sum(points**2, axis=1)
    group = max(1, _KMEANS_GROUP_BYTES // (8 * m * (3 * k + d + 3)))
    best: list = [(None, np.inf)] * len(seeds)
    for start in range(0, len(rngs), group):
        labels, inertia = _lloyd_runs(points, sq_norms, k, rngs[start : start + group])
        for run, value in enumerate(inertia.tolist(), start):
            seed = run // _KMEANS_RESTARTS
            if value < best[seed][1]:
                best[seed] = (labels[run - start].copy(), value)
        del labels  # before the next group allocates its own
    return tuple(best)


def kmeans_euclidean(points: np.ndarray, k: int, seeds: Sequence[int]) -> tuple[np.ndarray, ...]:
    """k-means labels directly on coordinates, one labelling per seed; the
    baseline route."""
    return tuple(labels for labels, _ in kmeans(points, k, seeds))


def spectral_cluster(d: np.ndarray, k: int) -> np.ndarray:
    """Spectral embedding of a distance matrix for k clusters.

    The affinity is exp(-d^2 / (2 sigma^2)) with sigma the median
    off-diagonal distance. Returns the rows of the bottom-k eigenvectors of
    the symmetric normalized Laplacian, unit-normalized (Ng, Jordan & Weiss
    2001); k-means on them gives the clusters.
    """
    m = len(d)
    off_diag = d[~np.eye(m, dtype=bool)]
    sigma = float(np.median(off_diag))
    if sigma <= 0.0:
        raise NumericalError(
            "median pairwise distance is zero; the affinity scale is undefined"
        )
    affinity = np.exp(-(d**2) / (2.0 * sigma**2))
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
    d: np.ndarray,
    method: ClusteringMethod,
    k: int,
    seeds: Sequence[int],
) -> tuple[np.ndarray, ...]:
    """Labels in [0, k) for every seed, from one embedding of the matrix.

    The embedding does not depend on the seed, so it is computed once: the
    spectral embedding, or classical MDS coordinates in min(k, M - 1)
    dimensions; one kmeans call clusters it for every seed.
    A matrix whose centered squared distances have no positive eigenvalue
    cannot be embedded by MDS and is rejected. ValueError unless d holds
    symmetric nonnegative distances with a zero diagonal.
    """
    d = _check_distances(d)
    m = len(d)
    if not 1 <= k <= m:
        raise ConfigError(f"clustering.k must lie in [1, {m}], got {k}")
    if k == 1:
        return tuple(np.zeros(m, dtype=int) for _ in seeds)
    if method is ClusteringMethod.SPECTRAL:
        points = spectral_cluster(d, k)
    else:
        points = classical_mds(d, min(k, m - 1))
        if points.shape[1] == 0:
            raise NumericalError(
                "no positive eigenvalue in the centered squared distances; "
                "the matrix admits no Euclidean embedding"
            )
    return tuple(labels for labels, _ in kmeans(points, k, seeds))
