"""Embedding backends that turn a samples-by-features matrix into one
low-dimensional embedding per neighborhood scale.

Two backends are provided: Laplacian eigenmaps (the scale sets the kNN
graph size) and an external loader that reads one precomputed embedding file
per scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .data import load_matrix
from .errors import ConfigError, DataError, MgmError, NumericalError

__all__ = [
    "MdrBackendSpec",
    "pca_reduce",
    "laplacian_eigenmaps",
    "build_stack",
]

# Added to every off-diagonal affinity so the kNN graph is never disconnected.
_BACKGROUND_AFFINITY = 1e-8

# Laplacian eigenmaps solve for only the bottom dim + 1 eigenpairs when they
# are at most 1/_SUBSET_SOLVER_RATIO of the spectrum; above that the full
# dense solver is faster.
#
# The same ratio sets the PCA cutoff: pca_reduce takes the top dim
# eigenvectors of the smaller Gram matrix when (dim + 1) * ratio <= min(M, N)
# and the thin SVD otherwise. There it is not a speed switch. On log counts
# at 1 BLAS thread the Gram route was faster on every shape tried (M x N from
# 120 x 500 to 1000 x 500, both ways round): 3.2-6.1x at dim + 1 = 1/16 of
# min(M, N), 1.1-1.9x at 1/2, 1.7-2.6x at dim = min(M, N). The SVD is kept
# for requests that reach far into the spectrum because the Gram squares the
# condition number: its scores were within 2e-11 of the SVD's up to 1/2, but
# up to 3e-8 off at dim = M < N, where the last singular value of the
# centered data is zero. Small inputs also keep their SVD output exactly.
_SUBSET_SOLVER_RATIO = 8

# From this many samples on, a subset-sized solve runs Lanczos (ARPACK) on the
# sparse kNN graph instead of dense LAPACK. On PCA-50 count data at 1 BLAS
# thread Lanczos took over from ~450 samples at dim 5, ~550 at dim 20 and
# ~700 at dim 50.
_SPARSE_SOLVER_MIN_SAMPLES = 600

# The neighbor graph computes squared distances this many rows at a time.
# At M=3000, k=50 on 50 columns, 128 to 1024 rows all took ~0.2 s while the
# peak memory grew with the block. Up to 256 samples there is one block, whose
# Gram matrix is the plain x @ x.T.
_NEIGHBOR_BLOCK_ROWS = 256


@dataclass(frozen=True)
class MdrBackendSpec:
    """The embedding dimension every backend must produce, and the file
    pattern that selects the external backend: one file per scale, '{scale}'
    in its name replaced by the scale. Without a pattern, Laplacian
    eigenmaps run."""

    embedding_dim: int
    external_pattern: str | None = None

    def __post_init__(self) -> None:
        if self.embedding_dim < 2:
            raise ValueError(f"embedding.dim must be at least 2, got {self.embedding_dim}")
        if self.external_pattern is not None and "{scale}" not in self.external_pattern:
            raise ValueError(
                f"the external file pattern {self.external_pattern!r} lacks '{{scale}}'"
            )


def _column_signs(a: np.ndarray) -> np.ndarray:
    """The sign of each column's largest-magnitude entry, 1 for a zero column."""
    idx = np.argmax(np.abs(a), axis=0)
    signs = np.sign(a[idx, np.arange(a.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _fix_column_signs(a: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    return a * _column_signs(a)


def pca_reduce(x: np.ndarray, dim: int) -> np.ndarray:
    """Project column-centered data onto its top right singular vectors.

    When dim + 1 is at most 1/_SUBSET_SOLVER_RATIO of min(M, N) only the top
    dim eigenpairs of the smaller of the two Gram matrices of the centered
    data are computed; otherwise they come from its thin SVD. Deterministic
    up to sign, which is fixed so the largest-magnitude entry of each loading
    vector is positive.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {x.shape}")
    m, n = x.shape
    short = min(m, n)
    if not 1 <= dim <= short:
        raise ConfigError(f"pca.dim {dim} is outside [1, min(M, N)] = [1, {short}]")
    centered = x - x.mean(axis=0)
    if (dim + 1) * _SUBSET_SOLVER_RATIO > short:
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        return centered @ _fix_column_signs(vt[:dim].T)
    top = [short - dim, short - 1]
    if n <= m:
        # The loadings are the top eigenvectors of the N x N Gram matrix.
        _, vecs = scipy.linalg.eigh(centered.T @ centered, subset_by_index=top)
        return centered @ _fix_column_signs(vecs[:, ::-1])
    # The top eigenpairs (u, s^2) of the M x M Gram matrix give the scores
    # u * s; the loadings centered.T @ u / s take their signs from
    # centered.T @ u.
    vals, vecs = scipy.linalg.eigh(centered @ centered.T, subset_by_index=top)
    u = vecs[:, ::-1]
    singular = np.sqrt(np.maximum(vals[::-1], 0.0))
    return u * (singular * _column_signs(centered.T @ u))


def _row_blocks(start: int, stop: int) -> list[slice]:
    return [
        slice(a, min(a + _NEIGHBOR_BLOCK_ROWS, stop))
        for a in range(start, stop, _NEIGHBOR_BLOCK_ROWS)
    ]


def _squared_norms(points: np.ndarray) -> np.ndarray:
    """Squared row norms as the diagonal of points @ points.T, taken one
    diagonal block of _NEIGHBOR_BLOCK_ROWS rows at a time."""
    blocks = _row_blocks(0, points.shape[0])
    return np.concatenate([np.diag(points[b] @ points[b].T) for b in blocks])


def _pairwise_sq_dists(points: np.ndarray, rows: slice, sq: np.ndarray) -> np.ndarray:
    """Squared distances from points[rows] to every row of points, as
    |a|^2 + |b|^2 - 2 a.b, where sq is `_squared_norms(points)`."""
    d2 = sq[rows, None] + sq[None, :] - 2.0 * (points[rows] @ points.T)
    block = np.arange(d2.shape[0])
    d2[block, block + rows.start] = 0.0
    return np.maximum(d2, 0.0, out=d2)


def _neighbor_graph(x: np.ndarray, max_neighbors: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of x, the stable distance order of its nearest max_neighbors + 1
    rows (itself first, unless an exact duplicate has a lower index) and
    their squared distances, both M x min(max_neighbors + 1, M).

    The order is that of a stable argsort of each row of the pairwise
    squared distances: ties go to the lower index. The distances are
    computed _NEIGHBOR_BLOCK_ROWS rows at a time, so memory stays O(M * k)
    plus one block. Neither output depends on the scale, so one graph
    serves every scale up to max_neighbors.
    """
    m = x.shape[0]
    width = min(max_neighbors + 1, m)
    sq = _squared_norms(x)
    order = np.empty((m, width), dtype=np.intp)
    dists = np.empty((m, width))
    for b in _row_blocks(0, m):
        d2 = _pairwise_sq_dists(x, b, sq)
        # Every entry at most the width-th smallest is a candidate; more than
        # width of them means ties at the cut, which the stable sort by row,
        # then distance, settles by index.
        cut = np.partition(d2, width - 1, axis=1)[:, [width - 1]]
        cand_rows, cand_cols = np.nonzero(d2 <= cut)
        cand_d2 = d2[cand_rows, cand_cols]
        by_dist = np.lexsort((cand_d2, cand_rows))
        starts = np.searchsorted(cand_rows, np.arange(d2.shape[0]))
        nearest = by_dist[starts[:, None] + np.arange(width)]
        order[b] = cand_cols[nearest]
        dists[b] = cand_d2[nearest]
    return dists, order


def _knn_edges(
    dists: np.ndarray, order: np.ndarray, n_neighbors: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union-symmetrized kNN graph with self-tuning Gaussian weights, as
    (rows, cols, weights) sorted by row then column, without self-loops and
    without the background term.

    `dists` and `order` are a `_neighbor_graph`; each edge weight reads its
    squared distance from there. The bandwidth of a point is its distance to
    its ceil(k/2)-th neighbor.
    """
    m = order.shape[0]
    heads = np.repeat(np.arange(m), n_neighbors)
    tails = order[:, 1 : n_neighbors + 1].ravel()
    d2 = dists[:, 1 : n_neighbors + 1].ravel()
    # Under ties a duplicate's twin can sort first, which puts the point
    # itself among its own neighbors.
    keep = heads != tails
    heads, tails, d2 = heads[keep], tails[keep], d2[keep]
    # One squared distance per unordered pair keeps the weights symmetric;
    # row blocks of the Gram matrix need not round symmetrically.
    pairs, first = np.unique(
        np.minimum(heads, tails) * m + np.maximum(heads, tails), return_index=True
    )
    low, high = np.divmod(pairs, m)
    d2 = np.concatenate([d2[first], d2[first]])
    edges = np.concatenate([low * m + high, high * m + low])
    by_row = np.argsort(edges)
    rows, cols = np.divmod(edges[by_row], m)
    d2 = d2[by_row]
    sigma = np.sqrt(dists[:, -(-n_neighbors // 2)])
    # A point with ceil(k/2) exact duplicates has sigma = 0. Clamping the
    # product keeps duplicate pairs at weight exp(0) = 1; a zero-bandwidth
    # pair at positive distance overflows to weight exp(-inf) = 0.
    bandwidth = np.maximum(sigma[rows] * sigma[cols], np.finfo(float).tiny)
    with np.errstate(over="ignore"):
        weights = np.exp(-d2 / bandwidth)
    return rows, cols, weights


def _normalized_laplacian(affinity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I - D^(-1/2) W D^(-1/2) of a dense affinity W with row sums D, and
    D^(-1/2)."""
    inv_sqrt = 1.0 / np.sqrt(affinity.sum(axis=1))
    return np.eye(affinity.shape[0]) - affinity * np.outer(inv_sqrt, inv_sqrt), inv_sqrt


def _lanczos_bottom_eigenvectors(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, m: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bottom dim + 1 eigenvectors of the normalized Laplacian of the
    `_knn_edges` graph plus background, and degree^(-1/2).

    They are the top eigenvectors of N = D^(-1/2) W D^(-1/2), which ARPACK
    finds from products with the sparse affinity; the background b(11' - I)
    enters each product as a rank-one term and a diagonal shift. The top one
    is known, D^(1/2) 1, and is projected out of N so Lanczos looks for the
    other dim; a small gap below it (a nearly disconnected graph) then does
    not limit their accuracy. Raises ArpackNoConvergence when Lanczos does
    not converge.
    """
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    affinity = scipy.sparse.csr_array((weights, cols, indptr), shape=(m, m))
    b = _BACKGROUND_AFFINITY
    degree = affinity.sum(axis=1) + b * (m - 1)
    inv_sqrt = 1.0 / np.sqrt(degree)
    shift = b * inv_sqrt * inv_sqrt
    trivial = np.sqrt(degree)
    trivial /= np.linalg.norm(trivial)

    def matvec(v: np.ndarray) -> np.ndarray:
        v = v.ravel()
        v = v - trivial * (trivial @ v)
        y = inv_sqrt * (affinity @ (inv_sqrt * v) + b * (inv_sqrt @ v)) - shift * v
        return y - trivial * (trivial @ y)

    operator = scipy.sparse.linalg.LinearOperator((m, m), matvec=matvec, dtype=float)
    # A fixed pseudo-random start keeps the result deterministic. tol bounds
    # each Ritz pair's residual; 1e-12 is the loosest value that keeps
    # tests/test_mdr.py::TestLanczosTier::test_distances_match_dense within
    # its bounds (1e-11 moved the dim-5 distances by 6.0e-9).
    v0 = np.random.default_rng(0).standard_normal(m)
    _, vecs = scipy.sparse.linalg.eigsh(operator, k=dim, which="LA", tol=1e-12, v0=v0)
    return np.column_stack([trivial, vecs[:, ::-1]]), inv_sqrt


def laplacian_eigenmaps(
    x: np.ndarray,
    n_neighbors: int,
    dim: int,
    graph: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Spectral embedding of the kNN graph of the rows of x.

    Edges are symmetrized by union and weighted with a self-tuning Gaussian
    kernel whose per-point bandwidth is the distance to the ceil(k/2)-th
    neighbor. Rows of the result are the bottom nontrivial eigenvectors of
    the symmetric normalized Laplacian, rescaled by degree^(-1/2).

    The solver depends on the size alone: the full dense eigendecomposition
    when dim + 1 is more than 1/_SUBSET_SOLVER_RATIO of M, otherwise only
    the bottom dim + 1 eigenpairs, by Lanczos on the sparse graph from
    _SPARSE_SOLVER_MIN_SAMPLES samples on (falling back to dense LAPACK if
    Lanczos does not converge) and by dense LAPACK below that.

    `graph` is the `_neighbor_graph` of x for at least n_neighbors
    neighbors (one of another row count or a narrower one raises
    ValueError); it is computed here when not given.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    if not 2 <= n_neighbors <= m - 1:
        raise ConfigError(f"scale {n_neighbors} needs 2 <= scale <= M - 1 = {m - 1}")
    if dim + 1 > m:
        raise ConfigError(f"embedding.dim {dim} needs at least {dim + 1} samples")
    dists, order = _neighbor_graph(x, n_neighbors) if graph is None else graph
    if order.shape[0] != m:
        raise ValueError(f"graph has {order.shape[0]} rows, x has {m}")
    if order.shape[1] <= n_neighbors:
        raise ValueError(f"graph has {order.shape[1] - 1} neighbors, fewer than scale {n_neighbors}")
    rows, cols, weights = _knn_edges(dists, order, n_neighbors)
    subset = (dim + 1) * _SUBSET_SOLVER_RATIO <= m
    vecs = None
    if subset and m >= _SPARSE_SOLVER_MIN_SAMPLES:
        try:
            vecs, inv_sqrt = _lanczos_bottom_eigenvectors(rows, cols, weights, m, dim)
        except scipy.sparse.linalg.ArpackNoConvergence:
            pass
    if vecs is None:
        dense = np.zeros((m, m))
        dense[rows, cols] = weights
        dense += _BACKGROUND_AFFINITY
        np.fill_diagonal(dense, 0.0)
        lap, inv_sqrt = _normalized_laplacian(dense)
        if subset:
            _, vecs = scipy.linalg.eigh(lap, subset_by_index=[0, dim])
        else:
            _, vecs = np.linalg.eigh(lap)
    emb = vecs[:, 1 : dim + 1] * inv_sqrt[:, None]
    return _fix_column_signs(emb)


def _load_external_embedding(
    pattern: str, scale: int, sample_count: int, dim: int
) -> np.ndarray:
    path = Path(pattern.replace("{scale}", str(scale)))
    values = load_matrix(path)
    if values.shape != (sample_count, dim):
        raise DataError(f"{path} has shape {values.shape}, expected ({sample_count}, {dim})")
    return values


def build_stack(x: np.ndarray, scales: tuple[int, ...], spec: MdrBackendSpec) -> np.ndarray:
    """Embed x once per scale into one read-only (p, M, n) array that owns
    its data: one external file per scale when spec has a pattern, Laplacian
    eigenmaps on one neighbor graph built for the largest scale otherwise.
    Backend errors, and a non-finite embedding, raise naming the scale."""
    if not scales:
        raise ConfigError(f"scales {tuple(scales)} holds no scale to embed at")
    x = np.asarray(x, dtype=float)
    pattern = spec.external_pattern
    graph = None if pattern else _neighbor_graph(x, max(scales))
    values = np.empty((len(scales), x.shape[0], spec.embedding_dim))
    for s, scale in enumerate(scales):
        try:
            if pattern:
                values[s] = _load_external_embedding(
                    pattern, scale, x.shape[0], spec.embedding_dim
                )
            else:
                values[s] = laplacian_eigenmaps(x, scale, spec.embedding_dim, graph=graph)
        except MgmError as err:
            raise type(err)(f"scale {scale}: {err}") from err
        if not np.isfinite(values[s]).all():
            raise NumericalError(f"embedding for scale {scale} has non-finite values")
    values.setflags(write=False)
    return values
