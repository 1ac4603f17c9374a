"""Independent reference implementations used only by the tests.

Each oracle deliberately takes a different computational route from the
package code it checks, so agreement is meaningful.
"""

import itertools

import numpy as np


def gram_schmidt_basis(columns: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Classical Gram-Schmidt with re-orthogonalization and column dropping."""
    a = np.asarray(columns, dtype=float)
    basis: list[np.ndarray] = []
    scale = max(np.linalg.norm(a[:, j]) for j in range(a.shape[1]))
    for j in range(a.shape[1]):
        v = a[:, j].copy()
        for _ in range(2):
            for q in basis:
                v -= (q @ v) * q
        norm = np.linalg.norm(v)
        if norm > tol * scale:
            basis.append(v / norm)
    return np.column_stack(basis) if basis else np.empty((a.shape[0], 0))


def principal_angles_deflation(
    qx: np.ndarray, qy: np.ndarray, iters: int = 2000
) -> np.ndarray:
    """Principal angles by alternating maximization of u^T v with deflation.

    Finds the largest cosine by power iteration on the pair of projections,
    removes the found directions from both bases, and repeats. Slow and only
    for tiny cases, but entirely SVD-free.
    """
    qx = qx.copy()
    qy = qy.copy()
    m = min(qx.shape[1], qy.shape[1])
    cosines = []
    for _ in range(m):
        c = qx.T @ qy
        # power iteration on c c^T gives the leading singular pair of c
        u = np.ones(c.shape[0]) / np.sqrt(c.shape[0])
        for _ in range(iters):
            w = c @ (c.T @ u)
            norm = np.linalg.norm(w)
            if norm == 0:
                break
            u = w / norm
        v = c.T @ u
        sigma = np.linalg.norm(v)
        cosines.append(min(sigma, 1.0))
        if sigma > 0:
            v = v / sigma
        # deflate: drop the found directions, re-orthonormalize the remainders
        x_dir = qx @ u
        y_dir = qy @ v
        qx = gram_schmidt_basis(qx - np.outer(x_dir, u), tol=1e-12)
        qy = gram_schmidt_basis(qy - np.outer(y_dir, v), tol=1e-12)
        if qx.shape[1] == 0 or qy.shape[1] == 0:
            break
    while len(cosines) < m:
        cosines.append(0.0)
    return np.sort(np.arccos(np.clip(cosines, 0.0, 1.0)))


def accuracy_by_enumeration(pred, truth) -> float:
    """Best accuracy over every injective mapping of predicted clusters onto
    true clusters, by brute force."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    pred_ids = sorted(set(pred.tolist()))
    truth_ids = sorted(set(truth.tolist()))
    best = 0
    small, large = (pred_ids, truth_ids) if len(pred_ids) <= len(truth_ids) else (truth_ids, pred_ids)
    for subset in itertools.permutations(large, len(small)):
        mapping = dict(zip(small, subset))
        if len(pred_ids) <= len(truth_ids):
            correct = sum(1 for p, t in zip(pred, truth) if mapping[p] == t)
        else:
            correct = sum(1 for p, t in zip(pred, truth) if mapping[t] == p)
        best = max(best, correct)
    return best / len(pred)


def ari_by_pair_counting(pred, truth) -> float:
    """ARI from literal enumeration of all sample pairs."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    m = len(pred)
    both = pred_only = truth_only = neither = 0
    for i in range(m):
        for j in range(i + 1, m):
            same_p = pred[i] == pred[j]
            same_t = truth[i] == truth[j]
            if same_p and same_t:
                both += 1
            elif same_p:
                pred_only += 1
            elif same_t:
                truth_only += 1
            else:
                neither += 1
    total = both + pred_only + truth_only + neither
    sum_p = both + pred_only
    sum_t = both + truth_only
    expected = sum_p * sum_t / total
    max_index = (sum_p + sum_t) / 2.0
    if max_index == expected:
        return 1.0 if pred_only == 0 and truth_only == 0 else 0.0
    return (both - expected) / (max_index - expected)


def kmeans_1d_optimal(points: np.ndarray, k: int) -> float:
    """Optimal 1-d k-means cost by dynamic programming over sorted points."""
    xs = np.sort(np.asarray(points, dtype=float))
    m = len(xs)
    prefix = np.concatenate([[0.0], np.cumsum(xs)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(xs**2)])

    def seg_cost(i: int, j: int) -> float:
        # cost of one cluster covering xs[i:j]
        count = j - i
        total = prefix[j] - prefix[i]
        total_sq = prefix_sq[j] - prefix_sq[i]
        return total_sq - total * total / count

    best = np.full((k + 1, m + 1), np.inf)
    best[0, 0] = 0.0
    for clusters in range(1, k + 1):
        for j in range(1, m + 1):
            for i in range(clusters - 1, j):
                cand = best[clusters - 1, i] + seg_cost(i, j)
                if cand < best[clusters, j]:
                    best[clusters, j] = cand
    return float(best[k, m])


def pca_by_covariance(x: np.ndarray, dim: int) -> np.ndarray:
    """PCA scores via eigendecomposition of the sample covariance matrix."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:dim]
    return centered @ eigvecs[:, order]


def laplacian_eigenmaps_dense(x: np.ndarray, n_neighbors: int, dim: int) -> np.ndarray:
    """Laplacian eigenmaps from scratch at one scale: its own pairwise
    distances and neighbor sort, and the full dense eigendecomposition of
    the normalized Laplacian, of which the bottom nontrivial dim are kept.
    Same kernel, background affinity and sign convention as the package."""
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    gram = x @ x.T
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.fill_diagonal(d2, 0.0)
    d2 = np.maximum(d2, 0.0)
    order = np.argsort(d2, axis=1, kind="stable")
    sigma = np.sqrt(d2[np.arange(m), order[:, -(-n_neighbors // 2)]])
    mask = np.zeros((m, m), dtype=bool)
    mask[np.arange(m)[:, None], order[:, 1 : n_neighbors + 1]] = True
    mask |= mask.T
    with np.errstate(over="ignore"):
        weights = np.exp(-d2 / np.maximum(np.outer(sigma, sigma), np.finfo(float).tiny))
    affinity = np.where(mask, weights, 0.0) + 1e-8
    np.fill_diagonal(affinity, 0.0)
    inv_sqrt = 1.0 / np.sqrt(affinity.sum(axis=1))
    lap = np.eye(m) - affinity * np.outer(inv_sqrt, inv_sqrt)
    _, vecs = np.linalg.eigh(lap)
    emb = vecs[:, 1 : dim + 1] * inv_sqrt[:, None]
    idx = np.argmax(np.abs(emb), axis=0)
    signs = np.sign(emb[idx, np.arange(dim)])
    signs[signs == 0] = 1.0
    return emb * signs
