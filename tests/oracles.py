"""Independent reference implementations used only by the tests.

Each oracle deliberately takes a different computational route from the
package code it checks, so agreement is meaningful.
"""

import itertools
import math

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


def principal_angles_sine(qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """Principal angles, ascending, by the per-pair path the package used
    before its cancellation guard: arccos of the singular values of
    Qx^T Qy, with every angle whose cosine exceeds sqrt(1/2) recomputed from
    the singular values of Qy - Qx (Qx^T Qy), the sines. Two SVDs for almost
    every pair, accurate down to machine precision."""
    # The wider basis goes first; equal widths are ordered by raw bytes so
    # the result is bit-identical under argument swap.
    if qx.shape[1] < qy.shape[1] or (
        qx.shape[1] == qy.shape[1] and qx.tobytes() > qy.tobytes()
    ):
        qx, qy = qy, qx
    m = qx.T @ qy
    cosines = np.clip(np.linalg.svd(m, compute_uv=False), 0.0, 1.0)
    theta = np.arccos(cosines)
    small = cosines**2 >= 0.5
    if np.any(small):
        sines = np.linalg.svd(qy - qx @ m, compute_uv=False)[::-1]
        theta[small] = np.arcsin(np.clip(sines[small], 0.0, 1.0))
    return np.sort(theta)


def ordered_bases_by_bytes(qx, qy) -> tuple[np.ndarray, np.ndarray]:
    """The per-pair order of two bases as first written: the wider first,
    equal widths by a fresh tobytes() copy of each basis."""
    if qx.shape[1] < qy.shape[1] or (
        qx.shape[1] == qy.shape[1] and qx.tobytes() > qy.tobytes()
    ):
        qx, qy = qy, qx
    return qx, qy


def chordal_by_matmul(x, y) -> float:
    """The chordal residual as first written, every product through the @
    operator: the norm of Qy - Qx (Qx^T Qy), Qx the wider basis."""
    qx, qy = ordered_bases_by_bytes(x, y)
    r = (qy - qx @ (qx.T @ qy)).ravel()
    return math.sqrt(r @ r)


def principal_angles_by_matmul(x, y) -> np.ndarray:
    """grassmann.principal_angles as first written, every product through
    the @ operator: arccos of the singular values of Qx^T Qy, and past the
    package's cancellation guard the angles with cos^2 >= 1/2 from the
    singular values of Qy - Qx (Qx^T Qy)."""
    from mgm.grassmann import _needs_sines

    qx, qy = ordered_bases_by_bytes(x, y)
    m = qx.T @ qy
    cosines = np.minimum(np.linalg.svd(m, compute_uv=False), 1.0)
    theta = np.arccos(cosines)
    if _needs_sines(cosines, cosines.size):
        small = cosines**2 >= 0.5
        sines = np.linalg.svd(qy - qx @ m, compute_uv=False)[::-1]
        theta[small] = np.arcsin(np.clip(sines[small], 0.0, 1.0))
        theta.sort()
    return theta


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


def accuracy_by_csgraph(table: np.ndarray) -> float:
    """Accuracy of a contingency table from scipy's sparse maximum-weight
    full bipartite matching. It reads a zero cell as a missing edge, so 1 is
    added to every cell: that adds min(rows, cols) to every full matching
    and keeps the optimum."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching

    rows, cols = min_weight_full_bipartite_matching(csr_array(table + 1.0), maximize=True)
    return float(table[rows, cols].sum() / table.sum())


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


def pca_by_svd(x: np.ndarray, dim: int) -> np.ndarray:
    """PCA scores from the thin SVD of the centered data, the sign of each
    loading vector fixed so its largest-magnitude entry is positive."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:dim].T
    idx = np.argmax(np.abs(components), axis=0)
    signs = np.sign(components[idx, np.arange(dim)])
    signs[signs == 0] = 1.0
    return centered @ (components * signs)


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


def bases_per_sample(embeddings, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The basis array of a stack of per-scale embeddings, one sample at a
    time: one SVD of each sample's n x p feature matrix (its row per scale as
    columns), keeping the left singular vectors whose singular value exceeds
    tol times the largest, padded with zero columns to p."""
    m, n = embeddings[0].shape
    bases = np.zeros((m, n, len(embeddings)))
    ranks = np.zeros(m, dtype=int)
    for k in range(m):
        u, s, _ = np.linalg.svd(np.column_stack([e[k] for e in embeddings]), full_matrices=False)
        ranks[k] = np.count_nonzero(s > tol * s[0])
        bases[k, :, : ranks[k]] = u[:, : ranks[k]]
    return bases, ranks


def _sq_dists_to(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        + np.sum(centers**2, axis=1)[None, :]
        - 2.0 * points @ centers.T
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    from mgm import clustering

    m = points.shape[0]
    centers = _kmeans_pp_init(points, k, rng)
    d2 = _sq_dists_to(points, centers)
    prev_inertia = np.inf
    for _ in range(clustering._KMEANS_MAX_ITER):
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        for c in np.flatnonzero(counts == 0):
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
        if prev_inertia - inertia <= clustering._KMEANS_REL_TOL * max(inertia, 1e-300):
            break
        prev_inertia = inertia
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(m), labels].sum())
    return labels, inertia


def kmeans_per_restart(points: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, float]:
    """k-means for one seed, one restart at a time: restart r runs k-means++
    and Lloyd's loop alone on default_rng([seed, r]), each cluster mean is
    points[labels == c].mean(axis=0), and the earliest restart of lowest
    inertia wins. Reads the restart count, step limit and tolerance from
    mgm.clustering, so a patched limit holds here too."""
    from mgm import clustering

    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    if k == 1:
        center = points.mean(axis=0)
        return np.zeros(m, dtype=int), float(np.sum((points - center) ** 2))
    best_labels, best_inertia = None, np.inf
    for r in range(clustering._KMEANS_RESTARTS):
        labels, inertia = _lloyd(points, k, np.random.default_rng([seed, r]))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia
