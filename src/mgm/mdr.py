"""Embedding backends that turn a samples-by-features matrix into one
low-dimensional embedding per neighborhood scale.

Three backends are provided: Laplacian eigenmaps (the scale sets the kNN
graph size), a PCA baseline that ignores the scale entirely, and an external
loader that reads one precomputed embedding file per scale.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import DataError, DimTooLargeError, MgmError, ScaleOutOfRangeError
from .scales import ScaleSet

__all__ = [
    "MdrMethod",
    "MdrBackendSpec",
    "EmbeddingStack",
    "pca_reduce",
    "laplacian_eigenmaps",
    "mdr_embed",
    "build_stack",
]

# Added to every off-diagonal affinity so the kNN graph is never disconnected.
_BACKGROUND_AFFINITY = 1e-8

# Solve for only the bottom dim + 1 eigenpairs when they are at most
# 1/_SUBSET_SOLVER_RATIO of the spectrum; above that the full dense solver
# is faster.
_SUBSET_SOLVER_RATIO = 8


class MdrMethod(enum.Enum):
    LAPLACIAN_EIGENMAPS = "laplacian"
    PCA_BASELINE = "pca"
    EXTERNAL = "external"

    @classmethod
    def parse(cls, name: str) -> "MdrMethod":
        key = name.strip().lower().replace("_", "").replace("-", "")
        aliases = {
            "laplacian": cls.LAPLACIAN_EIGENMAPS,
            "laplacianeigenmaps": cls.LAPLACIAN_EIGENMAPS,
            "pca": cls.PCA_BASELINE,
            "pcabaseline": cls.PCA_BASELINE,
            "external": cls.EXTERNAL,
        }
        if key not in aliases:
            raise ValueError(
                f"unknown embedding method {name!r}; expected one of "
                + ", ".join(sorted(set(a.value for a in aliases.values())))
            )
        return aliases[key]


@dataclass(frozen=True)
class MdrBackendSpec:
    """Which backend to run and the embedding dimension it must produce."""

    method: MdrMethod
    embedding_dim: int
    external_pattern: str | None = None

    def __post_init__(self) -> None:
        if self.embedding_dim < 2:
            raise ValueError(f"embedding_dim must be at least 2, got {self.embedding_dim}")
        if self.method is MdrMethod.EXTERNAL:
            if not self.external_pattern or "{scale}" not in self.external_pattern:
                raise ValueError(
                    "the external backend needs a file pattern containing '{scale}'"
                )


@dataclass(frozen=True)
class EmbeddingStack:
    """One M x n embedding per scale, all shapes identical and finite."""

    scales: ScaleSet
    embeddings: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.embeddings) != len(self.scales):
            raise ValueError(
                f"{len(self.embeddings)} embeddings for {len(self.scales)} scales"
            )
        shape = self.embeddings[0].shape
        for scale, emb in zip(self.scales, self.embeddings):
            if emb.ndim != 2 or emb.shape != shape:
                raise ValueError(f"embedding for scale {scale} has shape {emb.shape}")
            if not np.all(np.isfinite(emb)):
                raise ValueError(f"embedding for scale {scale} has non-finite values")
        frozen = []
        for emb in self.embeddings:
            emb = np.asarray(emb, dtype=float).copy()
            emb.setflags(write=False)
            frozen.append(emb)
        object.__setattr__(self, "embeddings", tuple(frozen))

    @property
    def sample_count(self) -> int:
        return self.embeddings[0].shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.embeddings[0].shape[1]

    def __len__(self) -> int:
        return len(self.embeddings)


def _fix_column_signs(a: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    idx = np.argmax(np.abs(a), axis=0)
    signs = np.sign(a[idx, np.arange(a.shape[1])])
    signs[signs == 0] = 1.0
    return a * signs


def pca_reduce(x: np.ndarray, dim: int) -> np.ndarray:
    """Project column-centered data onto its top right singular vectors.

    Deterministic up to sign, which is fixed so the largest-magnitude entry
    of each loading vector is positive.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {x.shape}")
    m, n = x.shape
    if not 1 <= dim <= min(m, n):
        raise DimTooLargeError(
            f"pca dim {dim} is outside [1, min(M, N)] = [1, {min(m, n)}]"
        )
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = _fix_column_signs(vt[:dim].T)
    return centered @ components


def _pairwise_sq_dists(points: np.ndarray) -> np.ndarray:
    gram = points @ points.T
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _neighbor_graph(x: np.ndarray, max_neighbors: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise squared distances of the rows of x and, per row, the stable
    distance order of its nearest max_neighbors + 1 rows (itself first).

    Neither depends on the scale, so one graph serves every scale up to
    max_neighbors.
    """
    d2 = _pairwise_sq_dists(x)
    order = np.argsort(d2, axis=1, kind="stable")[:, : max_neighbors + 1]
    return d2, order.copy()  # the copy lets the full M x M order be freed


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

    `graph` is the `_neighbor_graph` of x for at least n_neighbors
    neighbors; it is computed here when not given.
    """
    x = np.asarray(x, dtype=float)
    m = x.shape[0]
    if not 2 <= n_neighbors <= m - 1:
        raise ScaleOutOfRangeError(
            f"scale {n_neighbors} needs 2 <= scale <= M - 1 = {m - 1}"
        )
    if dim + 1 > m:
        raise DimTooLargeError(f"embedding dim {dim} needs at least {dim + 1} samples")
    d2, order = _neighbor_graph(x, n_neighbors) if graph is None else graph
    neighbors = order[:, 1 : n_neighbors + 1]
    bandwidth_rank = -(-n_neighbors // 2)
    sigma = np.sqrt(d2[np.arange(m), order[:, bandwidth_rank]])
    # A point with ceil(k/2) exact duplicates has sigma = 0. Clamping the
    # product keeps duplicate pairs at weight exp(0) = 1; a zero-bandwidth
    # pair at positive distance overflows to weight exp(-inf) = 0.
    bandwidth = np.maximum(np.outer(sigma, sigma), np.finfo(float).tiny)
    mask = np.zeros((m, m), dtype=bool)
    mask[np.arange(m)[:, None], neighbors] = True
    mask |= mask.T
    with np.errstate(over="ignore"):
        weights = np.exp(-d2 / bandwidth)
    affinity = np.where(mask, weights, 0.0) + _BACKGROUND_AFFINITY
    np.fill_diagonal(affinity, 0.0)
    degree = affinity.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degree)
    lap = np.eye(m) - affinity * np.outer(inv_sqrt, inv_sqrt)
    if (dim + 1) * _SUBSET_SOLVER_RATIO <= m:
        _, vecs = scipy.linalg.eigh(lap, subset_by_index=[0, dim])
    else:
        _, vecs = np.linalg.eigh(lap)
    emb = vecs[:, 1 : dim + 1] * inv_sqrt[:, None]
    return _fix_column_signs(emb)


def _load_external_embedding(
    pattern: str, scale: int, sample_count: int, dim: int
) -> np.ndarray:
    path = Path(pattern.replace("{scale}", str(scale)))
    if not path.exists():
        raise DataError(f"no embedding file for scale {scale}: {path}")
    try:
        values = np.loadtxt(path, delimiter=None if path.suffix == ".txt" else ",")
    except ValueError as err:
        raise DataError(f"embedding file for scale {scale} is not numeric: {err}")
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape != (sample_count, dim):
        raise DataError(
            f"embedding file for scale {scale} has shape {values.shape}, "
            f"expected ({sample_count}, {dim})"
        )
    if not np.all(np.isfinite(values)):
        raise DataError(f"embedding file for scale {scale} has non-finite values")
    return values


def mdr_embed(x: np.ndarray, scale: int, spec: MdrBackendSpec) -> np.ndarray:
    """Embed x at one scale with the configured backend. The PCA baseline
    ignores the scale; the external backend reads a precomputed file."""
    x = np.asarray(x, dtype=float)
    if spec.method is MdrMethod.LAPLACIAN_EIGENMAPS:
        return laplacian_eigenmaps(x, scale, spec.embedding_dim)
    if spec.method is MdrMethod.PCA_BASELINE:
        return pca_reduce(x, spec.embedding_dim)
    if spec.method is MdrMethod.EXTERNAL:
        assert spec.external_pattern is not None
        return _load_external_embedding(
            spec.external_pattern, scale, x.shape[0], spec.embedding_dim
        )
    raise ValueError(f"unhandled method {spec.method!r}")


def build_stack(x: np.ndarray, scales: ScaleSet, spec: MdrBackendSpec) -> EmbeddingStack:
    """Run the backend once per scale; backend errors are re-raised with the
    offending scale in the message. Laplacian eigenmaps share one neighbor
    graph, built for the largest scale, across all scales."""
    x = np.asarray(x, dtype=float)
    graph = None
    if spec.method is MdrMethod.LAPLACIAN_EIGENMAPS:
        graph = _neighbor_graph(x, max(scales))
    embeddings = []
    for scale in scales:
        try:
            if graph is None:
                emb = mdr_embed(x, scale, spec)
            else:
                emb = laplacian_eigenmaps(x, scale, spec.embedding_dim, graph=graph)
        except MgmError as err:
            raise type(err)(f"scale {scale}: {err}") from err
        embeddings.append(emb)
    return EmbeddingStack(scales=scales, embeddings=tuple(embeddings))
