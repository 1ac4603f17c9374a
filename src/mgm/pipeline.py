"""From embedding stack to per-sample subspaces to a pairwise distance matrix.

Each sample contributes one row per scale; stacking those rows as columns
gives an n x p feature matrix per sample whose span is a point on a
Grassmann manifold. Pairwise subspace distances form the matrix that the
clustering stage consumes.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import AllColumnsZeroError, ConfigError, MartinDivergentError, MgmError
from .grassmann import (
    DEFAULT_RANK_TOL,
    GrassmannMetric,
    Subspace,
    distance,
    orthonormalize,
)
from .mdr import EmbeddingStack, MdrMethod, build_stack, pca_reduce
from .scales import ScaleSamplingSpec, sample_scales

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .data import ExpressionMatrix

__all__ = [
    "CellSubspaceSet",
    "DistanceMatrix",
    "MultiscaleEmbedding",
    "RunReport",
    "aggregate_features",
    "build_subspaces",
    "distance_matrix",
    "embed_multiscale",
    "run_mgm",
]


@dataclass(frozen=True)
class CellSubspaceSet:
    """One subspace per sample, all in the same ambient space."""

    points: tuple[Subspace, ...]
    nominal_rank: int
    embedding_dim: int

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ValueError("need at least one subspace")
        for i, sub in enumerate(self.points):
            if sub.ambient_dim != self.embedding_dim:
                raise ValueError(
                    f"subspace {i} lives in R^{sub.ambient_dim}, expected R^{self.embedding_dim}"
                )
            if sub.rank > self.nominal_rank:
                raise ValueError(
                    f"subspace {i} has rank {sub.rank} above the nominal {self.nominal_rank}"
                )

    @property
    def rank_reduced_count(self) -> int:
        full = min(self.nominal_rank, self.embedding_dim)
        return sum(1 for sub in self.points if sub.rank < full)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric nonnegative pairwise distances with a zero diagonal."""

    values: np.ndarray
    metric: GrassmannMetric

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("distance matrix has non-finite values")
        if np.any(v < 0):
            raise ValueError("distance matrix has negative entries")
        if np.linalg.norm(v - v.T) > 1e-10:
            raise ValueError("distance matrix is not symmetric")
        if np.any(np.diag(v) != 0.0):
            raise ValueError("distance matrix diagonal must be exactly zero")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]


def aggregate_features(stack: EmbeddingStack, index: int) -> np.ndarray:
    """The n x p feature matrix of one sample: its embedding row per scale,
    stacked as columns in scale order."""
    if not 0 <= index < stack.sample_count:
        raise IndexError(f"sample index {index} out of range [0, {stack.sample_count})")
    return np.column_stack([emb[index] for emb in stack.embeddings])


def build_subspaces(
    stack: EmbeddingStack,
    normalize_columns: bool = False,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> CellSubspaceSet:
    """Orthonormalize every sample's feature matrix into a subspace.

    Columns may optionally be scaled to unit norm first so each scale
    contributes equally. Samples whose features are rank deficient get a
    smaller subspace; the set reports how many were reduced.
    """
    n, p = stack.embedding_dim, len(stack)
    if n < p:
        warnings.warn(
            f"embedding dim {n} is below the scale count {p}; "
            "every subspace will be rank reduced",
            stacklevel=2,
        )
    points = []
    for i in range(stack.sample_count):
        features = aggregate_features(stack, i)
        if normalize_columns:
            norms = np.linalg.norm(features, axis=0)
            nonzero = norms > np.finfo(float).tiny
            features = features.copy()
            features[:, nonzero] /= norms[nonzero]
        try:
            points.append(orthonormalize(features, tol=rank_tol))
        except AllColumnsZeroError as err:
            raise AllColumnsZeroError(f"sample {i}: {err}") from err
    return CellSubspaceSet(points=tuple(points), nominal_rank=p, embedding_dim=n)


def distance_matrix(cells: CellSubspaceSet, metric: GrassmannMetric) -> DistanceMatrix:
    """All pairwise subspace distances, computed on the strict upper triangle
    and mirrored."""
    m = len(cells)
    out = np.zeros((m, m))
    for i in range(m - 1):
        for j in range(i + 1, m):
            try:
                out[i, j] = distance(cells.points[i], cells.points[j], metric)
            except MartinDivergentError as err:
                raise MartinDivergentError(f"pair ({i}, {j}): {err}") from err
    out = out + out.T
    return DistanceMatrix(values=out, metric=metric)


@dataclass(frozen=True)
class RunReport:
    """What one end-to-end run actually did, for logging and sidecar files."""

    sample_count: int
    feature_count: int
    pca_dim: int | None
    embedding_dim: int
    scales: tuple[int, ...]
    scale_count: int
    nominal_rank: int
    rank_reduced_cells: int
    metric: str
    seed: int
    stage_seconds: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "sample_count": self.sample_count,
            "feature_count": self.feature_count,
            "pca_dim": self.pca_dim,
            "embedding_dim": self.embedding_dim,
            "scales": list(self.scales),
            "scale_count": self.scale_count,
            "nominal_rank": self.nominal_rank,
            "rank_reduced_cells": self.rank_reduced_cells,
            "metric": self.metric,
            "seed": self.seed,
            "stage_seconds": dict(self.stage_seconds),
        }


@contextmanager
def _stage(name: str, timings: dict[str, float]):
    start = time.perf_counter()
    try:
        yield
    except MgmError as err:
        raise type(err)(f"stage '{name}': {err}") from err
    finally:
        timings[name] = time.perf_counter() - start


@dataclass(frozen=True)
class MultiscaleEmbedding:
    """The matrix the embedding backend saw (PCA-reduced when pca.dim is
    set) and its per-scale embeddings."""

    reduced: np.ndarray
    stack: EmbeddingStack


def embed_multiscale(
    values: np.ndarray, cfg: "PipelineConfig", timings: dict[str, float] | None = None
) -> MultiscaleEmbedding:
    """Sample scales, apply the optional PCA, and embed at every scale.

    For neighborhood-based backends the scale range is clamped to at most
    M - 1 neighbors. Stages are timed into `timings` when it is given, and
    a failing stage's name is prepended to its error.
    """
    timings = {} if timings is None else timings
    m = values.shape[0]

    with _stage("scales", timings):
        spec = cfg.scales
        if cfg.embedding.method is MdrMethod.LAPLACIAN_EIGENMAPS:
            cap = m - 1
            if spec.min_scale > cap:
                raise ConfigError(
                    f"min scale {spec.min_scale} needs at least {spec.min_scale + 1} "
                    f"samples, got {m}"
                )
            if spec.max_scale > cap:
                spec = ScaleSamplingSpec(
                    min_scale=spec.min_scale,
                    max_scale=cap,
                    count=spec.count,
                    power=spec.power,
                )
        scale_set = sample_scales(spec)

    with _stage("pca", timings):
        reduced = values
        if cfg.pca_dim is not None:
            reduced = pca_reduce(values, cfg.pca_dim)

    with _stage("embed", timings):
        stack = build_stack(reduced, scale_set, cfg.embedding)
    return MultiscaleEmbedding(reduced=reduced, stack=stack)


def run_mgm(
    x: "ExpressionMatrix | np.ndarray", cfg: "PipelineConfig"
) -> tuple[CellSubspaceSet, DistanceMatrix, RunReport, MultiscaleEmbedding]:
    """Run the pipeline stages on an already-preprocessed matrix.

    Stages: sample scales, optional PCA, per-scale embedding (see
    embed_multiscale), subspace construction, pairwise distances. None of
    them depends on a seed; the report carries the first configured seed.
    The first failing stage aborts with the stage name prepended to the
    error.
    """
    values = np.asarray(getattr(x, "values", x), dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {values.shape}")
    timings: dict[str, float] = {}
    embedding = embed_multiscale(values, cfg, timings)
    stack = embedding.stack

    with _stage("subspaces", timings):
        cells = build_subspaces(stack, normalize_columns=cfg.normalize_columns)

    with _stage("distances", timings):
        dmat = distance_matrix(cells, cfg.metric)

    report = RunReport(
        sample_count=values.shape[0],
        feature_count=values.shape[1],
        pca_dim=cfg.pca_dim,
        embedding_dim=stack.embedding_dim,
        scales=tuple(stack.scales.scales),
        scale_count=len(stack.scales),
        nominal_rank=cells.nominal_rank,
        rank_reduced_cells=cells.rank_reduced_count,
        metric=cfg.metric.value,
        seed=cfg.seeds[0],
        stage_seconds=timings,
    )
    return cells, dmat, report, embedding
