"""From embedding stack to per-sample subspaces to a pairwise distance matrix.

Each sample contributes one row per scale; stacking those rows as columns
gives an n x p feature matrix per sample whose span is a point on a
Grassmann manifold. Pairwise subspace distances form the matrix that the
clustering stage consumes.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AllColumnsZeroError,
    ConfigError,
    DataError,
    MartinDivergentError,
    MgmError,
)
from .grassmann import (
    GrassmannMetric,
    Subspace,
    block_distances,
    distance,
    orthonormalize,
)
from .mdr import EmbeddingStack, MdrMethod, build_stack, pca_reduce
from .scales import sample_scales

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

# Subspaces per tile of the batched angle kernel in distance_matrix. A tile
# pair's cross blocks hold 64 r^2 floats, 270 KB at the setup1 rank of 23,
# and their SVD runs on up to 64 blocks at once. That working set is per
# worker thread: each holds one row's tiles at a time. On the M = 200 setup1
# benchmark input (1 BLAS thread) a run's peak RSS stayed at ~75 MB, as with
# one SVD per pair; 16-subspace tiles raised it by 2.5 MB for no clear
# speed-up, and one padded stack of all M bases would grow with M.
_TILE_SUBSPACES = 8


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
    """Symmetric nonnegative pairwise distances with a zero diagonal.

    guarded_pairs counts the pairs distance_matrix recomputed one by one
    after the batched kernel could not be trusted on them (0 for chordal,
    which has no batch, and for a matrix read from a file).
    """

    values: np.ndarray
    metric: GrassmannMetric
    guarded_pairs: int = 0

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


def build_subspaces(stack: EmbeddingStack) -> CellSubspaceSet:
    """Orthonormalize every sample's feature matrix into a subspace.

    Only the span is kept, so scaling a column by a positive factor moves no
    distance. Samples whose features are rank deficient get a smaller
    subspace; the set reports how many were reduced.
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
        try:
            points.append(orthonormalize(aggregate_features(stack, i)))
        except AllColumnsZeroError as err:
            raise AllColumnsZeroError(f"sample {i}: {err}") from err
    return CellSubspaceSet(points=tuple(points), nominal_rank=p, embedding_dim=n)


def _pair_distance(
    points: tuple[Subspace, ...], i: int, j: int, metric: GrassmannMetric
) -> float:
    try:
        return distance(points[i], points[j], metric)
    except MartinDivergentError as err:
        raise MartinDivergentError(f"pair ({i}, {j}): {err}") from err


def _cpu_count() -> int:
    """How many CPUs this process may run on: the worker count of
    _angle_distances."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _padded_tile(points: tuple[Subspace, ...], start: int, width: int) -> np.ndarray:
    """The bases of up to _TILE_SUBSPACES points from `start`, stacked as a
    (t, n, width) array, each padded with zero columns to `width`."""
    tile = points[start : start + _TILE_SUBSPACES]
    out = np.zeros((len(tile), tile[0].ambient_dim, width))
    for t, sub in enumerate(tile):
        out[t, :, : sub.rank] = sub.basis
    return out


def _tile_row(
    cells: CellSubspaceSet,
    ranks: np.ndarray,
    lo: int,
    metric: GrassmannMetric,
    out: np.ndarray,
) -> list[tuple[int, int]]:
    """Fill out[i, j] for every i of the tile starting at `lo` and every
    j > i, and return the pairs grassmann.block_distances flagged.

    One broadcast matmul of the r x n and n x r blocks gives every cross
    block Qi^T Qj of a tile pair. Each product is far below the size at
    which OpenBLAS starts its own threads, so a row never wakes the BLAS
    pool.
    """
    points, r, m = cells.points, cells.nominal_rank, len(cells)
    left = _padded_tile(points, lo, r)
    left_t = left.transpose(0, 2, 1)[:, None]
    flagged: list[tuple[int, int]] = []
    for hi in range(lo, m, _TILE_SUBSPACES):
        right = left if hi == lo else _padded_tile(points, hi, r)
        cross = np.matmul(left_t, right[None])
        if hi == lo:
            ti, tj = np.triu_indices(len(left), 1)
        else:
            ti, tj = np.indices((len(left), len(right))).reshape(2, -1)
        if ti.size == 0:
            continue
        i, j = lo + ti, hi + tj
        values, redo = block_distances(
            cross[ti, tj], np.minimum(ranks[i], ranks[j]), metric
        )
        out[i, j] = values
        flagged.extend(zip(i[redo].tolist(), j[redo].tolist()))
    return flagged


def _angle_distances(
    cells: CellSubspaceSet, metric: GrassmannMetric, out: np.ndarray
) -> int:
    """Fill the strict upper triangle of `out` row of tiles by row of tiles
    (_tile_row) and return how many pairs were recomputed one by one.

    The rows are spread over the CPUs this process may use: the calling
    thread and up to _cpu_count() - 1 helper threads take rows from one
    shared sequence and write their disjoint entries of `out`. The first
    error stops the hand-out of rows and reaches the caller unchanged. Every
    pair is computed by the same code on the same inputs whichever thread
    takes its row, so `out` does not depend on the core count. The pairs
    the batch flags are recomputed with grassmann.distance once every row
    is done, on the calling thread and in lexicographic order, so a Martin
    divergence names the first offending pair as a pair-by-pair loop would.
    """
    ranks = np.array([sub.rank for sub in cells.points])
    starts = range(0, len(cells), _TILE_SUBSPACES)
    rows = iter(starts)
    lock = threading.Lock()
    failed = threading.Event()

    def drain() -> list[tuple[int, int]]:
        flagged: list[tuple[int, int]] = []
        try:
            while True:
                with lock:
                    lo = None if failed.is_set() else next(rows, None)
                if lo is None:
                    return flagged
                flagged += _tile_row(cells, ranks, lo, metric, out)
        except BaseException:
            failed.set()
            raise

    helpers = min(_cpu_count(), len(starts)) - 1
    if helpers < 1:
        redo = drain()
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(helpers) as pool:
            futures = [pool.submit(drain) for _ in range(helpers)]
            redo = drain()
            for future in futures:
                redo += future.result()
    for i, j in sorted(redo):
        out[i, j] = _pair_distance(cells.points, i, j, metric)
    return len(redo)


def distance_matrix(cells: CellSubspaceSet, metric: GrassmannMetric) -> DistanceMatrix:
    """All pairwise subspace distances, computed on the strict upper triangle
    and mirrored.

    Chordal takes one residual per pair (grassmann.distance), which needs no
    SVD. The four angle metrics run as tiled, batched SVDs of the cross
    blocks Qi^T Qj, their rows of tiles spread over the CPUs this process
    may use (_angle_distances); only the pairs that fail the cancellation
    guard, or whose Martin distance diverges, go through grassmann.distance,
    and the matrix counts them as guarded_pairs. The values do not depend on
    the core count or on the BLAS thread count.
    """
    m = len(cells)
    out = np.zeros((m, m))
    guarded = 0
    if metric is GrassmannMetric.CHORDAL:
        for i in range(m - 1):
            for j in range(i + 1, m):
                out[i, j] = _pair_distance(cells.points, i, j, metric)
    else:
        guarded = _angle_distances(cells, metric, out)
    out = out + out.T
    return DistanceMatrix(values=out, metric=metric, guarded_pairs=guarded)


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
    guarded_pairs: int
    metric: str
    seed: int
    stage_seconds: dict[str, float]

    def to_dict(self) -> dict:
        return {**asdict(self), "scales": list(self.scales)}


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
    if m > 1:
        # Column extremes rather than values - values[0], so no second M x N
        # array is held. Proportional count rows land here after
        # normalization, equal to within rounding.
        high, low = values.max(axis=0), values.min(axis=0)
        if np.max(high - low) <= 1e-12 * np.max(np.maximum(high, -low)):
            raise DataError(
                f"all {m} samples are identical after preprocessing; "
                "there is no structure to embed"
            )

    with _stage("scales", timings):
        spec = cfg.scales
        if cfg.embedding.method is MdrMethod.LAPLACIAN_EIGENMAPS:
            cap = m - 1
            # The clamped range [min, M - 1] must hold two scales.
            if spec.min_scale >= cap:
                raise ConfigError(
                    f"min scale {spec.min_scale} needs at least {spec.min_scale + 2} "
                    f"samples, got {m}"
                )
            if spec.max_scale > cap:
                spec = replace(spec, max_scale=cap)
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
        cells = build_subspaces(stack)

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
        guarded_pairs=dmat.guarded_pairs,
        metric=cfg.metric.value,
        seed=cfg.seeds[0],
        stage_seconds=timings,
    )
    return cells, dmat, report, embedding
