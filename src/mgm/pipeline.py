"""From per-scale embeddings to per-sample subspaces to a pairwise distance matrix.

Each sample contributes one row per scale; stacking those rows as columns
gives an n x p feature matrix per sample whose span is a point on a
Grassmann manifold. Pairwise subspace distances form the matrix that the
clustering stage consumes.
"""

from __future__ import annotations

import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataError, MgmError, NumericalError
from .grassmann import (
    _CHORDAL_SQ_GUARD,
    _ORTHO_TOL,
    GrassmannMetric,
    block_distances,
    distance,
    orthonormalize,
)
from .mdr import build_stack, pca_reduce
from .scales import sample_scales

if TYPE_CHECKING:
    from .config import PipelineConfig

__all__ = [
    "MultiscaleEmbedding",
    "RunReport",
    "build_subspaces",
    "distance_matrix",
    "embed_multiscale",
    "run_mgm",
]

# Subspaces per tile of the angle-metric kernel, per batched SVD of
# build_subspaces and per batch of chordal projector features. A tile pair's
# cross blocks hold 64 r^2 floats, 270 KB at the setup1 rank of 23, and each
# worker thread holds one tile pair's at a time. On the M = 200 setup1
# benchmark input (1 BLAS thread), 16-subspace tiles raised peak RSS by 2.5
# MB for no clear speed-up, and one SVD of all M feature matrices by 6 MB.
_TILE_SUBSPACES = 8
# Rows per block where an M x M array is filled or checked.
_BLOCK_ROWS = 64


def _check_distances(values) -> np.ndarray:
    """values as a float array, or ValueError unless it holds symmetric
    nonnegative pairwise distances with a zero diagonal: square, finite,
    symmetric within 1e-10 and exactly 0 on the diagonal. The checks hold no
    M x M temporary."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {v.shape}")
    # min and max carry any NaN, so the two are finite only if all are.
    low, high = (v.min(), v.max()) if v.size else (0.0, 0.0)
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("distance matrix has non-finite values")
    if low < 0:
        raise ValueError("distance matrix has negative entries")
    # One row block's difference alive at a time.
    asym = math.hypot(
        *(
            np.linalg.norm(v[lo : lo + _BLOCK_ROWS] - v[:, lo : lo + _BLOCK_ROWS].T)
            for lo in range(0, len(v), _BLOCK_ROWS)
        )
    )
    if asym > 1e-10:
        raise ValueError("distance matrix is not symmetric")
    if np.any(np.diag(v) != 0.0):
        raise ValueError("distance matrix diagonal must be exactly zero")
    return v


def build_subspaces(embeddings: np.ndarray) -> np.ndarray:
    """Orthonormalize every sample's n x p feature matrix, its row of each
    scale's embedding (embeddings[s], M x n) as columns in scale order, with
    one batched SVD per _TILE_SUBSPACES samples, into a read-only (M, n, p)
    array owning its data: sample k's basis in the first r_k columns of [k],
    exactly 0.0 after (_subspace_ranks). Only the span is kept, so scaling a
    column by a positive factor moves no distance; rank-deficient features
    give a smaller subspace. At embedding.dim <= p every sample would span
    all of R^n and every distance would be rounding noise, so that raises.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    if embeddings.ndim != 3:
        raise ValueError(f"need a (p, M, n) array of embeddings, got shape {embeddings.shape}")
    p, m, n = embeddings.shape
    if n <= p:
        raise ConfigError(
            f"embedding.dim {n} must exceed the number of sampled scales {p}; "
            "otherwise every subspace is the whole embedding space"
        )
    bases = np.zeros((m, n, p))
    for lo in range(0, m, _TILE_SUBSPACES):
        hi = lo + _TILE_SUBSPACES
        bases[lo:hi] = orthonormalize(embeddings[:, lo:hi].transpose(1, 2, 0), lo)[0]
    bases.setflags(write=False)
    return bases


def _subspace_ranks(bases: np.ndarray) -> np.ndarray:
    """Each sample's count of basis columns that are not all zero. ValueError
    unless bases is nonempty 3-d and those columns come first, at least one."""
    if bases.ndim != 3 or min(bases.shape) < 1:
        raise ValueError(f"need a nonempty (M, n, p) basis array, got shape {bases.shape}")
    nonzero = bases.any(axis=1)
    ranks = np.count_nonzero(nonzero, axis=1)
    if ranks.min() < 1:
        raise ValueError(f"sample {int(np.argmin(ranks))} has no nonzero basis column")
    late = (nonzero[:, 1:] > nonzero[:, :-1]).any(axis=1)  # nonzero after a zero
    if late.any():
        raise ValueError(f"sample {int(np.argmax(late))} has a zero column before a nonzero one")
    return ranks


def _check_orthonormal(bases: np.ndarray, ranks: np.ndarray) -> None:
    """ValueError naming the first sample whose first r_k columns are not
    orthonormal within _ORTHO_TOL, the Frobenius defect grassmann.distance
    allows, from one batched Gram of every basis: the columns past r_k are
    zero, so they add nothing to the defect. More nonzero columns than n
    cannot be orthonormal."""
    p = bases.shape[2]
    # A NaN or an infinity gives a NaN defect, which fails, not a warning.
    with np.errstate(invalid="ignore", over="ignore"):
        gram = np.matmul(bases.transpose(0, 2, 1), bases)
        gram[:, range(p), range(p)] -= np.arange(p) < ranks[:, None]
        defect = np.linalg.norm(gram, axis=(1, 2))
    bad = ~(defect <= _ORTHO_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"sample {k}: basis columns are not orthonormal (defect {defect[k]:.3e})")


def _cpu_count() -> int:
    """How many CPUs this process may run on: the worker count of
    _tiled_distances."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _tile_row(
    bases: np.ndarray, ranks: np.ndarray, lo: int, metric: GrassmannMetric, out: np.ndarray
) -> list[tuple[int, int]]:
    """Fill out[i, j] and out[j, i] under an angle metric for every i of the
    tile starting at `lo` and every j > i, and return the pairs to compute
    one by one: those that grassmann.block_distances flags, and those whose
    ranks sum past n. Such a pair shares a direction, a cosine of 1 that
    fails the cancellation guard, so it skips the batch.

    Tiles are slices of bases. One broadcast matmul of the p x n and
    n x p blocks gives every cross block Qi^T Qj of a tile pair. Each
    product is far below the size at which OpenBLAS starts its own threads,
    so a row never wakes the BLAS pool.
    """
    m, n, r = bases.shape
    left = bases[lo : lo + _TILE_SUBSPACES]
    left_t = left.transpose(0, 2, 1)[:, None]
    flagged: list[tuple[int, int]] = []
    for hi in range(lo, m, _TILE_SUBSPACES):
        right = bases[hi : hi + _TILE_SUBSPACES]
        if hi == lo:
            ti, tj = np.triu_indices(len(left), 1)
        else:
            ti, tj = np.indices((len(left), len(right))).reshape(2, -1)
        i, j = lo + ti, hi + tj
        batch = ranks[i] + ranks[j] <= n
        flagged.extend(zip(i[~batch].tolist(), j[~batch].tolist()))
        if not batch.any():
            continue
        # The cross blocks in (ti, tj) order, copied only when some are left out.
        cross = np.matmul(left_t, right[None]).reshape(-1, r, r)
        pick = (ti * len(right) + tj)[batch]
        if pick.size < len(cross):
            cross = cross[pick]
        i, j = i[batch], j[batch]
        values, redo = block_distances(cross, np.minimum(ranks[i], ranks[j]), metric)
        out[i, j] = out[j, i] = values
        flagged.extend(zip(i[redo].tolist(), j[redo].tolist()))
    return flagged


def _tiled_distances(
    bases: np.ndarray, ranks: np.ndarray, metric: GrassmannMetric, out: np.ndarray
) -> list[tuple[int, int]]:
    """Fill `out` off the diagonal under an angle metric, row of tiles by
    row of tiles (_tile_row), and return the pairs the rows flag.

    The rows are spread over the CPUs this process may use: the calling
    thread and up to _cpu_count() - 1 helper threads take rows from one
    shared sequence and write their disjoint entries of `out`. The first
    error stops the hand-out of rows and reaches the caller unchanged. Every
    pair is computed by the same code on the same inputs whichever thread
    takes its row, so `out` does not depend on the core count.
    """
    starts = range(0, len(bases), _TILE_SUBSPACES)
    rows = iter(starts)
    lock = threading.Lock()
    failed = threading.Event()
    flagged: list[tuple[int, int]] = []
    errors: list[BaseException] = []

    def drain() -> None:
        try:
            while True:
                with lock:
                    lo = None if failed.is_set() else next(rows, None)
                if lo is None:
                    return
                # list.extend and list.append are atomic under the GIL
                flagged.extend(_tile_row(bases, ranks, lo, metric, out))
        except BaseException as err:
            errors.append(err)
            failed.set()

    # Plain threads: a thread pool's futures, semaphore and queue added
    # about 5 KB to the traced peak of every call.
    helpers = [threading.Thread(target=drain) for _ in range(min(_cpu_count(), len(starts)) - 1)]
    for thread in helpers:
        thread.start()
    drain()
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    return flagged


def _chordal_sq(features: np.ndarray, ranks: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Squared chordal distances min(ri, rj) - <Fi, Fj> of cells lo:hi
    against cells lo:, each rounded once. np.einsum (optimize=False) sums an
    entry in an order set by the feature width alone, so a pair has the same
    bits in either order and in any block; a BLAS GEMM does not."""
    sq = np.einsum("ik,jk->ij", features[lo:hi], features[lo:])
    np.subtract(ranks[lo:], sq, out=sq, where=ranks[lo:hi, None] >= ranks[lo:])
    return np.subtract(ranks[lo:hi, None], sq, out=sq, where=ranks[lo:hi, None] < ranks[lo:])


def _chordal_distances(
    bases: np.ndarray, ranks: np.ndarray, out: np.ndarray
) -> list[tuple[int, int]]:
    """Fill `out` with chordal distances by row blocks, on the calling
    thread, and return the pairs i < j left at 0, those whose ranks sum
    past n or below _CHORDAL_SQ_GUARD (as the diagonal is). The features F
    pack each projector QQ^T, a tile at a time: its diagonal, then its
    strict upper triangle times sqrt(2), so <Fi, Fj> = <Pi, Pj>_F."""
    (m, n, _), ranks = bases.shape, ranks.astype(float)
    rows, cols = np.hstack([np.diag_indices(n), np.triu_indices(n, 1)])
    scale = np.where(rows == cols, 1.0, math.sqrt(2.0))
    features = np.empty((m, len(rows)))
    for lo in range(0, m, _TILE_SUBSPACES):
        q = bases[lo : lo + _TILE_SUBSPACES]
        features[lo : lo + len(q)] = np.einsum("tia,tja->tij", q, q)[:, rows, cols] * scale
    redo: list[tuple[int, int]] = []
    for lo in range(0, m, _BLOCK_ROWS):
        sq = _chordal_sq(features, ranks, lo, lo + _BLOCK_ROWS)
        hi = lo + len(sq)  # row a is cell lo + a
        skip = sq < _CHORDAL_SQ_GUARD
        if 2 * ranks.max() > n:
            skip |= ranks[lo:hi, None] > n - ranks[lo:]
        sq[skip] = 0.0
        i, j = np.nonzero(np.triu(skip, 1))
        out[lo:hi, lo:] = np.sqrt(sq, out=sq)
        out[hi:, lo:hi] = sq[:, hi - lo :].T  # the columns below the block
        redo += zip((i + lo).tolist(), (j + lo).tolist())
        del sq, skip  # not held beside the next block's Gram
    return redo


def distance_matrix(bases: np.ndarray, metric: GrassmannMetric) -> tuple[np.ndarray, int]:
    """All pairwise distances of the subspaces of an (M, n, p) basis array,
    as a read-only (M, M) array that owns its data, with the count of
    guarded pairs. Each pair is computed once, and written into both
    triangles where it is computed.
    A sample whose basis is not orthonormal is refused by name first
    (_check_orthonormal).

    Chordal takes its squared distances from Grams of packed projector
    features (_chordal_distances), the angle metrics from the cross blocks
    of the tiled kernel (_tiled_distances). Only the pairs whose ranks sum
    past the ambient dimension, that fail the cancellation guard, or whose
    Martin distance diverges go through grassmann.distance, with just the
    two subspaces each needs, and are counted as guarded pairs. The values
    do not depend on the core count or on the BLAS thread count.
    """
    bases = np.ascontiguousarray(bases, dtype=float)
    ranks = _subspace_ranks(bases)
    _check_orthonormal(bases, ranks)
    m = len(bases)
    out = np.zeros((m, m))
    if metric is GrassmannMetric.CHORDAL:
        redo = _chordal_distances(bases, ranks, out)
    else:
        redo = _tiled_distances(bases, ranks, metric, out)
    # In order, so a Martin divergence names the first offending pair.
    for i, j in sorted(redo):
        x, y = bases[i, :, : ranks[i]], bases[j, :, : ranks[j]]
        try:
            out[i, j] = out[j, i] = distance(x, y, metric)
        except NumericalError as err:
            raise NumericalError(f"pair ({i}, {j}): {err}") from err
    out.setflags(write=False)
    return out, len(redo)


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
    """The sampled scales, the matrix the embedding backend saw (PCA-reduced
    when pca.dim is set) and its per-scale embeddings, build_stack's array."""

    scales: tuple[int, ...]
    reduced: np.ndarray
    values: np.ndarray


def embed_multiscale(
    values: np.ndarray, cfg: "PipelineConfig", timings: dict[str, float] | None = None
) -> MultiscaleEmbedding:
    """Sample scales, apply the optional PCA, and embed at every scale.

    Without an external file pattern (Laplacian eigenmaps) the scale range
    is clamped to at most M - 1 neighbors. Stages are timed into `timings`
    when it is given, and a failing stage's name is prepended to its error.
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
        if cfg.embedding.external_pattern is None:
            cap = m - 1
            # The clamped range [min, M - 1] must hold two scales.
            if spec.min_scale >= cap:
                raise ConfigError(
                    f"scales.min {spec.min_scale} needs at least {spec.min_scale + 2} "
                    f"samples, got {m}"
                )
            if spec.max_scale > cap:
                spec = replace(spec, max_scale=cap)
        scales = sample_scales(spec)

    with _stage("pca", timings):
        reduced = values
        if cfg.pca_dim is not None:
            reduced = pca_reduce(values, cfg.pca_dim)

    with _stage("embed", timings):
        embeddings = build_stack(reduced, scales, cfg.embedding)
    return MultiscaleEmbedding(scales=scales, reduced=reduced, values=embeddings)


def run_mgm(
    values: np.ndarray, cfg: "PipelineConfig"
) -> tuple[np.ndarray, np.ndarray, RunReport, MultiscaleEmbedding]:
    """Run the pipeline stages on an already-preprocessed matrix.

    Stages: sample scales, optional PCA, per-scale embedding (see
    embed_multiscale), subspace construction, pairwise distances. None of
    them depends on a seed; the report carries the first configured seed.
    The first failing stage aborts with the stage name prepended to the
    error.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {values.shape}")
    timings: dict[str, float] = {}
    embedding = embed_multiscale(values, cfg, timings)

    with _stage("subspaces", timings):
        bases = build_subspaces(embedding.values)

    with _stage("distances", timings):
        dmat, guarded_pairs = distance_matrix(bases, cfg.metric)

    report = RunReport(
        sample_count=values.shape[0],
        feature_count=values.shape[1],
        pca_dim=cfg.pca_dim,
        embedding_dim=embedding.values.shape[2],
        scales=embedding.scales,
        scale_count=len(embedding.scales),
        nominal_rank=bases.shape[2],
        rank_reduced_cells=int(np.count_nonzero(_subspace_ranks(bases) < bases.shape[2])),
        guarded_pairs=guarded_pairs,
        metric=cfg.metric.value,
        seed=cfg.seeds[0],
        stage_seconds=timings,
    )
    return bases, dmat, report, embedding
