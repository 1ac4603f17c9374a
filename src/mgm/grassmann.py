"""Grassmann manifold primitives.

A point on Gr(n, r) is an r-dimensional linear subspace of R^n, stored as an
orthonormal basis matrix. This module provides batched orthonormalization
with numerical rank detection, principal angles between subspaces, and five
principal-angle distance metrics, per pair or for a batch of pairs.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import NumericalError

__all__ = [
    "GrassmannMetric",
    "orthonormalize",
    "principal_angles",
    "block_distances",
    "distance",
    "distance_from_angles",
]

_RANK_TOL = 1e-10
_ORTHO_TOL = 1e-10
_HALF_PI = math.pi / 2
# Any principal angle this close to pi/2 makes the Martin metric blow up.
_RIGHT_ANGLE_GUARD = 1e-9
# Cancellation guard of principal_angles: arccos of the cosines is trusted
# unless the largest cosine exceeds 1 - _COSINE_GUARD or the squared chordal
# distance min(rx, ry) - sum(cos^2) falls below _CHORDAL_SQ_GUARD. Past
# either, the angles come from the sines (Bjorck & Golub 1973; Knyazev &
# Argentati 2002).
_COSINE_GUARD = 1e-8
_CHORDAL_SQ_GUARD = 1e-4


class GrassmannMetric(enum.Enum):
    """The five supported subspace distances, all functions of principal angles."""

    GEODESIC = "geodesic"
    CHORDAL = "chordal"
    FUBINI_STUDY = "fubini-study"
    MARTIN = "martin"
    PROCRUSTES = "procrustes"


def orthonormalize(columns: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The spans of a stack of column matrices, from one batched SVD.

    columns[k] holds sample k's p columns in R^n. Returns the bases, shape
    (m, n, min(n, p)), sample k's orthonormal basis in the first ranks[k]
    columns of bases[k] and zeros after, and the ranks: the number of
    singular values above _RANK_TOL times the largest, so near-dependent
    columns are dropped rather than kept as noise directions. An all-zero
    sample raises, named as sample start + k.
    """
    a = np.asarray(columns, dtype=float)
    if a.ndim != 3 or min(a.shape) < 1:
        raise ValueError(f"expected a nonempty 3-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("input contains non-finite values")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    zero = s[:, 0] <= np.finfo(float).tiny
    if zero.any():
        raise NumericalError(
            f"sample {start + int(np.argmax(zero))}: all {a.shape[2]} columns are "
            "numerically zero; no span to represent"
        )
    # Singular values descend, so the kept columns are a prefix of each basis.
    keep = s > _RANK_TOL * s[:, :1]
    np.copyto(u, 0.0, where=~keep[:, None, :])
    return u, np.count_nonzero(keep, axis=1)


def _ordered_bases(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two bases, checked, the wider first; equal widths are ordered by
    raw bytes so every result built on them is bit-identical under argument
    swap. Each must be n x r, 1 <= r <= n, with orthonormal columns, which
    no basis holding a NaN or an infinity has. A strided basis, such as a
    rank-reduced cell's view, is copied: BLAS rounds a strided operand
    differently."""
    x, y = np.ascontiguousarray(x, dtype=float), np.ascontiguousarray(y, dtype=float)
    for q in (x, y):
        if q.ndim != 2 or not 1 <= q.shape[1] <= q.shape[0]:
            raise ValueError(f"need an n x r basis with 1 <= r <= n, got shape {q.shape}")
        # Checked first: an infinity would make q.T @ q warn on inf * 0.
        err = np.linalg.norm(q.T @ q - np.eye(q.shape[1])) if np.isfinite(q).all() else np.inf
        if not err <= _ORTHO_TOL:
            raise ValueError(f"basis columns are not orthonormal (defect {err:.3e})")
    if x.shape[0] != y.shape[0]:
        raise NumericalError(f"ambient dims differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[1] < y.shape[1] or (x.shape == y.shape and x.tobytes() > y.tobytes()):
        x, y = y, x
    return x, y


def _needs_sines(cosines: np.ndarray, count: int | np.ndarray) -> np.ndarray:
    """The cancellation guard, along the last axis: true where the largest
    cosine exceeds 1 - _COSINE_GUARD or the squared chordal distance
    count - sum(cos^2) falls below _CHORDAL_SQ_GUARD. A row holds `count`
    cosines, descending, then zeros."""
    return (cosines[..., 0] > 1.0 - _COSINE_GUARD) | (
        count - np.sum(cosines**2, axis=-1) < _CHORDAL_SQ_GUARD
    )


def _martin_diverges(theta: np.ndarray) -> np.ndarray:
    """True, along the last axis, where an angle is within _RIGHT_ANGLE_GUARD
    of pi/2."""
    return theta.max(axis=-1) >= _HALF_PI - _RIGHT_ANGLE_GUARD


def principal_angles(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Principal angles between x and y, ascending; min(rank_x, rank_y) values.

    Angles are the arccosines of the singular values of Qx^T Qy, one small
    SVD per pair. On that path a distance's absolute error is about
    r * eps / d_chordal, so it is trusted while the squared chordal distance
    min(rx, ry) - sum(cos^2) is at least 1e-4 (under 5e-13 at r = 23) and
    the largest cosine is at most 1 - 1e-8 (no angle below ~1.4e-4, where
    arccos loses digits). A pair past either guard takes a second SVD: the
    angles whose cosine exceeds sqrt(1/2) are recomputed from the singular
    values of Qy - Qx (Qx^T Qy), which equal the sines and stay accurate
    down to machine precision.
    """
    qx, qy = _ordered_bases(x, y)
    m = np.dot(qx.T, qy)
    # Singular values are nonnegative and descending, so the angles ascend.
    cosines = np.minimum(np.linalg.svd(m, compute_uv=False), 1.0)
    theta = np.arccos(cosines)
    if _needs_sines(cosines, cosines.size):
        small = cosines**2 >= 0.5
        sines = np.linalg.svd(qy - np.dot(qx, m), compute_uv=False)[::-1]
        theta[small] = np.arcsin(np.clip(sines[small], 0.0, 1.0))
        theta.sort()
    return theta


def distance_from_angles(angles: np.ndarray, metric: GrassmannMetric) -> float | np.ndarray:
    """Evaluate one of the five metrics on principal angles, in any order:
    a float for a vector of angles, one value per row for a batch. Angles
    within 1e-12 of [0, pi/2] are clipped into it; others, and NaN, raise."""
    theta = np.asarray(angles, dtype=float)
    if theta.ndim not in (1, 2) or theta.size < 1:
        raise ValueError("angles must be a nonempty 1-d or 2-d array")
    if not (theta.min() >= -1e-12 and theta.max() <= _HALF_PI + 1e-12):
        raise ValueError("principal angles must lie in [0, pi/2]")
    theta = np.minimum(np.maximum(theta, 0.0), _HALF_PI)
    if metric is GrassmannMetric.GEODESIC:
        return np.sqrt(np.sum(theta**2, axis=-1))
    if metric is GrassmannMetric.CHORDAL:
        return np.sqrt(np.sum(np.sin(theta) ** 2, axis=-1))
    if metric is GrassmannMetric.FUBINI_STUDY:
        return np.arccos(np.clip(np.prod(np.cos(theta), axis=-1), 0.0, 1.0))
    if metric is GrassmannMetric.MARTIN:
        if _martin_diverges(theta).any():
            raise NumericalError(
                "a principal angle is within 1e-9 of pi/2; the Martin metric diverges"
            )
        # + 0.0 turns the -0.0 of equal subspaces, -2 * (+0.0), into +0.0.
        return np.sqrt(-2.0 * np.sum(np.log(np.cos(theta)), axis=-1)) + 0.0
    if metric is GrassmannMetric.PROCRUSTES:
        return 2.0 * np.sqrt(np.sum(np.sin(theta / 2.0) ** 2, axis=-1))
    raise ValueError(f"unhandled metric {metric!r}")


def block_distances(
    cross: np.ndarray, counts: np.ndarray, metric: GrassmannMetric
) -> tuple[np.ndarray, np.ndarray]:
    """Distances of a batch of pairs from their cross Gram blocks, by one
    batched SVD: distance_matrix's kernel of the four angle metrics.

    cross[p] is Qi^T Qj of pair p, zero-padded to a common r x r, and
    counts[p] = min(ri, rj). Padding only adds zero singular values, which
    sort last, so the first counts[p] are the pair's cosines. Returns the
    distances and a mask of the pairs that fail the cancellation guard of
    principal_angles or whose Martin distance diverges. Their distances
    read 0 and must be recomputed with `distance`, which takes the sine
    path or raises.
    """
    r = cross.shape[-1]
    real = np.arange(r) < counts[:, None]
    singular = np.minimum(np.linalg.svd(cross, compute_uv=False), 1.0)
    redo = _needs_sines(np.where(real, singular, 0.0), counts)
    # Padding is read as trailing angles of 0, which add nothing to any metric.
    theta = np.arccos(np.where(real, singular, 1.0))
    if metric is GrassmannMetric.MARTIN:
        redo |= _martin_diverges(theta)
    values = np.zeros(counts.size)
    if not redo.all():
        keep = ~redo
        values[keep] = distance_from_angles(theta[keep], metric)
    return values, redo


def distance(x: np.ndarray, y: np.ndarray, metric: GrassmannMetric) -> float:
    """Distance between two subspaces under the chosen metric.

    Chordal needs no angles, and no SVD runs. With Qx the wider basis and
    G = Qx^T Qy, the squared distance sum(sin^2 theta) is
    min(rx, ry) - ||G||_F^2 (the projection distance of Hamm & Lee 2008).
    That difference is trusted while it is at least _CHORDAL_SQ_GUARD, the
    cancellation guard of principal_angles: its absolute error, a few
    r * eps, moves the distance by about r * eps / d, well inside
    1e-12 + 1e-9 * d there. Below the guard (replicate cells, near-equal
    spans) the distance is the Frobenius norm of the residual Qy - Qx G,
    which subtracts nothing from min(rx, ry) and keeps full precision down
    to distances of ~1e-14. np.dot makes the BLAS calls of @ with less
    dispatch per pair.
    """
    if metric is GrassmannMetric.CHORDAL:
        qx, qy = _ordered_bases(x, y)
        g = np.dot(qx.T, qy)
        sq = qy.shape[1] - np.vdot(g, g)
        if sq >= _CHORDAL_SQ_GUARD:
            return math.sqrt(sq)
        r = np.dot(qx, g)
        np.subtract(qy, r, out=r)
        return math.sqrt(np.vdot(r, r))
    return distance_from_angles(principal_angles(x, y), metric)
