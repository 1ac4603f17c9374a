"""Grassmann manifold primitives.

A point on Gr(n, r) is an r-dimensional linear subspace of R^n, stored as an
orthonormal basis matrix. This module provides orthonormalization with
numerical rank detection, principal angles between subspaces, and five
principal-angle distance metrics, per pair or for a batch of pairs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllColumnsZeroError,
    AmbientDimMismatchError,
    MartinDivergentError,
)

__all__ = [
    "GrassmannMetric",
    "Subspace",
    "PrincipalAngles",
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

    @classmethod
    def parse(cls, name: str) -> "GrassmannMetric":
        key = name.strip().lower().replace("_", "").replace("-", "")
        for metric in cls:
            if metric.value.replace("-", "") == key:
                return metric
        raise ValueError(
            f"unknown metric {name!r}; expected one of "
            + ", ".join(m.value for m in cls)
        )


@dataclass(frozen=True)
class Subspace:
    """An r-dimensional subspace of R^n held as an n x r orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-d, got shape {basis.shape}")
        n, r = basis.shape
        if not 1 <= r <= n:
            raise ValueError(f"need 1 <= rank <= ambient dim, got {r} and {n}")
        gram = basis.T @ basis
        err = np.linalg.norm(gram - np.eye(r))
        if err > _ORTHO_TOL:
            raise ValueError(f"basis columns are not orthonormal (defect {err:.3e})")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class PrincipalAngles:
    """Principal angles between two subspaces, ascending, in [0, pi/2].

    A 2-d array holds a batch of pairs, one per row; the checks and the
    metrics act along the last axis.
    """

    angles: np.ndarray

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles, dtype=float)
        if angles.ndim not in (1, 2) or angles.size < 1:
            raise ValueError("angles must be a nonempty 1-d or 2-d array")
        if angles.min() < -1e-12 or angles.max() > _HALF_PI + 1e-12:
            raise ValueError("principal angles must lie in [0, pi/2]")
        if (
            angles.shape[-1] > 1
            and (angles[..., 1:] - angles[..., :-1]).min() < -1e-12
        ):
            raise ValueError("principal angles must be sorted ascending")
        angles = np.minimum(np.maximum(angles, 0.0), _HALF_PI)
        angles.setflags(write=False)
        object.__setattr__(self, "angles", angles)

    def __len__(self) -> int:
        return self.angles.shape[-1]


def orthonormalize(columns: np.ndarray) -> Subspace:
    """Return the span of the given columns as a Subspace.

    The numerical rank is the number of singular values above _RANK_TOL
    times the largest one, so near-dependent columns are dropped rather than
    kept as noise directions.
    """
    a = np.asarray(columns, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("input contains non-finite values")
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= np.finfo(float).tiny:
        raise AllColumnsZeroError(
            f"all {a.shape[1]} columns are numerically zero; no span to represent"
        )
    rank = int(np.count_nonzero(s > _RANK_TOL * s[0]))
    return Subspace(u[:, :rank])


def _ordered_bases(x: Subspace, y: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """The two bases, the wider first; equal widths are ordered by raw bytes
    so every result built on them is bit-identical under argument swap."""
    if x.ambient_dim != y.ambient_dim:
        raise AmbientDimMismatchError(
            f"ambient dims differ: {x.ambient_dim} vs {y.ambient_dim}"
        )
    qx, qy = x.basis, y.basis
    if qx.shape[1] < qy.shape[1] or (
        qx.shape[1] == qy.shape[1] and qx.tobytes() > qy.tobytes()
    ):
        qx, qy = qy, qx
    return qx, qy


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


def principal_angles(x: Subspace, y: Subspace) -> PrincipalAngles:
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
    m = qx.T @ qy
    # Singular values are nonnegative and descending, so the angles ascend.
    cosines = np.minimum(np.linalg.svd(m, compute_uv=False), 1.0)
    theta = np.arccos(cosines)
    if _needs_sines(cosines, cosines.size):
        small = cosines**2 >= 0.5
        sines = np.linalg.svd(qy - qx @ m, compute_uv=False)[::-1]
        theta[small] = np.arcsin(np.clip(sines[small], 0.0, 1.0))
        theta.sort()
    return PrincipalAngles(theta)


def distance_from_angles(
    angles: PrincipalAngles | np.ndarray, metric: GrassmannMetric
) -> float | np.ndarray:
    """Evaluate one of the five metrics on principal angles: a float for a
    vector of angles, one value per row for a batch."""
    if not isinstance(angles, PrincipalAngles):
        angles = PrincipalAngles(angles)
    theta = angles.angles
    if metric is GrassmannMetric.GEODESIC:
        return np.sqrt(np.sum(theta**2, axis=-1))
    if metric is GrassmannMetric.CHORDAL:
        return np.sqrt(np.sum(np.sin(theta) ** 2, axis=-1))
    if metric is GrassmannMetric.FUBINI_STUDY:
        return np.arccos(np.clip(np.prod(np.cos(theta), axis=-1), 0.0, 1.0))
    if metric is GrassmannMetric.MARTIN:
        if _martin_diverges(theta).any():
            raise MartinDivergentError(
                "a principal angle is within 1e-9 of pi/2; the Martin metric diverges"
            )
        return np.sqrt(-2.0 * np.sum(np.log(np.cos(theta)), axis=-1))
    if metric is GrassmannMetric.PROCRUSTES:
        return 2.0 * np.sqrt(np.sum(np.sin(theta / 2.0) ** 2, axis=-1))
    raise ValueError(f"unhandled metric {metric!r}")


def block_distances(
    cross: np.ndarray, counts: np.ndarray, metric: GrassmannMetric
) -> tuple[np.ndarray, np.ndarray]:
    """Distances of a batch of pairs from their cross Gram blocks, one
    batched SVD for all of them.

    cross[p] is Qi^T Qj of pair p, zero-padded to a common r x r. Padding
    only adds zero singular values, which sort last, so the first
    counts[p] = min(ri, rj) are the pair's cosines. Returns the distances and
    a mask of the pairs that fail the cancellation guard of principal_angles
    or whose Martin distance diverges. Their distances read 0 and must be
    recomputed with `distance`, which takes the sine path or raises.
    """
    r = cross.shape[-1]
    real = np.arange(r) < counts[:, None]
    singular = np.minimum(np.linalg.svd(cross, compute_uv=False), 1.0)
    redo = _needs_sines(np.where(real, singular, 0.0), counts)
    # Each row is rotated so its padding comes first, as angles of 0: the
    # row still ascends, and a zero angle adds nothing to any metric.
    first = (np.arange(r) + counts[:, None]) % r
    theta = np.arccos(np.take_along_axis(np.where(real, singular, 1.0), first, axis=-1))
    if metric is GrassmannMetric.MARTIN:
        redo |= _martin_diverges(theta)
    values = np.zeros(counts.size)
    if not redo.all():
        keep = ~redo
        values[keep] = distance_from_angles(PrincipalAngles(theta[keep]), metric)
    return values, redo


def distance(x: Subspace, y: Subspace, metric: GrassmannMetric) -> float:
    """Distance between two subspaces under the chosen metric.

    Chordal needs no angles: with Qx the wider basis, the residual
    Qy - Qx (Qx^T Qy) has squared Frobenius norm sum(sin^2 theta), so its
    norm is the distance (the projection distance of Hamm & Lee 2008). No
    SVD runs, and nothing is subtracted from min(rx, ry), so tiny and
    near-right distances keep full precision without the cancellation
    guard.
    """
    if metric is GrassmannMetric.CHORDAL:
        qx, qy = _ordered_bases(x, y)
        r = (qy - qx @ (qx.T @ qy)).ravel()
        return math.sqrt(r @ r)
    return distance_from_angles(principal_angles(x, y), metric)
