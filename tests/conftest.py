import itertools

import numpy as np
import pytest

from mgm.grassmann import orthonormalize


def span(columns: np.ndarray) -> np.ndarray:
    """The orthonormal basis of the span of one n x p column matrix, through
    the batched orthonormalize on a stack of one, copied out of the stack."""
    bases, ranks = orthonormalize(np.asarray(columns)[None])
    return bases[0, :, : ranks[0]].copy()


def random_subspace(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    return span(rng.standard_normal((n, r)))


def make_blobs(
    m: int = 150,
    d: int = 50,
    sep: float = 6.0,
    n_blobs: int = 3,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic unit-variance Gaussian blobs of equal size; random centers
    rescaled so the minimum pairwise center distance equals sep."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_blobs, d))
    dists = [
        np.linalg.norm(centers[i] - centers[j])
        for i, j in itertools.combinations(range(n_blobs), 2)
    ]
    centers *= sep / min(dists)
    labels = np.repeat(np.arange(n_blobs), m // n_blobs)
    if len(labels) < m:
        labels = np.concatenate([labels, np.full(m - len(labels), n_blobs - 1)])
    x = centers[labels] + rng.standard_normal((m, d))
    return x, labels


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
