"""Output checks for one CLI invocation, and reference distances computed
independently of the program's distance code.

Every check raises CheckError with a message naming what is wrong.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

# A pair agrees when |d - ref| <= ATOL + RTOL * ref. ATOL is far below what
# an arccos-only or a cancelling projector-Gram kernel gets wrong (~1e-8) on
# the replicate cells, whose distances are ~1e-14.
ATOL = 1e-12
RTOL = 1e-9
SYMMETRY_TOL = 1e-12
# Numerical rank rule for the reference subspaces: singular values above
# RANK_TOL times the largest, the rule the pipeline documents.
RANK_TOL = 1e-10
FIXED_PAIRS = 100
SMALLEST_PAIRS = 20


class CheckError(Exception):
    pass


def _read_json(path: Path) -> dict:
    if not path.is_file():
        raise CheckError(f"missing output file {path.name} in {path.parent}")
    try:
        return json.loads(path.read_text())
    except ValueError as err:
        raise CheckError(f"{path} is not valid JSON: {err}")


def _load_csv(path: Path) -> np.ndarray:
    if not path.is_file():
        raise CheckError(f"missing output file {path.name} in {path.parent}")
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as err:
        raise CheckError(f"{path} is not a numeric CSV: {err}")


def check_distance_values(values: np.ndarray, m: int) -> None:
    """An (m, m) finite, nonnegative, symmetric matrix with a zero diagonal."""
    if values.shape != (m, m):
        raise CheckError(f"distance matrix has shape {values.shape}, expected ({m}, {m})")
    if not np.all(np.isfinite(values)):
        raise CheckError("distance matrix has non-finite entries")
    if np.any(values < 0):
        raise CheckError("distance matrix has negative entries")
    asym = float(np.max(np.abs(values - values.T)))
    if asym > SYMMETRY_TOL:
        raise CheckError(f"distance matrix is not symmetric (max |D - D^T| = {asym:.3e})")
    if np.any(np.diag(values) != 0.0):
        raise CheckError("distance matrix diagonal is not exactly zero")


def fixed_pairs(m: int, count: int = FIXED_PAIRS) -> np.ndarray:
    """The same pairs (i < j) for every workload seed of a given size."""
    rng = np.random.default_rng(20251117)
    i, j = np.triu_indices(m, k=1)
    pick = np.sort(rng.choice(i.size, size=min(count, i.size), replace=False))
    return np.column_stack([i[pick], j[pick]])


def smallest_pairs(values: np.ndarray, count: int = SMALLEST_PAIRS) -> np.ndarray:
    """The off-diagonal pairs (i < j) with the smallest distances."""
    i, j = np.triu_indices(values.shape[0], k=1)
    order = np.argsort(values[i, j], kind="stable")[:count]
    return np.column_stack([i[order], j[order]])


def _metric_from_angles(theta: np.ndarray, metric: str) -> float:
    if metric == "geodesic":
        return math.sqrt(float(np.sum(theta**2)))
    if metric == "chordal":
        return math.sqrt(float(np.sum(np.sin(theta) ** 2)))
    raise ValueError(f"no reference for metric {metric!r}")


def _orthonormal_basis(features: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(features, full_matrices=False)
    return u[:, : int(np.count_nonzero(s > RANK_TOL * s[0]))]


def load_embeddings(embed_dir: Path, m: int) -> list[np.ndarray]:
    """The per-scale embeddings written by `mgm embed`, checked: one finite
    (m, dim) file per scale listed in stack.json."""
    meta = _read_json(embed_dir / "stack.json")
    scales, dim = meta.get("scales"), meta.get("embedding_dim")
    if not scales or not isinstance(dim, int):
        raise CheckError("stack.json lacks scales or embedding_dim")
    embeddings = []
    for scale in scales:
        emb = _load_csv(embed_dir / f"embedding_scale_{scale}.csv")
        if emb.shape != (m, dim):
            raise CheckError(f"scale {scale} embedding has shape {emb.shape}, expected ({m}, {dim})")
        if not np.all(np.isfinite(emb)):
            raise CheckError(f"scale {scale} embedding has non-finite values")
        embeddings.append(emb)
    return embeddings


def reference_distances(
    embeddings: list[np.ndarray], pairs: np.ndarray, metric: str
) -> np.ndarray:
    """Distances for the given pairs from scipy.linalg.subspace_angles.

    Sample i's subspace is the span of its embedding rows, one column per
    scale, as the pipeline defines it.
    """
    bases = {}
    for i in np.unique(pairs):
        features = np.column_stack([emb[i] for emb in embeddings])
        bases[int(i)] = _orthonormal_basis(features)
    return np.array(
        [
            _metric_from_angles(scipy.linalg.subspace_angles(bases[int(i)], bases[int(j)]), metric)
            for i, j in pairs
        ]
    )


def compare_pairs(values: np.ndarray, pairs: np.ndarray, reference: np.ndarray) -> float:
    """Raise if any pair is off the reference; return the largest |error|."""
    got = values[pairs[:, 0], pairs[:, 1]]
    err = np.abs(got - reference)
    bad = err > ATOL + RTOL * np.abs(reference)
    if np.any(bad):
        k = int(np.argmax(np.where(bad, err, -1.0)))
        i, j = pairs[k]
        raise CheckError(
            f"pair ({i}, {j}): distance {got[k]!r} but the reference gives {reference[k]!r}"
        )
    return float(err.max(initial=0.0))


def _check_labels(path: Path, m: int) -> None:
    if not path.is_file():
        raise CheckError(f"missing output file {path.name} in {path.parent}")
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if len(lines) != m:
        raise CheckError(f"{path} has {len(lines)} labels for {m} samples")
    if not all(line.strip().lstrip("-").isdigit() for line in lines):
        raise CheckError(f"{path} has non-integer labels")


def _check_distance_file(path: Path, m: int, metric: str) -> np.ndarray:
    meta = _read_json(path.with_name(path.name + ".meta.json"))
    if meta.get("metric") != metric:
        raise CheckError(f"{path} was computed with {meta.get('metric')!r}, expected {metric!r}")
    values = _load_csv(path)
    check_distance_values(values, m)
    return values


def _score(summary: dict, *keys: str) -> float:
    node = summary
    for key in keys:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, (int, float)) or not math.isfinite(node):
        raise CheckError(f"summary.json lacks a finite {'.'.join(keys)}")
    return float(node)


def check_pipeline_output(out_dir: Path, m: int, metric: str) -> tuple[list[np.ndarray], dict]:
    """Files of `mgm pipeline --save-distance-matrix`; returns every seed's
    distance matrix and the quality scores from summary.json."""
    summary = _read_json(out_dir / "summary.json")
    if not (out_dir / "config.txt").is_file():
        raise CheckError("missing output file config.txt")
    seeds = summary.get("seeds")
    if not seeds:
        raise CheckError("summary.json lists no seeds")
    quality = {
        "mgm_acc": _score(summary, "mgm", "mean", "acc"),
        "mgm_ari": _score(summary, "mgm", "mean", "ari"),
        "baseline_pca_acc": _score(summary, "baselines", "baseline_pca", "mean", "acc"),
        "baseline_avg_embedding_acc": _score(
            summary, "baselines", "baseline_avg_embedding", "mean", "acc"
        ),
    }
    matrices = []
    for group in ("mgm", "baseline_pca", "baseline_avg_embedding"):
        for seed in seeds:
            seed_dir = out_dir / group / f"seed_{seed}"
            _read_json(seed_dir / "metrics.json")
            _check_labels(seed_dir / "labels.csv", m)
            if group == "mgm":
                _read_json(seed_dir / "run_report.json")
                matrices.append(_check_distance_file(seed_dir / "distance_matrix.csv", m, metric))
    return matrices, quality


def check_mgm_output(out_dir: Path, m: int, metric: str) -> tuple[list[np.ndarray], dict]:
    """Files of `mgm mgm`: the distance matrix, its sidecar and the run report."""
    _read_json(out_dir / "run_report.json")
    return [_check_distance_file(out_dir / "distance_matrix.csv", m, metric)], {}


def check_embed_output(out_dir: Path, m: int) -> tuple[list[np.ndarray], dict]:
    load_embeddings(out_dir, m)
    return [], {}
