"""External cluster-quality metrics against ground-truth labels.

All five metrics operate on two label vectors of equal length. Predicted and
true labels may use arbitrary hashable values; only the induced partitions
matter.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "EvaluationReport",
    "accuracy",
    "nmi",
    "ari",
    "purity",
    "avg_purity",
    "evaluate",
]


@dataclass(frozen=True)
class EvaluationReport:
    acc: float
    nmi: float
    ari: float
    purity: float
    avg_purity: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


def _contingency(pred, truth) -> np.ndarray:
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.ndim != 1 or truth.ndim != 1:
        raise DataError("label vectors must be 1-d")
    if pred.size == 0 or truth.size == 0:
        raise DataError("label vectors must be nonempty")
    if pred.size != truth.size:
        raise DataError(f"label vectors differ in length: {pred.size} vs {truth.size}")
    _, pred_codes = np.unique(pred, return_inverse=True)
    _, truth_codes = np.unique(truth, return_inverse=True)
    table = np.zeros((pred_codes.max() + 1, truth_codes.max() + 1), dtype=np.int64)
    np.add.at(table, (pred_codes, truth_codes), 1)
    return table


def _on_labels(score):
    """The (pred, truth) form of a score of the contingency table. The table
    form stays on it as .of_table, so evaluate builds one table for all five."""

    def on_labels(pred, truth) -> float:
        return score(_contingency(pred, truth))

    on_labels.__name__ = on_labels.__qualname__ = score.__name__
    on_labels.__doc__, on_labels.of_table = score.__doc__, score
    return on_labels


def _max_matching(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a maximum-weight matching of min(rows, cols)
    pairs, by the Kuhn-Munkres method with shortest augmenting paths, one
    row at a time (Kuhn 1955; Munkres 1957; Jonker & Volgenant 1987). O(k^3)."""
    flip = table.shape[0] > table.shape[1]
    cost = -(table.T if flip else table).astype(float)  # rows <= cols
    n, m = cost.shape
    # Column 0 is a virtual one: owner[0] is the row being added.
    u, v = np.zeros(n + 1), np.zeros(m + 1)
    owner = np.zeros(m + 1, dtype=np.intp)  # row matched to each column, 1-based; 0 for none
    for row in range(1, n + 1):
        owner[0], col = row, 0
        slack, used = np.full(m + 1, np.inf), np.zeros(m + 1, dtype=bool)
        way = np.zeros(m + 1, dtype=np.intp)
        while owner[col]:
            used[col] = True
            reduced = cost[owner[col] - 1] - u[owner[col]] - v[1:]
            better = ~used[1:] & (reduced < slack[1:])
            slack[1:][better], way[1:][better] = reduced[better], col
            free_slack = np.where(used, np.inf, slack)
            nxt = int(np.argmin(free_slack))
            delta = free_slack[nxt]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            col = nxt
        while col:  # flip the augmenting path
            owner[col] = owner[way[col]]
            col = way[col]
    matched = np.flatnonzero(owner[1:])
    pairs = (owner[1:][matched] - 1, matched)  # rows and columns of cost
    return pairs[::-1] if flip else pairs


@_on_labels
def accuracy(table: np.ndarray) -> float:
    """Fraction of samples correct under the best one-to-one relabeling,
    found as a maximum-weight full matching of the contingency table."""
    rows, cols = _max_matching(table)
    return float(table[rows, cols].sum() / table.sum())


@_on_labels
def nmi(table: np.ndarray) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Both partitions trivial (single cluster) gives 1.0; exactly one trivial
    partition gives 0.0. Natural logarithms throughout.
    """
    table = table.astype(float)
    total = table.sum()
    p_rows = table.sum(axis=1) / total
    p_cols = table.sum(axis=0) / total
    h_pred = float(-np.sum(p_rows[p_rows > 0] * np.log(p_rows[p_rows > 0])))
    h_truth = float(-np.sum(p_cols[p_cols > 0] * np.log(p_cols[p_cols > 0])))
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    joint = table / total
    outer = np.outer(p_rows, p_cols)
    mask = joint > 0
    mi = max(float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask]))), 0.0)
    return min(mi / np.sqrt(h_pred * h_truth), 1.0)


def _pair_count(counts: np.ndarray) -> int:
    return int(np.sum(counts * (counts - 1) // 2))


@_on_labels
def ari(table: np.ndarray) -> float:
    """Adjusted Rand index via pair counting.

    When the expected index equals the maximum index the adjustment is
    undefined; that happens only for edge partitions, where the value is 1.0
    if the partitions are identical up to relabeling and 0.0 otherwise.
    """
    n = int(table.sum())
    index = _pair_count(table.ravel())
    sum_rows = _pair_count(table.sum(axis=1))
    sum_cols = _pair_count(table.sum(axis=0))
    total_pairs = n * (n - 1) // 2
    expected = sum_rows * sum_cols / total_pairs if total_pairs else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        hit = table > 0
        return 1.0 if np.all(hit.sum(axis=0) == 1) and np.all(hit.sum(axis=1) == 1) else 0.0
    return float((index - expected) / (max_index - expected))


@_on_labels
def purity(table: np.ndarray) -> float:
    """Size-weighted purity: each predicted cluster contributes its majority
    count; the total is divided by the number of samples."""
    return float(table.max(axis=1).sum() / table.sum())


@_on_labels
def avg_purity(table: np.ndarray) -> float:
    """Unweighted mean of per-cluster purity, so small clusters count as
    much as large ones."""
    return float(np.mean(table.max(axis=1) / table.sum(axis=1)))


def evaluate(pred, truth) -> EvaluationReport:
    """All five scores, from one contingency table."""
    table = _contingency(pred, truth)
    scores = (accuracy, nmi, ari, purity, avg_purity)
    return EvaluationReport(*(score.of_table(table) for score in scores))
