"""Multi-seed experiment driver with baselines and file outputs.

One experiment preprocesses a matrix and runs the pipeline once: the
embeddings, subspaces, distance matrix and its cluster embedding (spectral
or classical MDS) do not depend on the seed. Two baselines reuse the run's
PCA-reduced matrix and its mean of the per-scale embeddings to put the
numbers in context: k-means on a single PCA embedding, and k-means on that
mean. Labels for every group, the method and both baselines, are
computed first, with one k-means call per group for all seeds. One loop
then scores each seed (when ground truth is available) and writes its files
as it is scored, so a failure in a later seed preserves earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .clustering import classical_mds, cluster_distances, kmeans_euclidean
from .config import PipelineConfig, config_to_mapping, parse_choice
from .data import load_matrix, preprocess
from .errors import ConfigError, DataError
from .grassmann import GrassmannMetric
from .mdr import pca_reduce
from .metrics import EvaluationReport, evaluate
from .pipeline import RunReport, _check_distances, distance_matrix, run_mgm

__all__ = [
    "SeedOutcome",
    "ExperimentResult",
    "run_experiment",
    "export_scatter",
    "save_distance_matrix",
    "load_distance_matrix",
    "metrics_payload",
]


@dataclass(frozen=True)
class SeedOutcome:
    seed: int
    labels: np.ndarray
    method: str
    evaluation: EvaluationReport | None
    report: RunReport | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """means: each group's ("mgm", each baseline) mean scores, None if unscored."""

    outcomes: tuple[SeedOutcome, ...]
    baselines: dict[str, tuple[SeedOutcome, ...]]
    checksum: str
    out_dir: Path | None
    means: dict[str, dict[str, float] | None]

    def mean_metrics(self) -> dict[str, float] | None:
        return self.means["mgm"]

    def baseline_mean_metrics(self) -> dict[str, dict[str, float] | None]:
        return {name: self.means[name] for name in self.baselines}


_SCORE_KEYS = tuple(f.name for f in fields(EvaluationReport))


def _mean_metrics(payloads: list[dict]) -> dict[str, float] | None:
    """Each score's mean over one group's metrics_payload rows, None when
    they carry no scores."""
    if _SCORE_KEYS[0] not in payloads[0]:
        return None
    return {k: float(np.mean([p[k] for p in payloads])) for k in _SCORE_KEYS}


def metrics_payload(
    evaluation: EvaluationReport | None, method: str, seed: int, k: int
) -> dict:
    payload: dict = {} if evaluation is None else evaluation.to_dict()
    payload.update({"method": method, "seed": seed, "k": k})
    return payload


# Values per block of _write_csv, about 60 KB of floats and text. On the
# M = 120 pipeline benchmark input (1 BLAS thread), 64-row blocks of the
# distance matrix raised peak RSS by 0.2 MB; blocks this size do not.
_CSV_BLOCK_VALUES = 1024


def _write_csv(path: Path, values: np.ndarray) -> None:
    """Write a 2-d array as CSV with 17 significant digits (lossless for
    float64), the bytes np.savetxt(fmt="%.17g", delimiter=",") writes: one
    row format applied with % to a block of rows at a time, faster than
    np.savetxt's row loop and holding no string of the whole file."""
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    rows = max(1, _CSV_BLOCK_VALUES // values.shape[1])
    with open(path, "w") as handle:
        for lo in range(0, len(values), rows):
            block = values[lo : lo + rows]
            handle.write(row * len(block) % tuple(block.ravel().tolist()))


def save_distance_matrix(
    d: np.ndarray, metric: GrassmannMetric, path: str | Path, report: RunReport | None = None
) -> None:
    """Write the full matrix (_write_csv) plus a JSON sidecar naming its
    metric and describing how it was produced."""
    path = Path(path)
    with _writing(path):
        _write_csv(path, d)
        _write_sidecar(metric, len(d), path, report)


def _write_sidecar(
    metric: GrassmannMetric, size: int, path: Path, report: RunReport | None
) -> None:
    meta = {"metric": metric.value, "sample_count": size}
    if report is not None:
        meta.update(
            {
                "scales": list(report.scales),
                "nominal_rank": report.nominal_rank,
                "embedding_dim": report.embedding_dim,
                "seed": report.seed,
            }
        )
    _write_json(path.with_suffix(path.suffix + ".meta.json"), meta)


def load_distance_matrix(path: str | Path) -> tuple[np.ndarray, GrassmannMetric, dict | None]:
    """Read a matrix written by save_distance_matrix, or any CSV load_matrix
    reads, as a read-only array with its metric and sidecar. The sidecar is
    optional and supplies the metric (chordal assumed without one). A
    sidecar sample_count must match the matrix."""
    path = Path(path)
    values = load_matrix(path)
    meta, metric = None, GrassmannMetric.CHORDAL
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8-sig"))
            if not isinstance(meta, dict) or not isinstance(meta.get("metric"), str):
                raise ValueError("expected a JSON object with a string 'metric'")
            metric = parse_choice(GrassmannMetric, meta["metric"], "metric")
        except (OSError, ValueError) as err:
            raise DataError(f"bad sidecar {meta_path}: {err}")
    try:
        _check_distances(values)
    except ValueError as err:
        raise DataError(f"{path} is not a valid distance matrix: {err}")
    count = None if meta is None else meta.get("sample_count")
    if count is not None and count != len(values):
        raise DataError(f"sidecar {meta_path} gives {count!r} samples, {path} has {len(values)}")
    return values, metric, meta


def export_scatter(d: np.ndarray, labels, path: str | Path) -> np.ndarray:
    """Write a 2-d classical-MDS view of a distance matrix as x,y,label CSV
    rows, quoting a label only where CSV needs it. A label holding a carriage
    return is rejected, and a matrix that is not symmetric nonnegative
    distances with a zero diagonal raises ValueError.

    Degenerate directions (no positive eigenvalue) are padded with zeros, so
    the file always has two coordinate columns.
    """
    d = _check_distances(d)
    m = len(d)
    if m < 3:
        raise DataError(f"scatter export needs at least 3 samples, got {m}")
    if labels is not None:
        if len(labels) != m:
            raise DataError(f"{len(labels)} labels for {m} samples")
        # csv.writer quotes '\n' but not a lone '\r' under this line
        # terminator, and a reader would split the row there.
        for i, label in enumerate(labels):
            if "\r" in str(label):
                raise DataError(f"label of sample {i} holds a carriage return: {label!r}")
    coords = classical_mds(d, 2)
    if coords.shape[1] < 2:
        coords = np.hstack([coords, np.zeros((m, 2 - coords.shape[1]))])
    with _writing(path), open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["x", "y", "label"])
        for i in range(m):
            label = "" if labels is None else str(labels[i])
            writer.writerow([f"{coords[i, 0]:.17g}", f"{coords[i, 1]:.17g}", label])
    return coords


@contextmanager
def _writing(path):
    """Report an OSError raised while writing under path as a config error."""
    try:
        yield
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from err


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _preprocess(values: np.ndarray, cfg: PipelineConfig) -> np.ndarray:
    """preprocess with the steps cfg selects."""
    return preprocess(
        values,
        normalize=cfg.normalize,
        log_transform=cfg.log_transform,
        top_features=cfg.top_features,
    )


def run_experiment(
    values: np.ndarray,
    cfg: PipelineConfig,
    labels=None,
    out_dir: str | Path | None = None,
    save_distance: bool = False,
    with_baselines: bool = True,
) -> ExperimentResult:
    """Run the pipeline and embed its distance matrix once, run k-means for
    every configured seed of the method and the baselines, then score and
    write each seed.

    Evaluation requires labels, one ground-truth label per row of values;
    without them only predicted labels are produced. Each seed's run report
    and distance-matrix sidecar carry that seed. save_distance needs an
    out_dir to save into. A write that fails raises ConfigError naming
    out_dir (or the matrix file being saved).
    """
    if save_distance and out_dir is None:
        raise ConfigError("saving the distance matrix needs an output directory")
    pre = _preprocess(values, cfg)
    del values  # the raw matrix is freed here when the caller holds no name for it
    if labels is not None and len(labels) != len(pre):
        raise DataError(f"{len(labels)} labels for {len(pre)} samples")
    checksum = hashlib.sha256(pre).hexdigest()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        lines = [f"{k} = {v}" for k, v in config_to_mapping(cfg).items()]
        with _writing(out_path):
            out_path.mkdir(parents=True, exist_ok=True)
            (out_path / "config.txt").write_text("\n".join(lines) + "\n")
    bases, dmat, report, reduced, average = run_mgm(pre, cfg)
    for _ in cfg.seeds[1:]:
        # The matrix does not depend on the seed, but the pin at
        # perfbench/test_perfbench.py:154 counts one build per seed;
        # ROADMAP item 1a deletes this loop with it.
        dmat, _ = distance_matrix(bases, cfg.metric)

    # Every group's labels first, one array per seed, with the run report
    # and the distance matrix each of its seed directories gets (None for
    # the baselines).
    groups = {
        "mgm": (
            cfg.clustering_method.value,
            cluster_distances(dmat, cfg.clustering_method, cfg.k, cfg.seeds),
            report,
            dmat if save_distance else None,
        )
    }
    if with_baselines:
        dim = min(cfg.embedding.embedding_dim, *reduced.shape)
        points = {"baseline_pca": pca_reduce(reduced, dim), "baseline_avg_embedding": average}
        for group, coords in points.items():
            seed_labels = kmeans_euclidean(coords, cfg.k, cfg.seeds)
            groups[group] = (f"{group}+kmeans", seed_labels, None, None)

    # Each seed's metrics payload is built once, for its metrics.json, the
    # summary and the means.
    scored: dict[str, tuple[SeedOutcome, ...]] = {}
    payloads: dict[str, list[dict]] = {}
    written: Path | None = None
    for group, (method, seed_labels, group_report, saved) in groups.items():
        outcomes, rows = [], []
        for seed, pred in zip(cfg.seeds, seed_labels):
            outcome = SeedOutcome(
                seed=seed,
                labels=pred,
                method=method,
                evaluation=evaluate(pred, labels) if labels is not None else None,
                report=None if group_report is None else replace(group_report, seed=seed),
            )
            outcomes.append(outcome)
            rows.append(metrics_payload(outcome.evaluation, method, seed, cfg.k))
            if out_path is None:
                continue
            with _writing(out_path):
                seed_dir = out_path / group / f"seed_{seed}"
                seed_dir.mkdir(parents=True, exist_ok=True)
                _write_json(seed_dir / "metrics.json", rows[-1])
                (seed_dir / "labels.csv").write_text("\n".join(str(int(v)) for v in pred) + "\n")
                if outcome.report is not None:
                    _write_json(seed_dir / "run_report.json", outcome.report.to_dict())
                if saved is not None:
                    # One matrix for every seed: formatted once, then copied.
                    target = seed_dir / "distance_matrix.csv"
                    if written is None:
                        save_distance_matrix(saved, cfg.metric, target, outcome.report)
                        written = target
                    else:
                        shutil.copyfile(written, target)
                        _write_sidecar(cfg.metric, len(saved), target, outcome.report)
        scored[group] = tuple(outcomes)
        payloads[group] = rows
    outcomes, baselines = scored.pop("mgm"), scored
    means = {group: _mean_metrics(rows) for group, rows in payloads.items()}
    result = ExperimentResult(
        outcomes=outcomes, baselines=baselines, checksum=checksum, out_dir=out_path, means=means
    )
    if out_path is not None:
        scores = {g: {"mean": means[g], "per_seed": rows} for g, rows in payloads.items()}
        summary = {
            "checksum": checksum,
            "seeds": list(cfg.seeds),
            "k": cfg.k,
            "metric": cfg.metric.value,
            "scales": list(report.scales),
            "mgm": {"method": cfg.clustering_method.value, **scores.pop("mgm")},
            "baselines": scores,
        }
        with _writing(out_path):
            _write_json(out_path / "summary.json", summary)
    return result

