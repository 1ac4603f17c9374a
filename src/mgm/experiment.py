"""Multi-seed experiment driver with baselines and file outputs.

One experiment preprocesses a matrix and runs the pipeline once: the
embeddings, subspaces, distance matrix and its cluster embedding (spectral
or classical MDS) do not depend on the seed. Two baselines reuse the run's
PCA-reduced matrix and embeddings to put the numbers in context: k-means on
a single PCA embedding, and k-means on the average of the per-scale
embeddings. Labels for every group, the method and both baselines, are
computed first, with k-means once per seed. One loop then scores each seed
(when ground truth is available) and writes its files as it is scored, so a
failure in a later seed preserves earlier output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .clustering import classical_mds, cluster_distances, kmeans_euclidean
from .config import PipelineConfig, config_to_mapping
from .data import DataError, ExpressionMatrix, _loadtxt, preprocess
from .grassmann import GrassmannMetric
from .mdr import pca_reduce
from .metrics import EvaluationReport, evaluate
from .pipeline import DistanceMatrix, RunReport, distance_matrix, run_mgm

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
    outcomes: tuple[SeedOutcome, ...]
    baselines: dict[str, tuple[SeedOutcome, ...]]
    checksum: str
    out_dir: Path | None

    def mean_metrics(self) -> dict[str, float] | None:
        return _mean_metrics(self.outcomes)

    def baseline_mean_metrics(self) -> dict[str, dict[str, float] | None]:
        return {name: _mean_metrics(runs) for name, runs in self.baselines.items()}


def _mean_metrics(outcomes) -> dict[str, float] | None:
    evals = [o.evaluation for o in outcomes if o.evaluation is not None]
    if not evals:
        return None
    keys = evals[0].to_dict().keys()
    return {k: float(np.mean([e.to_dict()[k] for e in evals])) for k in keys}


def _scores(outcomes, k: int) -> dict:
    return {
        "mean": _mean_metrics(outcomes),
        "per_seed": [
            metrics_payload(o.evaluation, o.method, o.seed, k) for o in outcomes
        ],
    }


def metrics_payload(
    evaluation: EvaluationReport | None, method: str, seed: int, k: int
) -> dict:
    payload: dict = {} if evaluation is None else evaluation.to_dict()
    payload.update({"method": method, "seed": seed, "k": k})
    return payload


def save_distance_matrix(
    d: DistanceMatrix, path: str | Path, report: RunReport | None = None
) -> None:
    """Write the full matrix with 17 significant digits (lossless for float64)
    plus a JSON sidecar describing how it was produced."""
    path = Path(path)
    np.savetxt(path, d.values, delimiter=",", fmt="%.17g")
    meta = {"metric": d.metric.value, "sample_count": d.size}
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


def load_distance_matrix(path: str | Path) -> tuple[DistanceMatrix, dict | None]:
    """Read a matrix written by save_distance_matrix; the sidecar is optional
    and supplies the metric (chordal assumed without one). A sidecar
    sample_count must match the matrix."""
    path = Path(path)
    try:
        values = _loadtxt(path, ",")
    except (OSError, ValueError) as err:
        raise DataError(f"cannot read distance matrix {path}: {err}")
    meta, metric = None, GrassmannMetric.CHORDAL
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
            if not isinstance(meta, dict) or not isinstance(meta.get("metric"), str):
                raise ValueError("expected a JSON object with a string 'metric'")
            metric = GrassmannMetric.parse(meta["metric"])
        except (OSError, ValueError) as err:
            raise DataError(f"bad sidecar {meta_path}: {err}")
    try:
        dmat = DistanceMatrix(values=values, metric=metric)
    except ValueError as err:
        raise DataError(f"{path} is not a valid distance matrix: {err}")
    count = None if meta is None else meta.get("sample_count")
    if count is not None and count != dmat.size:
        raise DataError(f"sidecar {meta_path} gives {count!r} samples, {path} has {dmat.size}")
    return dmat, meta


def export_scatter(
    d: DistanceMatrix, labels, path: str | Path
) -> np.ndarray:
    """Write a 2-d classical-MDS view of a distance matrix as x,y,label rows.

    Degenerate directions (no positive eigenvalue) are padded with zeros, so
    the file always has two coordinate columns.
    """
    m = d.size
    if m < 3:
        raise DataError(f"scatter export needs at least 3 samples, got {m}")
    if labels is not None and len(labels) != m:
        raise DataError(f"{len(labels)} labels for {m} samples")
    coords = classical_mds(d.values, 2)
    if coords.shape[1] < 2:
        coords = np.hstack([coords, np.zeros((m, 2 - coords.shape[1]))])
    path = Path(path)
    with open(path, "w") as handle:
        handle.write("x,y,label\n")
        for i in range(m):
            label = "" if labels is None else str(labels[i])
            handle.write(f"{coords[i, 0]:.17g},{coords[i, 1]:.17g},{label}\n")
    return coords


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def run_experiment(
    matrix: ExpressionMatrix,
    cfg: PipelineConfig,
    out_dir: str | Path | None = None,
    save_distance: bool = False,
    with_baselines: bool = True,
) -> ExperimentResult:
    """Run the pipeline and embed its distance matrix once, run k-means for
    every configured seed of the method and the baselines, then score and
    write each seed.

    Evaluation requires matrix.labels; without them only predicted labels are
    produced. Each seed's run report and distance-matrix sidecar carry that
    seed.
    """
    pre = preprocess(
        matrix,
        normalize=cfg.normalize,
        log_transform=cfg.log_transform,
        top_features=cfg.top_features,
    )
    checksum = hashlib.sha256(
        np.ascontiguousarray(pre.values).tobytes()
    ).hexdigest()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        lines = [f"{k} = {v}" for k, v in config_to_mapping(cfg).items()]
        (out_path / "config.txt").write_text("\n".join(lines) + "\n")
    truth = pre.labels
    cells, dmat, report, embedding = run_mgm(pre, cfg)
    for _ in cfg.seeds[1:]:
        # The matrix does not depend on the seed, but the pipeline
        # workload of perfbench/ counts one build per seed
        # (test_traced_child_reports_every_layer); ROADMAP item 1.
        dmat = distance_matrix(cells, cfg.metric)

    # Every group's labels first, one array per seed, with the run report
    # and the distance matrix each of its seed directories gets (None for
    # the baselines).
    groups = {
        "mgm": (
            cfg.clustering_method.value,
            cluster_distances(
                dmat, cfg.clustering_method, cfg.k, cfg.seeds, mds_dim=cfg.mds_dim
            ),
            report,
            dmat if save_distance else None,
        )
    }
    if with_baselines:
        reduced = embedding.reduced
        dim = min(cfg.embedding.embedding_dim, *reduced.shape)
        points = {
            "baseline_pca": pca_reduce(reduced, dim),
            "baseline_avg_embedding": np.mean(np.stack(embedding.stack.embeddings), axis=0),
        }
        for group, values in points.items():
            seed_labels = tuple(kmeans_euclidean(values, cfg.k, seed=s) for s in cfg.seeds)
            groups[group] = (f"{group}+kmeans", seed_labels, None, None)

    scored: dict[str, tuple[SeedOutcome, ...]] = {}
    for group, (method, seed_labels, group_report, saved) in groups.items():
        outcomes = []
        for seed, labels in zip(cfg.seeds, seed_labels):
            outcome = SeedOutcome(
                seed=seed,
                labels=labels,
                method=method,
                evaluation=evaluate(labels, truth) if truth is not None else None,
                report=None if group_report is None else replace(group_report, seed=seed),
            )
            outcomes.append(outcome)
            if out_path is None:
                continue
            seed_dir = out_path / group / f"seed_{seed}"
            seed_dir.mkdir(parents=True, exist_ok=True)
            _write_json(
                seed_dir / "metrics.json",
                metrics_payload(outcome.evaluation, method, seed, cfg.k),
            )
            (seed_dir / "labels.csv").write_text("\n".join(str(int(v)) for v in labels) + "\n")
            if outcome.report is not None:
                _write_json(seed_dir / "run_report.json", outcome.report.to_dict())
            if saved is not None:
                save_distance_matrix(saved, seed_dir / "distance_matrix.csv", outcome.report)
        scored[group] = tuple(outcomes)
    outcomes = scored.pop("mgm")
    baselines = scored

    result = ExperimentResult(
        outcomes=outcomes, baselines=baselines, checksum=checksum, out_dir=out_path
    )
    if out_path is not None:
        summary = {
            "checksum": checksum,
            "seeds": list(cfg.seeds),
            "k": cfg.k,
            "metric": cfg.metric.value,
            "scales": list(report.scales),
            "mgm": {"method": cfg.clustering_method.value, **_scores(outcomes, cfg.k)},
            "baselines": {name: _scores(runs, cfg.k) for name, runs in baselines.items()},
        }
        _write_json(out_path / "summary.json", summary)
    return result

