"""Command-line interface.

Subcommands cover each pipeline stage (sample-scales, embed, mgm, cluster,
evaluate, scatter) plus an end-to-end driver (pipeline). Exit codes: 0 on
success, 2 for configuration problems (an output path that cannot be
written among them), 3 for input-data problems, 4 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .clustering import cluster_distances
from .config import DEFAULTS, PRESETS, load_config
from .data import load_labels, load_matrix
from .errors import ConfigError, DataError, MgmError
from .experiment import (
    _preprocess,
    _write_csv,
    _writing,
    export_scatter,
    load_distance_matrix,
    metrics_payload,
    run_experiment,
    save_distance_matrix,
)
from .metrics import evaluate
from .pipeline import embed_multiscale, run_mgm
from .scales import sample_scales

__all__ = ["main", "build_parser"]


def _add_config_options(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", metavar="FILE", help="config file of key = value lines")
    group.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named parameter preset; file and flags override it",
    )
    group.add_argument("--metric", help="subspace metric (geodesic, chordal, fubini-study, martin, procrustes)")
    group.add_argument("--k", dest="clustering.k", type=int, help="number of clusters")
    seed_group = group.add_mutually_exclusive_group()
    seed_group.add_argument("--seed", dest="seeds", type=int, help="single seed")
    seed_group.add_argument("--seeds", help="comma-separated seeds")
    group.add_argument(
        "--top-features",
        dest="preprocess.top_features",
        type=int,
        help="keep this many highest-variance features",
    )
    group.add_argument("--scale-min", dest="scales.min", type=int, help="smallest scale")
    group.add_argument("--scale-max", dest="scales.max", type=int, help="largest scale")
    group.add_argument("--scale-count", dest="scales.count", type=int, help="samples along the curve")
    group.add_argument("--scale-power", dest="scales.power", type=float, help="curve exponent")


def _add_data_options(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("input data")
    group.add_argument("--data", metavar="FILE", required=True, help="sample-by-feature matrix")
    group.add_argument("--labels", metavar="FILE", help="ground-truth labels, one per line")
    group.add_argument("--format", choices=["csv", "tsv"], default="csv", help="matrix file format")
    group.add_argument(
        "--orientation",
        choices=["samples-as-rows", "samples-as-columns"],
        default="samples-as-rows",
        help="which axis holds the samples",
    )


def _resolve_config(args: argparse.Namespace):
    """Defaults < --preset < --config < each given flag whose dest is a key."""
    given = vars(args)
    return load_config(
        path=given.get("config"),
        preset=given.get("preset"),
        overrides={k: str(v) for k, v in given.items() if k in DEFAULTS and v is not None},
    )


def _load_data(args: argparse.Namespace):
    """The --data matrix and the --labels read for its rows, or None. A
    caller that only preprocesses the matrix holds no name for it, so it is
    freed once preprocessed."""
    values = load_matrix(args.data, fmt=args.format, orientation=args.orientation)
    labels = load_labels(args.labels, expected=len(values)) if args.labels else None
    return values, labels


def _write_text(text: str, out: str | Path | None) -> None:
    if out:
        with _writing(out):
            Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | Path | None) -> None:
    _write_text(json.dumps(payload, indent=2) + "\n", out)


def _cmd_sample_scales(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    scales = sample_scales(cfg.scales)
    gaps = np.diff(scales)
    payload = {
        "scales": list(scales),
        "count": len(scales),
        "requested": cfg.scales.count,
        "gaps": {"min": int(gaps.min()), "max": int(gaps.max()), "mean": float(gaps.mean())},
    }
    _emit(payload, args.out)
    return 0


def _cmd_embed(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    embedding = embed_multiscale(_preprocess(_load_data(args)[0], cfg), cfg)
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        for scale, emb in zip(embedding.scales, embedding.values):
            _write_csv(out_dir / f"embedding_scale_{scale}.csv", emb)
        meta = {
            "scales": list(embedding.scales),
            "embedding_dim": embedding.values.shape[2],
            "sample_count": embedding.values.shape[1],
            "method": "laplacian" if cfg.embedding.external_pattern is None else "external",
            "seed": cfg.seeds[0],
        }
        _emit(meta, out_dir / "stack.json")
    return 0


def _cmd_mgm(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _, dmat, report, _ = run_mgm(_preprocess(_load_data(args)[0], cfg), cfg)
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    save_distance_matrix(dmat, cfg.metric, out_dir / "distance_matrix.csv", report)
    _emit(report.to_dict(), out_dir / "run_report.json")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    dmat, _, _ = load_distance_matrix(args.distances)
    (labels,) = cluster_distances(dmat, cfg.clustering_method, cfg.k, cfg.seeds)
    _write_text("\n".join(str(int(v)) for v in labels) + "\n", args.out)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    pred = load_labels(args.pred)
    truth = load_labels(args.truth)
    report = evaluate(pred, truth)
    payload = metrics_payload(report, "external", seed=None, k=len(set(pred)))
    _emit(payload, args.out)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    values, labels = _load_data(args)
    result = run_experiment(
        values,
        cfg,
        labels=labels,
        out_dir=args.out_dir,
        save_distance=args.save_distance_matrix,
        with_baselines=not args.no_baselines,
    )
    payload = {
        "checksum": result.checksum,
        "mgm_mean": result.mean_metrics(),
        "baselines_mean": result.baseline_mean_metrics(),
        "out_dir": str(result.out_dir) if result.out_dir else None,
    }
    _emit(payload, None)
    return 0


def _cmd_scatter(args: argparse.Namespace) -> int:
    dmat, _, _ = load_distance_matrix(args.distances)
    labels = load_labels(args.labels, expected=len(dmat)) if args.labels else None
    export_scatter(dmat, labels, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgm",
        description="Multiscale subspace representations and clustering "
        "for sample-by-feature matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-scales", help="sample neighborhood scales along the power curve")
    _add_config_options(p)
    p.add_argument("--out", metavar="FILE", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_sample_scales)

    p = sub.add_parser("embed", help="write one embedding file per scale")
    _add_config_options(p)
    _add_data_options(p)
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("mgm", help="compute the pairwise subspace distance matrix")
    _add_config_options(p)
    _add_data_options(p)
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(func=_cmd_mgm)

    p = sub.add_parser("cluster", help="cluster a saved distance matrix")
    p.add_argument("--distances", required=True, metavar="FILE", help="distance matrix CSV")
    p.add_argument("--method", dest="clustering.method", help="spectral (default) or kmeans-mds")
    p.add_argument("--k", dest="clustering.k", type=int, required=True, help="number of clusters")
    p.add_argument("--seed", dest="seeds", type=int, help="k-means seed (default 0)")
    p.add_argument("--out", metavar="FILE", help="write labels here instead of stdout")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("evaluate", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True, metavar="FILE", help="predicted labels, one per line")
    p.add_argument("--truth", required=True, metavar="FILE", help="true labels, one per line")
    p.add_argument("--out", metavar="FILE", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage for every seed, with baselines")
    _add_config_options(p)
    _add_data_options(p)
    p.add_argument("--out-dir", help="output directory")
    p.add_argument(
        "--save-distance-matrix",
        action="store_true",
        help="persist each seed's distance matrix",
    )
    p.add_argument("--no-baselines", action="store_true", help="skip baseline runs")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("scatter", help="2-d MDS view of a distance matrix as CSV")
    p.add_argument("--distances", required=True, metavar="FILE")
    p.add_argument("--labels", metavar="FILE", help="labels, one per line")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_scatter)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        sys.stderr.write(f"config error: {err}\n")
        return 2
    except DataError as err:
        sys.stderr.write(f"data error: {err}\n")
        return 3
    except MgmError as err:
        sys.stderr.write(f"numerical error: {err}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
