"""Workload definitions and the seeded input generator.

Every workload is one closed-loop CLI invocation at a time, from a single
benchmark process. The program receives only the files written here: a
sample-by-gene count CSV with a header row and a cell-id column, and a
label file with one label per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

GENES = 500


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # the mgm subcommand
    preset: str
    samples: int
    nested: bool
    blas_threads: int
    extra_args: tuple[str, ...]
    metric: str | None  # subspace metric of the distance matrix, if one is written

    def argv(self, data: Path, labels: Path, out_dir: Path) -> list[str]:
        return [
            self.command,
            "--preset", self.preset,
            *self.extra_args,
            "--data", str(data),
            "--labels", str(labels),
            "--out-dir", str(out_dir),
        ]


# Sizes and the single BLAS thread keep runs steady on a shared 2-core
# machine: 5-8 s per invocation gives 4-6 invocations per 36-s run. At M=200
# the pipeline (18 s per invocation) varied by 27% IQR/median over 5 seeds,
# and a 2-thread pool let co-tenant load swing the M=1500 embedding by 35%.
# setup1's pca.dim=200 needs M >= 200.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-counts-m120",
            why=(
                "mgm pipeline, setup2-small, 3 Poisson clusters plus replicate cells (tiny "
                "angles): every layer runs, the per-pair distance loop dominates, seed-invariant "
                "work repeats 5 times. BLAS threads 1."
            ),
            command="pipeline",
            preset="setup2-small",
            samples=120,
            nested=False,
            blas_threads=1,
            extra_args=("--k", "3", "--save-distance-matrix"),
            metric="chordal",
        ),
        Workload(
            name="mgm-geodesic-nested-m200",
            why=(
                "mgm mgm, setup1, geodesic, nested sub-clusters: rank-23 subspaces in R^100, "
                "the non-chordal kernel and its small-angle sine path; one seed, no "
                "clustering. BLAS threads 1."
            ),
            command="mgm",
            preset="setup1",
            samples=200,
            nested=True,
            blas_threads=1,
            extra_args=("--metric", "geodesic"),
            metric="geodesic",
        ),
        Workload(
            name="embed-counts-m1000",
            why=(
                "mgm embed, setup2-small, M=1000: dense per-scale embedding dominates; "
                "bypasses subspaces, distances and clustering (control for that work). "
                "BLAS threads 1."
            ),
            command="embed",
            preset="setup2-small",
            samples=1000,
            nested=False,
            blas_threads=1,
            extra_args=(),
            metric=None,
        ),
    )
}


def _cluster_sizes(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def generate_counts(
    samples: int, seed: int, nested: bool = False, genes: int = GENES
) -> tuple[np.ndarray, np.ndarray]:
    """scRNA-like Poisson counts and integer labels.

    Gene baselines are log-normal and each cell has a log-normal library
    size. The flat variant has 3 clusters, each with its own up-regulated
    marker genes. The nested variant has 2 major clusters split into 2
    sub-clusters each, the sub-clusters differing by a weaker shift in fewer
    genes. Both repeat 4 cells exactly, as technical replicates; under the
    20-dimensional setup2-small embedding a replicate pair spans nearly the
    same subspace, so its principal angles are tiny (distances ~1e-14).
    """
    rng = np.random.default_rng(seed)
    base = rng.lognormal(mean=0.0, sigma=1.0, size=genes)
    profiles, labels = [], []
    if nested:
        for major, size in enumerate(_cluster_sizes(samples, 2)):
            major_fold = np.ones(genes)
            major_fold[rng.choice(genes, 40, replace=False)] *= 4.0
            for sub, sub_size in enumerate(_cluster_sizes(size, 2)):
                fold = major_fold.copy()
                fold[rng.choice(genes, 15, replace=False)] *= 2.0
                profiles.append(fold)
                labels.extend([2 * major + sub] * sub_size)
    else:
        for cluster, size in enumerate(_cluster_sizes(samples, 3)):
            fold = np.ones(genes)
            fold[rng.choice(genes, 30, replace=False)] *= 2.4
            profiles.append(fold)
            labels.extend([cluster] * size)
    labels = np.asarray(labels)
    means = base * np.stack(profiles)[labels]
    library = rng.lognormal(mean=0.0, sigma=0.3, size=samples)
    counts = rng.poisson(means * library[:, None]).astype(np.int64)
    replicates = rng.choice(samples, 8, replace=False)
    counts[replicates[1::2]] = counts[replicates[0::2]]
    labels[replicates[1::2]] = labels[replicates[0::2]]
    order = rng.permutation(samples)
    return counts[order], labels[order]


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write counts.csv and labels.txt for one workload and seed; the same
    seed always gives byte-identical files."""
    counts, labels = generate_counts(workload.samples, seed, nested=workload.nested)
    directory.mkdir(parents=True, exist_ok=True)
    data = directory / "counts.csv"
    header = "cell," + ",".join(f"g{j}" for j in range(counts.shape[1]))
    lines = [header]
    for i, row in enumerate(counts):
        lines.append(f"c{i}," + ",".join(map(str, row.tolist())))
    data.write_text("\n".join(lines) + "\n")
    label_path = directory / "labels.txt"
    label_path.write_text("\n".join(f"type{v}" for v in labels.tolist()) + "\n")
    return data, label_path
