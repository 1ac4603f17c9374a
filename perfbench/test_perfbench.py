"""Tests of the benchmark itself: inputs, names, output checks and tracing.

Run with `PYTHONPATH=src python -m pytest perfbench` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
from workloads import WORKLOADS, generate_counts, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(ROOT / "src"))
from mgm.cli import main as mgm_main  # noqa: E402


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    w = WORKLOADS["pipeline-counts-m120"]
    first = write_inputs(w, 7, tmp_path / "a")
    second = write_inputs(w, 7, tmp_path / "b")
    other = write_inputs(w, 8, tmp_path / "c")
    for a, b, c in zip(first, second, other):
        assert a.read_bytes() == b.read_bytes()
    assert first[0].read_bytes() != other[0].read_bytes()


def test_nested_generator_has_four_groups_and_replicates():
    counts, labels = generate_counts(40, 3, nested=True)
    assert counts.shape == (40, 500) and counts.min() >= 0
    assert sorted(set(labels.tolist())) == [0, 1, 2, 3]
    assert len({row.tobytes() for row in counts}) == 36


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in spec["workloads"])


def test_names_use_only_allowed_characters():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer") for item in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 30-sample input, its chordal distance matrix and its embeddings."""
    work = tmp_path_factory.mktemp("tiny")
    counts, _ = generate_counts(30, 5)
    data = work / "counts.csv"
    np.savetxt(data, counts, delimiter=",", fmt="%d")
    common = ["--preset", "setup2-tiny", "--data", str(data)]
    assert mgm_main(["mgm", *common, "--out-dir", str(work / "mgm")]) == 0
    assert mgm_main(["embed", *common, "--out-dir", str(work / "embed")]) == 0
    matrices, _ = checks.check_mgm_output(work / "mgm", 30, "chordal")
    embeddings = checks.load_embeddings(work / "embed", 30)
    values = matrices[0]
    pairs = np.vstack([checks.fixed_pairs(30), checks.smallest_pairs(values)])
    reference = checks.reference_distances(embeddings, pairs, "chordal")
    return values, pairs, reference


def test_check_accepts_the_program_output(tiny_run):
    values, pairs, reference = tiny_run
    checks.check_distance_values(values, 30)
    assert checks.compare_pairs(values, pairs, reference) < 1e-12
    assert reference.min() < 1e-10  # the replicate cells give tiny angles


def test_check_rejects_an_asymmetric_matrix(tiny_run):
    values = tiny_run[0].copy()
    values[3, 7] += 1e-9
    with pytest.raises(checks.CheckError, match="not symmetric"):
        checks.check_distance_values(values, 30)


@pytest.mark.parametrize("which", [0, checks.FIXED_PAIRS])
def test_check_rejects_a_perturbed_pair(tiny_run, which):
    values, pairs, reference = tiny_run
    values = values.copy()
    i, j = pairs[which]  # a sampled pair, then the smallest pair
    values[i, j] = values[j, i] = values[i, j] * (1 + 1e-6) + 1e-10
    checks.check_distance_values(values, 30)
    with pytest.raises(checks.CheckError, match=f"pair \\({i}, {j}\\)"):
        checks.compare_pairs(values, pairs, reference)


def test_layer_table_nesting_self_time_and_missing(tmp_path):
    # main(0..10) > run_mgm(1..9) > distance(2..3), distance(4..6); a
    # re-entrant run_mgm(5..5.5) under the second distance.
    targets = ("cli.main", "pipeline.run_mgm", "grassmann.distance", "data.gone")
    path = tmp_path / "spans.npz"
    np.savez(
        path,
        targets=np.array(targets),
        missing=np.array(["data.gone"]),
        names=np.array([0, 1, 2, 2, 1]),
        parents=np.array([-1, 0, 1, 1, 3]),
        starts=np.array([0.0, 1.0, 2.0, 4.0, 5.0]),
        ends=np.array([10.0, 9.0, 3.0, 6.0, 5.5]),
    )
    table, missing, count = tracing.layer_table(path)
    assert missing == ["data.gone"] and count == 5
    assert not any(key.startswith("data.gone") for key in table)
    assert table["pipeline.run_mgm.calls"] == 2
    assert table["pipeline.run_mgm.s"] == 8.0
    assert table["pipeline.run_mgm.self_s"] == 5.0 + 0.5
    assert table["grassmann.distance.self_s"] == 1.0 + 1.5
    assert table["cli.main.self_s"] == 2.0
    assert table["pipeline.s"] == 8.0 and table["pipeline.self_s"] == 5.5
    assert table["data.s"] == 0.0


def test_traced_child_reports_every_layer(tmp_path):
    counts, labels = generate_counts(30, 2)
    data, truth = tmp_path / "counts.csv", tmp_path / "labels.txt"
    np.savetxt(data, counts, delimiter=",", fmt="%d")
    truth.write_text("\n".join(map(str, labels)) + "\n")
    argv = ["pipeline", "--preset", "setup2-tiny", "--k", "3", "--data", str(data),
            "--labels", str(truth), "--out-dir", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result, spans = tmp_path / "result.json", tmp_path / "spans.npz"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(result), "run", "--spans", str(spans),
         "--", *argv],
        env=env, check=True, timeout=120,
    )
    assert json.loads(result.read_text())["missing"] == []
    table, missing, _ = tracing.layer_table(spans)
    assert missing == []
    called = {key for key, value in table.items() if key.endswith(".calls") and value > 0}
    assert {f"{t}.calls" for t in tracing.TARGETS} - called == {
        "clustering.spectral_cluster.calls",  # setup2-tiny clusters with kmeans-mds
        "experiment.save_distance_matrix.calls",  # no --save-distance-matrix
    }
    assert table["grassmann.distance.calls"] == 5 * 30 * 29 // 2
    assert all(table[f"{t}.self_s"] <= table[f"{t}.s"] + 1e-9 for t in tracing.TARGETS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_metrics_are_exactly_the_manifest(tmp_path, name):
    # No spans at all: every target reads 0 calls, as on a workload that
    # does not reach that layer. The quality scores stay in the report.
    spans = tmp_path / "spans.npz"
    empty = np.array([], dtype=np.int64)
    np.savez(spans, targets=np.array(tracing.TARGETS), missing=np.array([], dtype=str),
             names=empty, parents=empty, starts=empty.astype(float), ends=empty.astype(float))
    table, missing, count = tracing.layer_table(spans)
    data = tmp_path / "counts.csv"
    data.write_text("1,2\n")
    bench = run.Run.__new__(run.Run)
    bench.workload, bench.data = WORKLOADS[name], data
    plain = {"traced": False, "run_s": 1.0}
    traced = {"traced": True, "run_s": 1.5, "table": table, "missing": missing,
              "spans": count, "output_files": 1, "output_bytes": 10,
              "quality": {"mgm_acc": 1.0}}
    report = {}
    metrics = bench.layer_metrics([plain, traced], report)
    assert set(metrics) == set(run.per_layer_units())
    assert report["missing_targets"] == []
