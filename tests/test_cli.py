import argparse
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mgm
from mgm import mdr
from mgm.cli import _resolve_config, build_parser, main
from mgm.config import DEFAULTS, load_config
from mgm.experiment import load_distance_matrix

from conftest import make_blobs


@pytest.fixture
def workspace(tmp_path):
    """Blob data as CSV, truth labels, and a config file with fast settings."""
    x, truth = make_blobs(m=36, d=12, sep=8.0, seed=2)
    data = tmp_path / "data.csv"
    with open(data, "w") as handle:
        handle.write(",".join(f"f{j}" for j in range(12)) + "\n")
        for i in range(36):
            handle.write(f"s{i}," + ",".join(f"{v:.17g}" for v in x[i]) + "\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(f"type{t}" for t in truth) + "\n")
    config = tmp_path / "run.cfg"
    config.write_text(
        "embedding.dim = 10\n"
        "scales.min = 3\n"
        "scales.max = 8\n"
        "scales.count = 4\n"
        "scales.power = 1.0\n"
        "clustering.k = 3\n"
        "seeds = 1\n"
        "preprocess.normalize = false\n"
        "preprocess.log1p = false\n"
    )
    return tmp_path, data, labels, config, truth


def same_partition(a, b) -> bool:
    mapping = {}
    for x, y in zip(a, b):
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


class TestSampleScales:
    def test_stdout_json(self, capsys):
        code = main(
            [
                "sample-scales",
                "--scale-min", "2",
                "--scale-max", "10",
                "--scale-count", "5",
                "--scale-power", "1.0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scales"] == [2, 4, 6, 8, 10]
        assert payload["count"] == 5
        assert payload["gaps"]["min"] == 2

    def test_out_file(self, tmp_path):
        out = tmp_path / "scales.json"
        code = main(
            [
                "sample-scales",
                "--scale-min", "5",
                "--scale-max", "100",
                "--scale-count", "25",
                "--scale-power", "2.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["scales"]) == 23
        assert payload["requested"] == 25

    def test_linear_gaps(self, capsys):
        argv = ["--scale-min", "2", "--scale-max", "10", "--scale-count", "5"]
        assert main(["sample-scales", *argv, "--scale-power", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gaps"] == {"min": 2, "max": 2, "mean": 2.0}

    def test_gaps_grow_with_power(self, capsys):
        argv = ["--scale-min", "5", "--scale-max", "100", "--scale-count", "25"]
        assert main(["sample-scales", *argv, "--scale-power", "2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        gaps = np.diff(payload["scales"])
        assert gaps[0] <= gaps[-1]
        assert payload["gaps"]["min"] == int(gaps.min())
        assert payload["gaps"]["max"] == int(gaps.max())

    def test_invalid_spec_exits_2(self, capsys):
        code = main(
            [
                "sample-scales",
                "--scale-min", "10",
                "--scale-max", "5",
                "--scale-count", "4",
                "--scale-power", "1.0",
            ]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--scale-power", "inf"], "power must be positive and finite, got inf"),
            (["--seeds", "1,x"], "seeds must be comma-separated integers, got '1,x'"),
            (["--seeds", ""], "seeds must be nonempty"),
            (["--metric", ""], "unknown"),
        ],
    )
    def test_bad_flag_values_exit_2(self, capsys, flags, message):
        assert main(["sample-scales", *flags]) == 2
        assert message in capsys.readouterr().err


class TestEmbed:
    def test_writes_one_file_per_scale(self, workspace):
        tmp_path, data, _, config, _ = workspace
        out_dir = tmp_path / "emb"
        code = main(
            [
                "embed",
                "--config", str(config),
                "--data", str(data),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        meta = json.loads((out_dir / "stack.json").read_text())
        assert meta["scales"] == [3, 5, 6, 8]
        assert meta["embedding_dim"] == 10
        assert meta["sample_count"] == 36
        assert meta["method"] == "laplacian"
        for scale in meta["scales"]:
            emb = np.loadtxt(out_dir / f"embedding_scale_{scale}.csv", delimiter=",")
            assert emb.shape == (36, 10)

    def test_max_scale_clamped_like_mgm(self, workspace):
        tmp_path, data, _, config, _ = workspace
        common = ["--config", str(config), "--scale-max", "50", "--data", str(data)]
        assert main(["embed", *common, "--out-dir", str(tmp_path / "emb")]) == 0
        assert main(["mgm", *common, "--out-dir", str(tmp_path / "dist")]) == 0
        stack = json.loads((tmp_path / "emb" / "stack.json").read_text())
        report = json.loads((tmp_path / "dist" / "run_report.json").read_text())
        assert stack["scales"][-1] == 35
        assert stack["scales"] == report["scales"]
        assert stack["seed"] == report["seed"] == 1

    def test_too_few_samples_for_two_scales_exits_2(self, workspace, capsys):
        # scales.min = 3 leaves [3, M - 1]: one scale at M = 4, two at M = 5
        tmp_path, data, _, config, _ = workspace
        config.write_text(config.read_text().replace("dim = 10", "dim = 3"))
        rows = data.read_text().splitlines()
        for m, code in ((4, 2), (5, 0)):
            small = tmp_path / f"m{m}.csv"
            small.write_text("\n".join(rows[: m + 1]) + "\n")
            argv = ["embed", "--config", str(config), "--data", str(small)]
            assert main([*argv, "--out-dir", str(tmp_path / f"emb{m}")]) == code
        err = capsys.readouterr().err
        assert "config error: stage 'scales': scales.min 3 needs at least 5 samples, got 4" in err

    def test_non_finite_embedding_exits_4(self, workspace, monkeypatch, capsys):
        real = mdr.laplacian_eigenmaps

        def with_nan(*args, **kwargs):
            emb = real(*args, **kwargs)
            emb[0, 0] = np.nan
            return emb

        monkeypatch.setattr(mdr, "laplacian_eigenmaps", with_nan)
        tmp_path, data, _, config, _ = workspace
        argv = ["embed", "--config", str(config), "--data", str(data)]
        assert main([*argv, "--out-dir", str(tmp_path / "emb")]) == 4
        assert "numerical error:" in capsys.readouterr().err


@pytest.mark.parametrize("metric", ["chordal", "geodesic"])
def test_embed_output_read_back_as_external_embeddings(tmp_path, monkeypatch, metric):
    # mgm embed writes 17 significant digits, so its files read back through
    # embedding.external_pattern give mgm the same stack, bit for bit.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    counts, _ = importlib.import_module("workloads").generate_counts(120, 5)
    data = tmp_path / "counts.csv"
    np.savetxt(data, counts, delimiter=",", fmt="%d")
    config = tmp_path / "external.cfg"
    pattern = tmp_path / "emb" / "embedding_scale_{scale}.csv"
    config.write_text(f"embedding.external_pattern = {pattern}\n")
    common = ["--preset", "setup2-small", "--metric", metric, "--data", str(data)]
    external = [*common, "--config", str(config)]
    assert main(["embed", *common, "--out-dir", str(tmp_path / "emb")]) == 0
    assert main(["embed", *external, "--out-dir", str(tmp_path / "emb_again")]) == 0
    assert main(["mgm", *common, "--out-dir", str(tmp_path / "own")]) == 0
    assert main(["mgm", *external, "--out-dir", str(tmp_path / "read")]) == 0
    meta = json.loads((tmp_path / "emb" / "stack.json").read_text())
    assert meta["method"] == "laplacian"
    assert json.loads((tmp_path / "emb_again" / "stack.json").read_text()) == {
        **meta, "method": "external"
    }
    names = [f"embedding_scale_{scale}.csv" for scale in meta["scales"]]
    for a, b, name in [("emb", "emb_again", n) for n in names] + [
        ("own", "read", "distance_matrix.csv"),
        ("own", "read", "distance_matrix.csv.meta.json"),
    ]:
        assert (tmp_path / a / name).read_bytes() == (tmp_path / b / name).read_bytes()


@pytest.mark.parametrize(
    "command,m,dim,code",
    [("pipeline", 60, 10, 2), ("mgm", 60, 11, 0), ("mgm", 12, 7, 2), ("mgm", 12, 8, 0)],
)
def test_embedding_dim_must_exceed_the_sampled_scale_count(
    tmp_path, monkeypatch, capsys, command, m, dim, code
):
    # setup2-small asks for 11 scales and samples 10 distinct ones; clamped
    # to [5, M - 1] at M = 12 it samples 7.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    counts, _ = importlib.import_module("workloads").generate_counts(m, 5)
    data = tmp_path / "counts.csv"
    np.savetxt(data, counts, delimiter=",", fmt="%d")
    config = tmp_path / "dim.cfg"
    config.write_text(f"pca.dim = 10\nembedding.dim = {dim}\n")
    argv = [command, "--preset", "setup2-small", "--config", str(config), "--data", str(data)]
    if command == "mgm":
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == code
    if code == 2:  # here dim equals the scale count
        assert (
            f"config error: stage 'subspaces': embedding.dim {dim} must exceed "
            f"the number of sampled scales {dim}"
        ) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["embed", "mgm"])
def test_duplicate_cells_embed(tmp_path, command):
    # 13 identical cells: at small scales their bandwidths are 0
    counts = np.random.default_rng(0).poisson(3.0, size=(40, 60))
    counts[1:13] = counts[0]
    data = tmp_path / "counts.csv"
    np.savetxt(data, counts, delimiter=",", fmt="%d")
    out_dir = tmp_path / "out"
    argv = [command, "--preset", "setup2-tiny", "--data", str(data), "--out-dir", str(out_dir)]
    assert main(argv) == 0
    if command == "embed":
        scales = json.loads((out_dir / "stack.json").read_text())["scales"]
        for scale in scales:
            emb = np.loadtxt(out_dir / f"embedding_scale_{scale}.csv", delimiter=",")
            assert emb.shape == (40, 15)
            assert np.all(np.isfinite(emb))
    else:
        dmat, _, _ = load_distance_matrix(out_dir / "distance_matrix.csv")
        assert np.all(np.isfinite(dmat))


@pytest.mark.parametrize("command", ["embed", "mgm", "pipeline"])
@pytest.mark.parametrize("rows", ["constant", "proportional"])
def test_identical_samples_exit_3(tmp_path, capsys, command, rows):
    # Proportional count rows become equal under median-total normalization,
    # up to rounding.
    counts = np.ones((30, 40), dtype=np.int64)
    if rows == "proportional":
        profile = np.random.default_rng(0).integers(1, 9, size=40)
        counts = np.arange(1, 31)[:, None] * profile
    data = tmp_path / "counts.csv"
    np.savetxt(data, counts, delimiter=",", fmt="%d")
    argv = [command, "--preset", "setup2-tiny", "--data", str(data),
            "--out-dir", str(tmp_path / "out")]
    if command == "pipeline":
        argv += ["--k", "2"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "data error: all 30 samples are identical after preprocessing" in err


class TestMgmCommand:
    def test_distance_matrix_outputs(self, workspace):
        tmp_path, data, _, config, _ = workspace
        out_dir = tmp_path / "dist"
        code = main(
            [
                "mgm",
                "--config", str(config),
                "--data", str(data),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        dmat, _, meta = load_distance_matrix(out_dir / "distance_matrix.csv")
        assert dmat.shape == (36, 36)
        assert meta["metric"] == "chordal"
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["scales"] == [3, 5, 6, 8]
        assert report["sample_count"] == 36
        assert report["guarded_pairs"] == 0  # no replicate cells: no pair below the guard
        assert set(report["stage_seconds"]) == {
            "scales", "pca", "embed", "subspaces", "distances",
        }

    def test_metric_override(self, workspace):
        tmp_path, data, _, config, _ = workspace
        out_dir = tmp_path / "dist_geo"
        code = main(
            [
                "mgm",
                "--config", str(config),
                "--metric", "geodesic",
                "--data", str(data),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        _, _, meta = load_distance_matrix(out_dir / "distance_matrix.csv")
        assert meta["metric"] == "geodesic"


class TestClusterCommand:
    def make_distances(self, workspace):
        tmp_path, data, _, config, _ = workspace
        out_dir = tmp_path / "dist"
        main(["mgm", "--config", str(config), "--data", str(data), "--out-dir", str(out_dir)])
        return out_dir / "distance_matrix.csv"

    def test_labels_to_stdout(self, workspace, capsys):
        dpath = self.make_distances(workspace)
        truth = workspace[4]
        code = main(["cluster", "--distances", str(dpath), "--k", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 36
        assert same_partition([int(v) for v in lines], truth)

    def test_labels_to_file_with_mds_method(self, workspace, tmp_path):
        dpath = self.make_distances(workspace)
        out = tmp_path / "pred.txt"
        code = main(
            [
                "cluster",
                "--distances", str(dpath),
                "--method", "kmeans-mds",
                "--k", "3",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        pred = [int(v) for v in out.read_text().splitlines()]
        assert same_partition(pred, workspace[4])

    def test_unknown_method_exits_2(self, workspace, capsys):
        dpath = self.make_distances(workspace)
        code = main(["cluster", "--distances", str(dpath), "--method", "dbscan", "--k", "3"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_degenerate_matrix_exits_4(self, tmp_path, capsys):
        dpath = tmp_path / "zeros.csv"
        np.savetxt(dpath, np.zeros((5, 5)), delimiter=",")
        code = main(["cluster", "--distances", str(dpath), "--k", "2"])
        assert code == 4
        assert "numerical error" in capsys.readouterr().err

    def test_mds_dim_flag_is_unknown(self, workspace, capsys):
        # kmeans-mds always embeds in min(k, M - 1) dimensions
        dpath = self.make_distances(workspace)
        argv = ["cluster", "--distances", str(dpath), "--k", "3", "--mds-dim", "3"]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--method", "kmeans-mds"])
        assert info.value.code == 2
        assert "unrecognized arguments: --mds-dim 3" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, workspace, capsys):
        dpath = self.make_distances(workspace)
        code = main(["cluster", "--distances", str(dpath), "--k", "3", "--seed", "-3"])
        assert code == 2
        assert "config error: seeds must be nonnegative" in capsys.readouterr().err

    def test_empty_file_exits_3_without_warning(self, tmp_path, capsys):
        dpath = tmp_path / "empty.csv"
        dpath.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["cluster", "--distances", str(dpath), "--k", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "is empty" in err and "Warning" not in err


@pytest.mark.parametrize("command", ["cluster", "scatter"])
@pytest.mark.parametrize(
    "sidecar",
    [
        "{not json", "[1]", "{}", '{"metric": 2}', '{"metric": "bogus"}',
        '{"metric": "chordal", "sample_count": 5}', '{"metric": "\xff"}',
    ],
)
def test_bad_sidecar_exits_3(tmp_path, capsys, command, sidecar):
    points = np.random.default_rng(0).standard_normal((6, 2))
    values = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    dpath = tmp_path / "d.csv"
    np.savetxt(dpath, values, delimiter=",", fmt="%.17g")
    # latin-1 writes "\xff" as the byte 0xff, which is not UTF-8.
    (tmp_path / "d.csv.meta.json").write_text(sidecar, encoding="latin-1")
    extra = ["--k", "2"] if command == "cluster" else ["--out", str(tmp_path / "s.csv")]
    code = main([command, "--distances", str(dpath), *extra])
    assert code == 3
    assert "data error" in capsys.readouterr().err


# Distance CSVs that load as matrices, and what each is refused for.
_BAD_DISTANCES = {
    "nan-distances": ("0,1,nan\n1,0,1\nnan,1,0\n", "non-finite values"),
    "non-square-distances": ("0,1,2\n1,0,3\n", "must be square"),
    "negative-distances": ("0,-1,2\n-1,0,3\n2,3,0\n", "negative entries"),
    "asymmetric-distances": ("0,1,2\n1,0,3\n9,3,0\n", "not symmetric"),
    "nonzero-diagonal-distances": ("0,1,2\n1,0,3\n2,3,1\n", "diagonal must be exactly zero"),
}
_BAD_FILES = {
    **{case: "d.csv" for case in _BAD_DISTANCES},
    "directory-distances": "d.csv",
    "wide-tsv": "wide.tsv",
    "header-only": "header.csv",
    "whitespace-embedding": "emb_3.txt",
    "missing-embedding": "emb_3.csv",
}


@pytest.mark.parametrize("case", sorted(_BAD_FILES))
def test_bad_input_file_exits_3_naming_it(workspace, capsys, case):
    tmp_path, data, labels, config, _ = workspace
    bad = tmp_path / _BAD_FILES[case]
    reason = ""
    if case in _BAD_DISTANCES:
        text, reason = _BAD_DISTANCES[case]
        bad.write_text(text)
        argv = ["cluster", "--distances", str(bad), "--k", "2"]
    elif case == "directory-distances":
        bad.mkdir()
        argv = ["scatter", "--distances", str(bad), "--out", str(tmp_path / "s.csv")]
    elif case == "header-only":
        bad.write_text("g1,g2\n")
        argv = ["embed", "--data", str(bad), "--out-dir", str(tmp_path / "emb")]
    elif case == "wide-tsv":
        # Read as CSV, each row is one field past the csv module's limit.
        bad.write_text("\t".join(["1"] * 70_000) + "\n")
        argv = ["embed", "--data", str(bad), "--out-dir", str(tmp_path / "emb")]
    else:
        # The external backend reads the first scale, 3, first.
        if case == "whitespace-embedding":
            bad.write_text("\n".join(" ".join(["0.5"] * 10) for _ in range(36)) + "\n")
        pattern = str(bad).replace("_3.", "_{scale}.")
        config.write_text(
            config.read_text()
            + f"embedding.external_pattern = {pattern}\n"
        )
        argv = ["pipeline", "--config", str(config), "--data", str(data), "--labels", str(labels)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(bad) in err and reason in err


@pytest.mark.parametrize(
    "command",
    ["sample-scales", "embed", "mgm", "cluster", "evaluate", "pipeline", "scatter"],
)
def test_unwritable_output_exits_2(workspace, capsys, command):
    # --out under a directory that does not exist, --out-dir on a regular file
    tmp_path, data, labels, config, _ = workspace
    points = np.random.default_rng(0).standard_normal((6, 2))
    dpath = tmp_path / "d.csv"
    np.savetxt(dpath, np.linalg.norm(points[:, None] - points[None, :], axis=2), delimiter=",")
    out = str(tmp_path / "missing" / "out.txt")
    taken = tmp_path / "taken"
    taken.write_text("")
    inputs = ["--config", str(config), "--data", str(data), "--labels", str(labels)]
    argv = {
        "sample-scales": ["--out", out],
        "embed": [*inputs, "--out-dir", str(taken)],
        "mgm": [*inputs, "--out-dir", str(taken)],
        "cluster": ["--distances", str(dpath), "--k", "2", "--out", out],
        "evaluate": ["--pred", str(labels), "--truth", str(labels), "--out", out],
        "pipeline": [*inputs, "--out-dir", str(taken)],
        "scatter": ["--distances", str(dpath), "--out", out],
    }[command]
    code = main([command, *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: cannot write" in err
    assert (out if "--out" in argv else str(taken)) in err


class TestEvaluateCommand:
    def test_perfect_prediction(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n0\n1\n1\n")
        truth.write_text("b\nb\na\na\n")
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["acc"] == 1.0
        assert payload["ari"] == 1.0
        assert payload["k"] == 2

    def test_length_mismatch_exits_3(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n1\n")
        truth.write_text("0\n1\n1\n")
        code = main(["evaluate", "--pred", str(pred), "--truth", str(truth)])
        assert code == 3
        assert "data error" in capsys.readouterr().err


class TestPipelineCommand:
    def test_end_to_end(self, workspace, capsys):
        tmp_path, data, labels, config, _ = workspace
        out_dir = tmp_path / "exp"
        code = main(
            [
                "pipeline",
                "--config", str(config),
                "--seeds", "1,2",
                "--data", str(data),
                "--labels", str(labels),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mgm_mean"]["ari"] > 0.9
        assert set(payload["baselines_mean"]) == {
            "baseline_pca",
            "baseline_avg_embedding",
        }
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["checksum"] == payload["checksum"]
        assert (out_dir / "mgm" / "seed_1" / "labels.csv").is_file()
        assert (out_dir / "mgm" / "seed_2" / "labels.csv").is_file()

    def test_no_baselines(self, workspace, capsys):
        _, data, labels, config, _ = workspace
        code = main(
            [
                "pipeline",
                "--config", str(config),
                "--data", str(data),
                "--labels", str(labels),
                "--no-baselines",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baselines_mean"] == {}
        assert payload["out_dir"] is None

    def test_seed_and_seeds_conflict(self, workspace):
        _, data, labels, config, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "pipeline",
                    "--config", str(config),
                    "--seed", "1",
                    "--seeds", "1,2",
                    "--data", str(data),
                    "--labels", str(labels),
                ]
            )
        assert exc.value.code == 2

    def test_saving_distances_without_out_dir_exits_2(self, workspace, monkeypatch, capsys):
        tmp_path, data, _, config, _ = workspace
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        argv = ["pipeline", "--config", str(config), "--data", str(data)]
        assert main([*argv, "--save-distance-matrix"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: saving the distance matrix needs an output directory\n"
        )
        assert sorted(tmp_path.rglob("*")) == before

    def test_missing_data_file_exits_3(self, workspace, capsys):
        tmp_path, _, labels, config, _ = workspace
        code = main(
            [
                "pipeline",
                "--config", str(config),
                "--data", str(tmp_path / "absent.csv"),
                "--labels", str(labels),
            ]
        )
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_unwritable_seed_directory_exits_2(self, workspace, capsys):
        # the output directory is fine, but a file blocks a per-seed one
        tmp_path, data, labels, config, _ = workspace
        out_dir = tmp_path / "exp"
        out_dir.mkdir()
        (out_dir / "mgm").write_text("")
        argv = ["--config", str(config), "--data", str(data), "--labels", str(labels)]
        code = main(["pipeline", *argv, "--out-dir", str(out_dir)])
        assert code == 2
        assert f"cannot write {out_dir}" in capsys.readouterr().err

    def test_bad_config_file_exits_2(self, workspace, capsys):
        tmp_path, data, labels, _, _ = workspace
        bad = tmp_path / "bad.cfg"
        for line, message in [
            ("not.a.key = 1", "line 1: unknown key 'not.a.key'"),
            ("= 3", "line 1: empty key"),
            ("scales.power = x", "scales.power must be a number, got 'x'"),
            ("pca.dim = 0", "pca.dim must be positive, got 0"),
            ("clustering.mds_dim = 0", "line 1: unknown key 'clustering.mds_dim'"),
            ("scales.min = 1", "scales.min must be at least 2, got 1"),
            ("preprocess.top_features = 0", "preprocess.top_features must be positive, got 0"),
        ]:
            bad.write_text(line + "\n")
            code = main(
                [
                    "pipeline",
                    "--config", str(bad),
                    "--data", str(data),
                    "--labels", str(labels),
                ]
            )
            assert code == 2
            assert f"config error: {message}" in capsys.readouterr().err


class TestScatterCommand:
    def test_writes_coordinates(self, workspace, tmp_path):
        _, data, labels, config, _ = workspace
        dist_dir = tmp_path / "dist"
        main(["mgm", "--config", str(config), "--data", str(data), "--out-dir", str(dist_dir)])
        out = tmp_path / "scatter.csv"
        code = main(
            [
                "scatter",
                "--distances", str(dist_dir / "distance_matrix.csv"),
                "--labels", str(labels),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 37
        assert lines[1].split(",")[2].startswith("type")


# Each flag that sets a config value, with the key it sets and a value that
# differs from the default.
_CONFIG_FLAGS = {
    "--metric": ("metric", "geodesic"),
    "--k": ("clustering.k", "4"),
    "--seed": ("seeds", "3"),
    "--seeds": ("seeds", "3,5"),
    "--top-features": ("preprocess.top_features", "7"),
    "--scale-min": ("scales.min", "3"),
    "--scale-max": ("scales.max", "30"),
    "--scale-count": ("scales.count", "6"),
    "--scale-power": ("scales.power", "1.5"),
    "--method": ("clustering.method", "kmeans-mds"),
}
# The required arguments of each subcommand; the files are never opened.
_REQUIRED = {
    "sample-scales": [],
    "embed": ["--data", "x.csv", "--out-dir", "out"],
    "mgm": ["--data", "x.csv", "--out-dir", "out"],
    "pipeline": ["--data", "x.csv"],
    "cluster": ["--distances", "d.csv", "--k", "2"],
}
_SHARED_FLAGS = sorted(set(_CONFIG_FLAGS) - {"--method"})


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestConfigFlags:
    def test_each_config_flag_names_its_key(self):
        # _resolve_config ignores a configuration flag whose dest is not a
        # key, and passes on any dest that is one, so each must be listed.
        for command, sub in _subcommands().items():
            config_group = [
                a
                for g in sub._action_groups
                if g.title == "configuration"
                for a in g._group_actions
                if a.dest not in ("config", "preset")
            ]
            for action in sub._actions:
                if action in config_group or action.dest in DEFAULTS:
                    (flag,) = action.option_strings
                    assert _CONFIG_FLAGS[flag][0] == action.dest, (command, flag)

    @pytest.mark.parametrize(
        "command,flag",
        [(c, f) for c in ("sample-scales", "embed", "mgm", "pipeline") for f in _SHARED_FLAGS]
        + [("cluster", f) for f in ("--method", "--k", "--seed")],
    )
    def test_flag_resolves_like_its_override(self, command, flag):
        key, value = _CONFIG_FLAGS[flag]
        args = build_parser().parse_args([command, *_REQUIRED[command], flag, value])
        assert _resolve_config(args) == load_config(overrides={key: value}) != load_config()


def test_undecodable_config_exits_2(tmp_path, capsys):
    config = tmp_path / "f.cfg"
    config.write_bytes(b"\xff\n")
    assert main(["sample-scales", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {config}: ")


class TestPresetFlag:
    def test_preset_resolves(self, capsys):
        code = main(["sample-scales", "--preset", "setup2-small"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scales"][0] == 5
        assert payload["scales"][-1] == 20
        assert payload["count"] == 10

    def test_unknown_preset_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample-scales", "--preset", "setup9"])
        assert exc.value.code == 2


def test_cli_import_leaves_out_scipy_optimize(tmp_path):
    # No command loads scipy.optimize or the csgraph matching: scoring
    # matches clusters to classes in numpy.
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("0\n0\n1\n1\n1\n")
    truth.write_text("a\na\nb\nb\na\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mgm.__file__).parents[1]))
    code = (
        "import sys, mgm.cli\n"
        "print('scipy.optimize' in sys.modules, 'scipy.sparse.csgraph' in sys.modules)\n"
        "code = mgm.cli.main(['evaluate', '--pred', sys.argv[1], '--truth', sys.argv[2]])\n"
        "print(code, 'scipy.optimize' in sys.modules, 'scipy.sparse.csgraph' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(pred), str(truth)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0] == "False False"
    assert json.loads("\n".join(out[1:-1]))["acc"] == 0.8
    assert out[-1] == "0 False False"
