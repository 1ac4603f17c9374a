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
from mgm.cli import main
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
        assert "min scale 3 needs at least 5 samples, got 4" in capsys.readouterr().err

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
        dmat, _ = load_distance_matrix(out_dir / "distance_matrix.csv")
        assert np.all(np.isfinite(dmat.values))


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
        dmat, meta = load_distance_matrix(out_dir / "distance_matrix.csv")
        assert dmat.values.shape == (36, 36)
        assert meta["metric"] == "chordal"
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["scales"] == [3, 5, 6, 8]
        assert report["sample_count"] == 36
        assert report["guarded_pairs"] == 0  # chordal has no guard
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
        _, meta = load_distance_matrix(out_dir / "distance_matrix.csv")
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

    def test_mds_dim_under_spectral_exits_2(self, workspace, capsys):
        dpath = self.make_distances(workspace)
        argv = ["cluster", "--distances", str(dpath), "--k", "3", "--mds-dim", "7"]
        assert main([*argv, "--method", "spectral"]) == 2
        assert "--mds-dim applies only to --method kmeans-mds" in capsys.readouterr().err
        assert main([*argv, "--method", "kmeans-mds"]) == 0

    def test_negative_seed_exits_2(self, workspace, capsys):
        dpath = self.make_distances(workspace)
        code = main(["cluster", "--distances", str(dpath), "--k", "3", "--seed", "-3"])
        assert code == 2
        assert "config error: seed must be nonnegative" in capsys.readouterr().err

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
        '{"metric": "chordal", "sample_count": 5}',
    ],
)
def test_bad_sidecar_exits_3(tmp_path, capsys, command, sidecar):
    points = np.random.default_rng(0).standard_normal((6, 2))
    values = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    dpath = tmp_path / "d.csv"
    np.savetxt(dpath, values, delimiter=",", fmt="%.17g")
    (tmp_path / "d.csv.meta.json").write_text(sidecar)
    extra = ["--k", "2"] if command == "cluster" else ["--out", str(tmp_path / "s.csv")]
    code = main([command, "--distances", str(dpath), *extra])
    assert code == 3
    assert "data error" in capsys.readouterr().err


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
        bad.write_text("not.a.key = 1\n")
        code = main(
            [
                "pipeline",
                "--config", str(bad),
                "--data", str(data),
                "--labels", str(labels),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "line, key",
        [
            ("clustering.mds_dim = 3", "clustering.mds_dim"),
            ("embedding.external_pattern = emb_{scale}.csv", "embedding.external_pattern"),
        ],
    )
    def test_setting_the_method_ignores_exits_2(self, workspace, capsys, line, key):
        # the defaults are clustering.method = spectral, embedding.method = laplacian
        tmp_path, data, labels, config, _ = workspace
        config.write_text(config.read_text() + line + "\n")
        code = main(["pipeline", "--config", str(config), "--data", str(data),
                     "--labels", str(labels)])
        assert code == 2
        assert f"config error: {key} applies only to" in capsys.readouterr().err


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


def test_cli_import_leaves_out_scipy_optimize():
    # Only scoring needs scipy.optimize, so every command that does not
    # score is spared its import.
    env = dict(os.environ, PYTHONPATH=str(Path(mgm.__file__).parents[1]))
    code = "import sys, mgm.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
