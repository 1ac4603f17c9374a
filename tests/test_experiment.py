import csv
import hashlib
import json
import re
import warnings

import numpy as np
import pytest

import mgm.clustering
import mgm.experiment
import mgm.pipeline
from mgm.clustering import kmeans
from mgm.config import config_from_mapping, load_config
from mgm.errors import ConfigError, DataError
from mgm.experiment import (
    export_scatter,
    load_distance_matrix,
    metrics_payload,
    run_experiment,
    save_distance_matrix,
)
from mgm.grassmann import GrassmannMetric
from mgm.pipeline import run_mgm

from conftest import make_blobs


def blob_matrix(m=36, seed=2):
    """Blob points and their labels."""
    x, truth = make_blobs(m=m, d=12, sep=8.0, seed=seed)
    return x, tuple(str(t) for t in truth)


def run_blobs(cfg, with_labels=True, **kwargs):
    """run_experiment on blob_matrix(), with its labels unless with_labels
    is False."""
    values, labels = blob_matrix()
    return run_experiment(values, cfg, labels=labels if with_labels else None, **kwargs)


def fast_config(**extra):
    mapping = {
        "scales.min": "3",
        "scales.max": "8",
        "scales.count": "4",
        "scales.power": "1.0",
        "embedding.dim": "10",
        "clustering.k": "3",
        "seeds": "1,2",
        "preprocess.normalize": "false",
        "preprocess.log1p": "false",
    }
    mapping.update(extra)
    return config_from_mapping(mapping)


class TestRunExperiment:
    def test_outcomes_and_means(self):
        result = run_blobs(fast_config())
        assert len(result.outcomes) == 2
        assert [o.seed for o in result.outcomes] == [1, 2]
        means = result.mean_metrics()
        assert set(means) == {"acc", "nmi", "ari", "purity", "avg_purity"}
        assert means["ari"] > 0.9
        for outcome in result.outcomes:
            assert outcome.report is not None
            assert outcome.report.scales == (3, 5, 6, 8)

    @pytest.mark.parametrize(
        "method, embed", [("spectral", "spectral_cluster"), ("kmeans-mds", "classical_mds")]
    )
    def test_cluster_embedding_computed_once(self, monkeypatch, method, embed):
        calls = {"spectral_cluster": [], "classical_mds": []}
        for name, record in calls.items():
            real = getattr(mgm.clustering, name)

            def counted(*args, real=real, record=record, **kwargs):
                record.append(real(*args, **kwargs))
                return record[-1]

            monkeypatch.setattr(mgm.clustering, name, counted)
        cfg = fast_config(**{"clustering.method": method, "seeds": "1,2,3,4,5"})
        result = run_blobs(cfg, with_baselines=False)
        assert {name: len(r) for name, r in calls.items()} == {
            name: int(name == embed) for name in calls
        }
        (points,) = calls[embed]
        for outcome in result.outcomes:
            ((labels, _),) = kmeans(points, 3, (outcome.seed,))
            assert np.array_equal(outcome.labels, labels)

    def test_one_kmeans_call_per_group_of_labellings(self, monkeypatch):
        # The method and both baselines each cluster every seed in one call.
        real = mgm.clustering.kmeans
        calls = []

        def counted(points, k, seeds):
            calls.append(tuple(seeds))
            return real(points, k, seeds)

        monkeypatch.setattr(mgm.clustering, "kmeans", counted)
        cfg = fast_config(**{"clustering.method": "kmeans-mds", "seeds": "1,2,3,4,5"})
        result = run_blobs(cfg)
        assert calls == [(1, 2, 3, 4, 5)] * 3
        assert set(result.baselines) == {"baseline_pca", "baseline_avg_embedding"}

    def test_deterministic(self):
        a = run_blobs(fast_config())
        b = run_blobs(fast_config())
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert np.array_equal(oa.labels, ob.labels)
        assert a.checksum == b.checksum

    def test_checksum_tracks_preprocessing(self):
        values, labels = blob_matrix()
        plain = run_experiment(values, fast_config(), labels=labels, with_baselines=False)
        want = hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()
        assert plain.checksum == want
        logged = run_experiment(
            values - values.min() + 1.0,
            fast_config(**{"preprocess.log1p": "true"}),
            labels=labels,
            with_baselines=False,
        )
        assert logged.checksum != plain.checksum

    def test_checksum_hashes_the_preprocessed_array_without_a_copy(self, monkeypatch):
        preprocess, sha256 = mgm.experiment.preprocess, hashlib.sha256
        preprocessed, hashed = [], []

        def kept_preprocess(*args, **kwargs):
            preprocessed.append(preprocess(*args, **kwargs))
            return preprocessed[-1]

        def recorded_sha256(data):
            hashed.append(data)
            return sha256(data)

        monkeypatch.setattr(mgm.experiment, "preprocess", kept_preprocess)
        monkeypatch.setattr(mgm.experiment.hashlib, "sha256", recorded_sha256)
        run_blobs(fast_config(), with_baselines=False)
        assert len(preprocessed) == 1 and len(hashed) == 1
        # Hashing the array itself, not its tobytes() copy, keeps an M x N
        # matrix's worth of memory out of the run.
        assert isinstance(hashed[0], np.ndarray)
        assert np.shares_memory(hashed[0], preprocessed[0])

    def test_no_labels_no_evaluation(self):
        result = run_blobs(fast_config(), with_labels=False, with_baselines=False)
        assert result.mean_metrics() is None
        for outcome in result.outcomes:
            assert outcome.evaluation is None
            assert len(outcome.labels) == 36

    def test_baselines_present_and_scored(self):
        result = run_blobs(fast_config())
        assert set(result.baselines) == {"baseline_pca", "baseline_avg_embedding"}
        for runs in result.baselines.values():
            assert [o.seed for o in runs] == [1, 2]
        base_means = result.baseline_mean_metrics()
        # blobs this clean are easy for plain PCA + kmeans too
        assert base_means["baseline_pca"]["ari"] > 0.9

    def test_baselines_can_be_skipped(self):
        result = run_blobs(fast_config(), with_baselines=False)
        assert result.baselines == {}

    def test_seed_independent_work_runs_once(self, monkeypatch):
        calls = {"run_mgm": 0, "build_stack": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(mgm.experiment, "run_mgm")
        counted(mgm.pipeline, "build_stack")
        result = run_blobs(fast_config())
        assert [o.seed for o in result.outcomes] == [1, 2]
        assert set(result.baselines) == {"baseline_pca", "baseline_avg_embedding"}
        assert calls == {"run_mgm": 1, "build_stack": 1}


class TestExperimentOutputs:
    def test_out_dir_on_a_file_raises_config_error(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(ConfigError, match=re.escape(f"cannot write {taken}: ")):
            run_blobs(fast_config(), out_dir=taken)

    def test_saving_distances_needs_out_dir(self, monkeypatch):
        # rejected before any work: preprocess is never reached
        calls = []
        monkeypatch.setattr(mgm.experiment, "preprocess", lambda *a, **k: calls.append(a))
        with pytest.raises(
            ConfigError, match="^saving the distance matrix needs an output directory$"
        ):
            run_blobs(fast_config(), save_distance=True)
        assert calls == []

    def test_directory_layout(self, tmp_path):
        out = tmp_path / "run1"
        run_blobs(fast_config(), out_dir=out, save_distance=True)
        assert (out / "config.txt").is_file()
        assert (out / "summary.json").is_file()
        for group in ("mgm", "baseline_pca", "baseline_avg_embedding"):
            for seed in (1, 2):
                seed_dir = out / group / f"seed_{seed}"
                assert (seed_dir / "metrics.json").is_file()
                assert (seed_dir / "labels.csv").is_file()
        assert (out / "mgm" / "seed_1" / "run_report.json").is_file()
        assert (out / "mgm" / "seed_1" / "distance_matrix.csv").is_file()
        assert (out / "mgm" / "seed_1" / "distance_matrix.csv.meta.json").is_file()
        for group in ("baseline_pca", "baseline_avg_embedding"):
            for seed in (1, 2):
                seed_dir = out / group / f"seed_{seed}"
                assert not (seed_dir / "run_report.json").exists()
                assert not list(seed_dir.glob("distance_matrix.csv*"))
        unsaved = tmp_path / "run_unsaved"
        run_blobs(fast_config(), out_dir=unsaved, with_baselines=False)
        for seed in (1, 2):
            seed_dir = unsaved / "mgm" / f"seed_{seed}"
            assert (seed_dir / "run_report.json").is_file()
            assert not list(seed_dir.glob("distance_matrix.csv*"))

    def test_seeds_share_one_distance_matrix(self, tmp_path, monkeypatch):
        # The matrix is formatted once; later seeds get a copy of that file.
        real = mgm.experiment.save_distance_matrix
        saved = []

        def spy(d, metric, path, report=None):
            saved.append(path)
            return real(d, metric, path, report)

        monkeypatch.setattr(mgm.experiment, "save_distance_matrix", spy)
        out = tmp_path / "shared"
        run_blobs(fast_config(seeds="1,2,3"), out_dir=out, save_distance=True,
            with_baselines=False,
        )
        assert saved == [out / "mgm" / "seed_1" / "distance_matrix.csv"]
        one, two = out / "mgm" / "seed_1", out / "mgm" / "seed_2"
        csv = "distance_matrix.csv"
        assert (one / csv).read_bytes() == (two / csv).read_bytes()
        assert (one / csv).read_bytes() == (out / "mgm" / "seed_3" / csv).read_bytes()
        # one pipeline run: the reports and sidecars differ only in the seed,
        # down to the stage timings
        for name in ("run_report.json", csv + ".meta.json"):
            first = json.loads((one / name).read_text())
            second = json.loads((two / name).read_text())
            assert (first["seed"], second["seed"]) == (1, 2)
            assert first == {**second, "seed": 1}

    def test_config_file_roundtrips(self, tmp_path):
        out = tmp_path / "run2"
        cfg = fast_config()
        run_blobs(cfg, out_dir=out, with_baselines=False)
        reloaded = load_config(path=out / "config.txt")
        assert reloaded == cfg

    def test_summary_schema(self, tmp_path):
        out = tmp_path / "run3"
        result = run_blobs(fast_config(), out_dir=out)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["checksum"] == result.checksum
        assert summary["seeds"] == [1, 2]
        assert summary["k"] == 3
        assert summary["metric"] == "chordal"
        assert summary["scales"] == [3, 5, 6, 8]
        assert summary["mgm"]["mean"]["ari"] == pytest.approx(
            result.mean_metrics()["ari"]
        )
        assert len(summary["mgm"]["per_seed"]) == 2
        assert set(summary["baselines"]) == {
            "baseline_pca",
            "baseline_avg_embedding",
        }

    def test_labels_file_contents(self, tmp_path):
        out = tmp_path / "run4"
        result = run_blobs(fast_config(), out_dir=out, with_baselines=False
        )
        lines = (out / "mgm" / "seed_1" / "labels.csv").read_text().splitlines()
        assert [int(v) for v in lines] == list(result.outcomes[0].labels)

    def test_metrics_json_contents(self, tmp_path):
        out = tmp_path / "run5"
        result = run_blobs(fast_config(), out_dir=out, with_baselines=False
        )
        payload = json.loads((out / "mgm" / "seed_2" / "metrics.json").read_text())
        assert payload["seed"] == 2
        assert payload["k"] == 3
        assert payload["method"] == "spectral"
        assert payload["ari"] == pytest.approx(result.outcomes[1].evaluation.ari)


class TestDistanceMatrixFiles:
    def make_distance(self):
        values, _ = blob_matrix(m=20)
        _, dmat, report, _, _ = run_mgm(values, fast_config(seeds="1"))
        return dmat, report

    def test_roundtrip_is_bit_exact(self, tmp_path):
        dmat, report = self.make_distance()
        path = tmp_path / "d.csv"
        save_distance_matrix(dmat, GrassmannMetric.CHORDAL, path, report)
        loaded, metric, meta = load_distance_matrix(path)
        assert loaded.tobytes() == dmat.tobytes() and not loaded.flags.writeable
        assert metric is GrassmannMetric.CHORDAL
        assert meta["metric"] == "chordal"
        assert meta["sample_count"] == 20
        assert meta["scales"] == [3, 5, 6, 8]
        assert meta["seed"] == 1

    def test_load_without_sidecar_assumes_chordal(self, tmp_path):
        dmat, _ = self.make_distance()
        path = tmp_path / "bare.csv"
        np.savetxt(path, dmat, delimiter=",", fmt="%.17g")
        _, metric, meta = load_distance_matrix(path)
        assert meta is None
        assert metric is GrassmannMetric.CHORDAL

    def test_sidecar_sample_count_must_match(self, tmp_path):
        dmat, report = self.make_distance()
        path = tmp_path / "d.csv"
        save_distance_matrix(dmat, GrassmannMetric.CHORDAL, path, report)
        sidecar = path.with_name("d.csv.meta.json")
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "sample_count": 30}))
        with pytest.raises(DataError, match="30 samples, .*d.csv has 20"):
            load_distance_matrix(path)
        del meta["sample_count"]
        sidecar.write_text(json.dumps(meta))
        loaded, _, _ = load_distance_matrix(path)
        assert np.array_equal(loaded, dmat)

    def test_sidecar_byte_order_mark_is_dropped(self, tmp_path):
        dmat, _ = self.make_distance()
        path = tmp_path / "d.csv"
        np.savetxt(path, dmat, delimiter=",", fmt="%.17g")
        sidecar = path.with_name("d.csv.meta.json")
        sidecar.write_bytes(b"\xef\xbb\xbf" + json.dumps({"metric": "geodesic"}).encode())
        _, metric, meta = load_distance_matrix(path)
        assert meta == {"metric": "geodesic"}
        assert metric is GrassmannMetric.GEODESIC

    def test_load_header_and_id_column(self, tmp_path):
        dmat, _ = self.make_distance()
        ids = [f"cell{i}" for i in range(len(dmat))]
        rows = ["id," + ",".join(ids)] + [
            f"{name}," + ",".join(f"{v:.17g}" for v in row) for name, row in zip(ids, dmat)
        ]
        path = tmp_path / "named.csv"
        path.write_text("\n".join(rows) + "\n")
        loaded, _, meta = load_distance_matrix(path)
        assert meta is None
        assert np.array_equal(loaded, dmat)

    def test_load_pandas_default_layout(self, tmp_path):
        # DataFrame.to_csv: a blank corner cell, integer column names and an
        # integer index.
        dmat, _ = self.make_distance()
        rows = ["," + ",".join(str(j) for j in range(len(dmat)))] + [
            f"{i}," + ",".join(f"{v:.17g}" for v in row) for i, row in enumerate(dmat)
        ]
        path = tmp_path / "pandas.csv"
        path.write_text("\n".join(rows) + "\n")
        loaded, _, _ = load_distance_matrix(path)
        assert np.array_equal(loaded, dmat)

    def test_load_rejects_invalid_matrix(self, tmp_path):
        path = tmp_path / "bad.csv"
        np.savetxt(path, np.array([[0.0, 1.0], [2.0, 0.0]]), delimiter=",")
        with pytest.raises(DataError, match="not a valid distance matrix"):
            load_distance_matrix(path)

    def test_load_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="empty.csv is empty"):
                load_distance_matrix(path)

    def test_save_into_missing_directory_raises_config_error(self, tmp_path):
        dmat, report = self.make_distance()
        path = tmp_path / "missing" / "d.csv"
        with pytest.raises(ConfigError, match=re.escape(f"cannot write {path}: ")):
            save_distance_matrix(dmat, GrassmannMetric.CHORDAL, path, report)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_distance_matrix(tmp_path / "absent.csv")


class TestExportScatter:
    def euclidean(self, points):
        diff = points[:, None, :] - points[None, :, :]
        values = np.sqrt(np.sum(diff**2, axis=2))
        values = (values + values.T) / 2.0
        np.fill_diagonal(values, 0.0)
        return values

    def test_file_format(self, tmp_path):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((8, 3))
        path = tmp_path / "scatter.csv"
        coords = export_scatter(self.euclidean(points), list("aabbccdd"), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(coords[0, 0])
        assert first[2] == "a"

    def test_labels_optional(self, tmp_path):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((5, 2))
        path = tmp_path / "scatter.csv"
        export_scatter(self.euclidean(points), None, path)
        assert path.read_text().splitlines()[1].endswith(",")

    def test_collinear_input_pads_second_axis(self, tmp_path):
        points = np.linspace(0, 1, 6)[:, None]
        coords = export_scatter(
            self.euclidean(points), None, tmp_path / "scatter.csv"
        )
        assert coords.shape == (6, 2)
        assert np.max(np.abs(coords[:, 1])) < 1e-6

    def test_no_positive_eigenvalue_pads_both_axes(self, tmp_path):
        path = tmp_path / "scatter.csv"
        coords = export_scatter(self.euclidean(np.zeros((4, 2))), None, path)
        assert np.array_equal(coords, np.zeros((4, 2)))
        assert path.read_text().splitlines()[1:] == ["0,0,"] * 4

    def test_labels_are_csv_quoted(self, tmp_path):
        rng = np.random.default_rng(3)
        labels = ["T cell, CD4+", 'B "naive"', "NK", ""]
        path = tmp_path / "scatter.csv"
        export_scatter(self.euclidean(rng.standard_normal((4, 2))), labels, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert [len(row) for row in rows] == [3] * 5
        assert [row[2] for row in rows[1:]] == labels
        lines = path.read_text().splitlines()
        assert lines[3].endswith(",NK") and lines[4].endswith(",")

    def test_line_breaks_in_labels(self, tmp_path):
        # A '\n' is quoted and reads back inside its field; a lone '\r' is
        # left unquoted by csv.writer, so it is refused before any write.
        rng = np.random.default_rng(5)
        dmat = self.euclidean(rng.standard_normal((3, 2)))
        path = tmp_path / "scatter.csv"
        export_scatter(dmat, ["a\nb", "c", "d"], path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert [len(row) for row in rows] == [3] * 4
        assert [row[2] for row in rows[1:]] == ["a\nb", "c", "d"]
        bad = tmp_path / "bad.csv"
        message = "label of sample 1 holds a carriage return: 'a\\rb'"
        with pytest.raises(DataError, match=re.escape(message)):
            export_scatter(dmat, ["c", "a\rb", "d"], bad)
        assert not bad.exists()

    def test_write_into_missing_directory_raises_config_error(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "missing" / "s.csv"
        with pytest.raises(ConfigError, match=re.escape(f"cannot write {path}: ")):
            export_scatter(self.euclidean(rng.standard_normal((4, 2))), None, path)

    def test_too_few_samples(self, tmp_path):
        points = np.zeros((2, 2))
        points[1] = 1.0
        with pytest.raises(DataError, match="at least 3"):
            export_scatter(self.euclidean(points), None, tmp_path / "s.csv")

    def test_label_length_checked(self, tmp_path):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((5, 2))
        with pytest.raises(DataError):
            export_scatter(self.euclidean(points), ["a", "b"], tmp_path / "s.csv")


class TestMetricsPayload:
    def test_without_evaluation(self):
        payload = metrics_payload(None, "spectral", 3, 4)
        assert payload == {"method": "spectral", "seed": 3, "k": 4}
