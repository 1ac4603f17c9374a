import pytest

from mgm.clustering import ClusteringMethod
from mgm.config import (
    PRESETS,
    PipelineConfig,
    config_from_mapping,
    config_to_mapping,
    load_config,
    parse_config_text,
)
from mgm.errors import ConfigError
from mgm.grassmann import GrassmannMetric
from mgm.mdr import MdrMethod
from mgm.scales import sample_scales


class TestParseText:
    def test_basic_lines(self):
        text = "metric = geodesic\nclustering.k = 4\n"
        assert parse_config_text(text) == {"metric": "geodesic", "clustering.k": "4"}

    def test_comments_and_blanks(self):
        text = "# a comment\n\nmetric = chordal  # trailing\n"
        assert parse_config_text(text) == {"metric": "chordal"}

    def test_later_lines_win(self):
        text = "clustering.k = 2\nclustering.k = 5\n"
        assert parse_config_text(text) == {"clustering.k": "5"}

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("metric = chordal\nmetricc = chordal\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")


class TestFromMapping:
    def test_defaults(self):
        cfg = config_from_mapping({})
        assert cfg.metric is GrassmannMetric.CHORDAL
        assert cfg.clustering_method is ClusteringMethod.SPECTRAL
        assert cfg.embedding.method is MdrMethod.LAPLACIAN_EIGENMAPS
        assert cfg.embedding.embedding_dim == 20
        assert cfg.pca_dim is None
        assert cfg.k == 2
        assert cfg.seeds == (0,)
        assert cfg.normalize is True
        assert cfg.log_transform is True

    def test_defaults_are_pipeline_config_defaults(self):
        assert config_from_mapping({}) == PipelineConfig()

    def test_value_parsing(self):
        cfg = config_from_mapping(
            {
                "metric": "martin",
                "clustering.k": "6",
                "seeds": "4, 8, 15",
                "pca.dim": "30",
                "preprocess.normalize": "no",
                "scales.power": "2.5",
            }
        )
        assert cfg.metric is GrassmannMetric.MARTIN
        assert cfg.k == 6
        assert cfg.seeds == (4, 8, 15)
        assert cfg.pca_dim == 30
        assert cfg.normalize is False
        assert cfg.scales.power == 2.5

    @pytest.mark.parametrize(
        "mapping",
        [
            {"clustering.k": "zero"},
            {"clustering.k": "0"},
            {"metric": "hamming"},
            {"embedding.method": "tsne"},
            {"embedding.method": "pca"},
            {"clustering.method": "kmeans"},
            {"scales.min": "1"},
            {"scales.power": "-1"},
            {"preprocess.normalize": "maybe"},
            {"seeds": ""},
            {"seeds": "-3"},
            {"nope": "1"},
            {"threads": "2"},
            {"subspace.normalize_columns": "false"},
            {"clustering.mds_dim": "3"},
            {"embedding.external_pattern": "emb_{scale}.csv"},
        ],
    )
    def test_invalid_values_rejected(self, mapping):
        with pytest.raises(ConfigError):
            config_from_mapping(mapping)

    def test_external_backend_roundtrips_pattern(self):
        cfg = config_from_mapping(
            {
                "embedding.method": "external",
                "embedding.external_pattern": "emb_{scale}.csv",
            }
        )
        assert cfg.embedding.external_pattern == "emb_{scale}.csv"

    def test_external_backend_requires_pattern(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"embedding.method": "external"})


class TestRoundTrip:
    def test_serialization_is_a_fixed_point(self):
        cfg = config_from_mapping(
            {
                "metric": "procrustes",
                "clustering.method": "kmeans-mds",
                "clustering.mds_dim": "7",
                "seeds": "1,3,5",
                "scales.power": "1.6",
                "preprocess.top_features": "500",
            }
        )
        mapping = config_to_mapping(cfg)
        again = config_from_mapping(mapping)
        assert again == cfg
        assert config_to_mapping(again) == mapping

    def test_all_presets_roundtrip(self):
        for name in PRESETS:
            cfg = load_config(preset=name)
            assert config_from_mapping(config_to_mapping(cfg)) == cfg


class TestPresets:
    def test_preset_names(self):
        assert set(PRESETS) == {"setup1", "setup2-small", "setup2-large", "setup2-tiny"}

    def test_setup1(self):
        cfg = load_config(preset="setup1")
        assert cfg.pca_dim == 200
        assert cfg.embedding.embedding_dim == 100
        assert cfg.clustering_method is ClusteringMethod.SPECTRAL
        assert cfg.seeds == (1, 3, 5, 7, 9)
        scales = sample_scales(cfg.scales).scales
        assert len(scales) == 23
        assert scales[0] == 5
        assert scales[-1] == 100

    @pytest.mark.parametrize(
        "name,pca,dim,max_scale,n_scales",
        [
            ("setup2-small", 50, 20, 20, 10),
            ("setup2-large", 100, 50, 50, 19),
            ("setup2-tiny", 20, 15, 15, 8),
        ],
    )
    def test_setup2_family(self, name, pca, dim, max_scale, n_scales):
        cfg = load_config(preset=name)
        assert cfg.pca_dim == pca
        assert cfg.embedding.embedding_dim == dim
        assert cfg.scales.max_scale == max_scale
        assert cfg.clustering_method is ClusteringMethod.KMEANS_MDS
        assert len(sample_scales(cfg.scales).scales) == n_scales

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            load_config(preset="setup99")


class TestLoadConfig:
    def test_precedence_chain(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("clustering.k = 5\nmetric = geodesic\n")
        cfg = load_config(
            path=path, preset="setup2-small", overrides={"metric": "martin"}
        )
        # preset sets pca.dim, the file overrides k and metric, the explicit
        # override beats the file
        assert cfg.pca_dim == 50
        assert cfg.k == 5
        assert cfg.metric is GrassmannMetric.MARTIN

    def test_file_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("metric = chordal\nbogus.key = 1\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path=path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(path=tmp_path / "absent.cfg")

    def test_direct_construction_validates(self):
        cfg = load_config()
        with pytest.raises(ConfigError):
            PipelineConfig(scales=cfg.scales, embedding=cfg.embedding, k=0)
        with pytest.raises(ConfigError):
            PipelineConfig(scales=cfg.scales, embedding=cfg.embedding, seeds=())
