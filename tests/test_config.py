import re

import pytest

from mgm.clustering import ClusteringMethod
from mgm.config import (
    PRESETS,
    PipelineConfig,
    config_from_mapping,
    config_to_mapping,
    load_config,
    parse_choice,
    parse_config_text,
)
from mgm.errors import ConfigError
from mgm.grassmann import GrassmannMetric
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


# (mapping, part of the message rejecting it)
_INVALID_MAPPINGS = [
    ({"clustering.k": "zero"}, "clustering.k must be an integer"),
    ({"clustering.k": "0"}, "clustering.k must be at least 1, got 0"),
    ({"metric": "hamming"}, "unknown metric 'hamming'"),
    ({"embedding.method": "laplacian"}, "unknown config keys: embedding.method"),
    ({"embedding.method": "external"}, "unknown config keys: embedding.method"),
    ({"clustering.method": "kmeans"}, "unknown clustering method 'kmeans'"),
    ({"scales.min": "1"}, "scales.min must be at least 2, got 1"),
    ({"scales.power": "-1"}, "scales.power must be positive and finite, got -1.0"),
    ({"preprocess.normalize": "maybe"}, "preprocess.normalize must be true or false"),
    ({"seeds": ""}, "seeds must be nonempty"),
    ({"seeds": "-3"}, "seeds must be nonnegative"),
    ({"nope": "1"}, "unknown config keys: nope"),
    ({"threads": "2"}, "unknown config keys: threads"),
    ({"subspace.normalize_columns": "false"}, "unknown config keys: subspace.normalize_columns"),
    ({"clustering.mds_dim": "3"}, "unknown config keys: clustering.mds_dim"),
    ({"embedding.external_pattern": "emb.csv"}, "lacks '{scale}'"),
    ({"seeds": "1,1,3"}, "seeds must be distinct"),
    ({"pca.dim": "0"}, "pca.dim must be positive, got 0"),
    ({"preprocess.top_features": "-1"}, "preprocess.top_features must be positive, got -1"),
    ({"scales.power": "x"}, "scales.power must be a number, got 'x'"),
    ({"embedding.dim": "1"}, r"embedding\.dim must be at least 2, got 1"),
]


class TestFromMapping:
    def test_defaults(self):
        cfg = config_from_mapping({})
        assert cfg.metric is GrassmannMetric.CHORDAL
        assert cfg.clustering_method is ClusteringMethod.SPECTRAL
        assert cfg.embedding.external_pattern is None
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
        "mapping, message",
        _INVALID_MAPPINGS,
        ids=[f"mapping{i}" for i in range(len(_INVALID_MAPPINGS))],
    )
    def test_invalid_values_rejected(self, mapping, message):
        with pytest.raises(ConfigError, match=message):
            config_from_mapping(mapping)

    def test_external_backend_roundtrips_pattern(self):
        cfg = config_from_mapping({"embedding.external_pattern": "emb_{scale}.csv"})
        assert cfg.embedding.external_pattern == "emb_{scale}.csv"
        assert config_to_mapping(cfg)["embedding.external_pattern"] == "emb_{scale}.csv"

    def test_external_backend_requires_pattern(self):
        with pytest.raises(ConfigError, match="lacks '{scale}'"):
            config_from_mapping({"embedding.external_pattern": "emb.csv"})

    @pytest.mark.parametrize("value", ["none", "", "None"])
    def test_no_pattern_selects_laplacian(self, value):
        cfg = config_from_mapping({"embedding.external_pattern": value})
        assert cfg.embedding.external_pattern is None


# (choices, name, the member it names or the error message listing the values)
_CHOICES = [
    (GrassmannMetric, "chordal", GrassmannMetric.CHORDAL),
    (GrassmannMetric, "MARTIN", GrassmannMetric.MARTIN),
    (GrassmannMetric, "fubini-study", GrassmannMetric.FUBINI_STUDY),
    (GrassmannMetric, "FubiniStudy", GrassmannMetric.FUBINI_STUDY),
    (GrassmannMetric, "Fubini_Study", GrassmannMetric.FUBINI_STUDY),
    (GrassmannMetric, " geodesic ", GrassmannMetric.GEODESIC),
    (ClusteringMethod, "Spectral", ClusteringMethod.SPECTRAL),
    (ClusteringMethod, "kmeans-mds", ClusteringMethod.KMEANS_MDS),
    (ClusteringMethod, "kmeans_mds", ClusteringMethod.KMEANS_MDS),
    (ClusteringMethod, "KMeans_MDS", ClusteringMethod.KMEANS_MDS),
    (ClusteringMethod, "kmeansmds", ClusteringMethod.KMEANS_MDS),
    (
        GrassmannMetric,
        "euclidean",
        "unknown metric 'euclidean'; expected one of "
        "geodesic, chordal, fubini-study, martin, procrustes",
    ),
    (
        ClusteringMethod,
        "kmeans",
        "unknown clustering method 'kmeans'; expected one of spectral, kmeans-mds",
    ),
]


@pytest.mark.parametrize(
    "choices,name,want",
    _CHOICES,
    ids=[f"{choices.__name__}-{name.strip()}" for choices, name, _ in _CHOICES],
)
def test_parse_choice(choices, name, want):
    what = {
        GrassmannMetric: "metric",
        ClusteringMethod: "clustering method",
    }[choices]
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            parse_choice(choices, name, what)
        assert str(err.value) == want
    else:
        assert parse_choice(choices, name, what) is want


@pytest.mark.parametrize("member", [*GrassmannMetric, *ClusteringMethod], ids=str)
def test_parse_choice_takes_every_member_name(member):
    # parse_choice compares the value alone; a member whose name does not
    # normalize to its value would stop parsing by name.
    assert parse_choice(type(member), member.name, "choice") is member


class TestRoundTrip:
    def test_serialization_is_a_fixed_point(self):
        cfg = config_from_mapping(
            {
                "metric": "procrustes",
                "clustering.method": "kmeans-mds",
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
        scales = sample_scales(cfg.scales)
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
        assert len(sample_scales(cfg.scales)) == n_scales

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_embedding_dim_exceeds_the_scale_count(self, name):
        # build_subspaces refuses embedding.dim <= the sampled scale count
        cfg = load_config(preset=name)
        assert cfg.embedding.embedding_dim > len(sample_scales(cfg.scales))

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
        path.write_text("metric = chordal\n= 3\n")
        with pytest.raises(ConfigError, match="line 2: empty key"):
            load_config(path=path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "clustering.k = 5\nmetric = geodesic\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_config(path=marked) == load_config(path=plain) != load_config()

    def test_undecodable_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"metric = chordal\n\xff\n")
        with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(path))}: "):
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
