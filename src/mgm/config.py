"""Pipeline configuration: a flat dotted-key format, named presets, and the
validated PipelineConfig object every stage consumes.

Config files are lines of `key = value`; `#` starts a comment. Unknown keys
are rejected so typos fail loudly. Serializing and re-parsing a config is a
fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .clustering import ClusteringMethod
from .errors import ConfigError
from .grassmann import GrassmannMetric
from .mdr import MdrBackendSpec, MdrMethod
from .scales import ScaleSamplingSpec

__all__ = [
    "PipelineConfig",
    "PRESETS",
    "parse_config_text",
    "config_from_mapping",
    "config_to_mapping",
    "load_config",
]


@dataclass(frozen=True)
class PipelineConfig:
    scales: ScaleSamplingSpec = ScaleSamplingSpec(5, 50, 20, 1.6)
    embedding: MdrBackendSpec = MdrBackendSpec(MdrMethod.LAPLACIAN_EIGENMAPS, 20)
    pca_dim: int | None = None
    metric: GrassmannMetric = GrassmannMetric.CHORDAL
    clustering_method: ClusteringMethod = ClusteringMethod.SPECTRAL
    k: int = 2
    seeds: tuple[int, ...] = (0,)
    mds_dim: int | None = None
    normalize: bool = True
    log_transform: bool = True
    top_features: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be nonnegative")
        if self.pca_dim is not None and self.pca_dim < 1:
            raise ConfigError(f"pca.dim must be positive, got {self.pca_dim}")
        if self.mds_dim is not None and self.mds_dim < 1:
            raise ConfigError(f"clustering.mds_dim must be positive, got {self.mds_dim}")
        if self.mds_dim is not None and self.clustering_method is not ClusteringMethod.KMEANS_MDS:
            raise ConfigError("clustering.mds_dim applies only to clustering.method = kmeans-mds")
        if self.top_features is not None and self.top_features < 1:
            raise ConfigError(
                f"preprocess.top_features must be positive, got {self.top_features}"
            )


# Each preset spells out one of the paper's setups in full, so a setting the
# defaults already share is still written down.
PRESETS: dict[str, dict[str, str]] = {
    "setup1": {
        "pca.dim": "200",
        "embedding.dim": "100",
        "scales.min": "5",
        "scales.max": "100",
        "scales.count": "25",
        "scales.power": "2.0",
        "clustering.method": "spectral",
        "seeds": "1,3,5,7,9",
    },
    "setup2-small": {
        "pca.dim": "50",
        "embedding.dim": "20",
        "scales.min": "5",
        "scales.max": "20",
        "scales.count": "11",
        "scales.power": "1.6",
        "clustering.method": "kmeans-mds",
        "seeds": "1,3,5,7,9",
    },
    "setup2-large": {
        "pca.dim": "100",
        "embedding.dim": "50",
        "scales.min": "5",
        "scales.max": "50",
        "scales.count": "20",
        "scales.power": "1.6",
        "clustering.method": "kmeans-mds",
        "seeds": "1,3,5,7,9",
    },
    "setup2-tiny": {
        "pca.dim": "20",
        "embedding.dim": "15",
        "scales.min": "5",
        "scales.max": "15",
        "scales.count": "9",
        "scales.power": "1.6",
        "clustering.method": "kmeans-mds",
        "seeds": "1,3,5,7,9",
    },
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a mapping; later keys override earlier."""
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key not in _DEFAULTS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        mapping[key] = value
    return mapping


def _parse_int(mapping: dict[str, str], key: str) -> int:
    try:
        return int(mapping[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {mapping[key]!r}")


def _parse_float(mapping: dict[str, str], key: str) -> float:
    try:
        return float(mapping[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {mapping[key]!r}")


def _parse_bool(mapping: dict[str, str], key: str) -> bool:
    value = mapping[key].strip().lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be true or false, got {mapping[key]!r}")


def _parse_optional_int(mapping: dict[str, str], key: str) -> int | None:
    if mapping[key].strip().lower() in ("none", ""):
        return None
    return _parse_int(mapping, key)


def config_from_mapping(mapping: dict[str, str]) -> PipelineConfig:
    """Build and validate a PipelineConfig from dotted keys over defaults."""
    unknown = set(mapping) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    merged = dict(_DEFAULTS)
    merged.update(mapping)
    try:
        scales = ScaleSamplingSpec(
            min_scale=_parse_int(merged, "scales.min"),
            max_scale=_parse_int(merged, "scales.max"),
            count=_parse_int(merged, "scales.count"),
            power=_parse_float(merged, "scales.power"),
        )
        pattern = merged["embedding.external_pattern"].strip()
        embedding = MdrBackendSpec(
            method=MdrMethod.parse(merged["embedding.method"]),
            embedding_dim=_parse_int(merged, "embedding.dim"),
            external_pattern=None if pattern.lower() in ("none", "") else pattern,
        )
        try:
            seeds = tuple(int(s) for s in merged["seeds"].split(",") if s.strip())
        except ValueError:
            raise ConfigError(
                f"seeds must be comma-separated integers, got {merged['seeds']!r}"
            )
        return PipelineConfig(
            scales=scales,
            embedding=embedding,
            pca_dim=_parse_optional_int(merged, "pca.dim"),
            metric=GrassmannMetric.parse(merged["metric"]),
            clustering_method=ClusteringMethod.parse(merged["clustering.method"]),
            k=_parse_int(merged, "clustering.k"),
            seeds=seeds,
            mds_dim=_parse_optional_int(merged, "clustering.mds_dim"),
            normalize=_parse_bool(merged, "preprocess.normalize"),
            log_transform=_parse_bool(merged, "preprocess.log1p"),
            top_features=_parse_optional_int(merged, "preprocess.top_features"),
        )
    except ValueError as err:
        raise ConfigError(str(err))


def config_to_mapping(cfg: PipelineConfig) -> dict[str, str]:
    """Canonical dotted-key form; parsing it back reproduces cfg exactly."""

    def opt(value: int | None) -> str:
        return "none" if value is None else str(value)

    return {
        "scales.min": str(cfg.scales.min_scale),
        "scales.max": str(cfg.scales.max_scale),
        "scales.count": str(cfg.scales.count),
        "scales.power": repr(cfg.scales.power),
        "embedding.method": cfg.embedding.method.value,
        "embedding.dim": str(cfg.embedding.embedding_dim),
        "embedding.external_pattern": cfg.embedding.external_pattern or "none",
        "pca.dim": opt(cfg.pca_dim),
        "metric": cfg.metric.value,
        "clustering.method": cfg.clustering_method.value,
        "clustering.k": str(cfg.k),
        "clustering.mds_dim": opt(cfg.mds_dim),
        "seeds": ",".join(str(s) for s in cfg.seeds),
        "preprocess.normalize": "true" if cfg.normalize else "false",
        "preprocess.log1p": "true" if cfg.log_transform else "false",
        "preprocess.top_features": opt(cfg.top_features),
    }


_DEFAULTS = config_to_mapping(PipelineConfig())


def load_config(
    path: str | Path | None = None,
    preset: str | None = None,
    overrides: dict[str, str] | None = None,
) -> PipelineConfig:
    """Resolve a config from, in increasing precedence: defaults, a named
    preset, a config file, explicit overrides."""
    mapping: dict[str, str] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}"
            )
        mapping.update(PRESETS[preset])
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}")
        mapping.update(parse_config_text(text))
    if overrides:
        mapping.update(overrides)
    return config_from_mapping(mapping)
