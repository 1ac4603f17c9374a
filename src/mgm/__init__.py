"""Multiscale Grassmann manifold representations for clustering.

The pipeline turns a samples-by-features matrix into one subspace per sample
(spanned by its rows across a family of neighborhood-scale embeddings),
measures pairwise subspace distances with principal-angle metrics, and
clusters on the resulting distance matrix.
"""

from .clustering import (
    ClusteringMethod,
    classical_mds,
    cluster_distances,
    kmeans,
    kmeans_euclidean,
    spectral_cluster,
)
from .config import PRESETS, PipelineConfig, load_config
from .data import load_labels, load_matrix, preprocess
from .errors import (
    ConfigError,
    DataError,
    MgmError,
    NumericalError,
)
from .experiment import (
    ExperimentResult,
    export_scatter,
    load_distance_matrix,
    run_experiment,
    save_distance_matrix,
)
from .grassmann import (
    GrassmannMetric,
    distance,
    distance_from_angles,
    orthonormalize,
    principal_angles,
)
from .mdr import (
    MdrBackendSpec,
    build_stack,
    laplacian_eigenmaps,
    pca_reduce,
)
from .metrics import EvaluationReport, accuracy, ari, avg_purity, evaluate, nmi, purity
from .pipeline import (
    MultiscaleEmbedding,
    RunReport,
    build_subspaces,
    distance_matrix,
    embed_multiscale,
    run_mgm,
)
from .scales import (
    ScaleSamplingSpec,
    power_samples,
    sample_scales,
)

__version__ = "0.1.0"
