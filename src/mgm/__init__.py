"""Multiscale Grassmann manifold representations for clustering.

The pipeline turns a samples-by-features matrix into one subspace per sample
(spanned by its rows across a family of neighborhood-scale embeddings),
measures pairwise subspace distances with principal-angle metrics, and
clusters on the resulting distance matrix.
"""

from .clustering import (
    ClusteringMethod,
    ClusteringResult,
    classical_mds,
    cluster_distances,
    kmeans,
    kmeans_euclidean,
    kmeans_on_distances,
    spectral_cluster,
)
from .config import PRESETS, PipelineConfig, load_config
from .data import ExpressionMatrix, load_labels, load_matrix, preprocess
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
    PrincipalAngles,
    Projector,
    Subspace,
    distance,
    distance_from_angles,
    geodesic_interpolate,
    orthonormalize,
    principal_angles,
    to_projector,
)
from .mdr import (
    EmbeddingStack,
    MdrBackendSpec,
    MdrMethod,
    build_stack,
    laplacian_eigenmaps,
    mdr_embed,
    pca_reduce,
)
from .metrics import EvaluationReport, accuracy, ari, avg_purity, evaluate, nmi, purity
from .pipeline import (
    CellSubspaceSet,
    DistanceMatrix,
    MultiscaleEmbedding,
    RunReport,
    aggregate_features,
    build_subspaces,
    distance_matrix,
    embed_multiscale,
    run_mgm,
)
from .scales import (
    GapSummary,
    ScaleSamplingSpec,
    ScaleSet,
    describe_density,
    power_samples,
    sample_scales,
)

__version__ = "0.1.0"
