"""Log-Cholesky geometry for SPD matrices, with baseline geometries and
reproducible experiments."""

from .tri import (
    CholeskyFactor,
    DomainError,
    EigFailureError,
    EmptyInputError,
    LogCholError,
    LowerTriangular,
    NoConvergenceError,
    NotSpdError,
    SpdMatrix,
    SymMatrix,
)
from .chol_map import (
    cholesky_factor,
    diff_S,
    diff_S_inv,
    reconstruct,
)
from .chol_manifold import (
    dist_chol,
    exp_chol,
    frechet_mean_chol,
    geodesic_chol,
    group_identity,
    group_inv,
    group_op,
    log_chol,
    metric_chol,
    transport_chol,
)
from .spd_manifold import (
    dist_spd,
    exp_spd,
    geodesic_spd,
    group_inv_spd,
    group_op_spd,
    interpolate_spd,
    log_cholesky_mean,
    log_spd,
    metric_spd,
    transport_spd,
)
from .baselines import METRIC_NAMES, MetricOps, get_metric

__version__ = "0.1.0"

__all__ = [
    "CholeskyFactor",
    "DomainError",
    "EigFailureError",
    "EmptyInputError",
    "LogCholError",
    "LowerTriangular",
    "METRIC_NAMES",
    "MetricOps",
    "NoConvergenceError",
    "NotSpdError",
    "SpdMatrix",
    "SymMatrix",
    "cholesky_factor",
    "diff_S",
    "diff_S_inv",
    "dist_chol",
    "dist_spd",
    "exp_chol",
    "exp_spd",
    "frechet_mean_chol",
    "geodesic_chol",
    "geodesic_spd",
    "get_metric",
    "group_identity",
    "group_inv",
    "group_inv_spd",
    "group_op",
    "group_op_spd",
    "interpolate_spd",
    "log_chol",
    "log_cholesky_mean",
    "log_spd",
    "metric_chol",
    "metric_spd",
    "reconstruct",
    "transport_chol",
    "transport_spd",
]
