"""Gaussian processes on probability-distribution inputs.

Distributions are embedded through (approximate) inverse optimal transport
maps to a Wasserstein barycenter; radial kernels on that embedding are
positive definite in any dimension, unlike kernels applied directly to the
Wasserstein distance.
"""

from .barycenter import BarycenterReport, gaussian_barycenter, gaussian_barycenter_measure, grid_barycenter
from .baseline import SmootherModel, fit_smoother, l1_density_distance, select_bandwidth, smoother_predict
from .gp import GpModel, PredictionResult, gp_fit_cv, gp_fit_mle, gp_predict, metrics
from .kernels import (
    Embedding,
    KernelParams,
    cross_distances,
    embed,
    embed_gaussians,
    embed_grids,
    gram_matrix,
    naive_w2_gram,
    pairwise_distances,
    psd_diagnostic,
)
from .measures import (
    DiskConfig,
    EmpiricalSample,
    GaussianMeasure,
    GridDensity,
    disks_to_grid,
    gaussian_measures,
    sample_gaussian_population,
    sample_regression_gaussians,
    validate_spd,
)
from .ot import (
    CouplingPlan,
    TransportAssignment,
    assignment_ot,
    gaussian_transport_map,
    gaussian_w2,
    inverse_grid_map,
    map_l2_distance_gaussian,
    sinkhorn_plan,
    sqrtm_spd,
)

__version__ = "0.1.0"
