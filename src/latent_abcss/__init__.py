"""Likelihood-free Bayesian inversion toolkit.

Train a joint generative model on (field, travel-time) couples, sample an
approximate posterior over its latent space with ABC by subset simulation,
and pick the ABC tolerance from the curvature of the latent
probability-content curve.  A linear travel-time tomography test case with
an exact Gaussian posterior serves as the built-in ground truth.
"""

from .rng_linalg import (
    NotPositiveDefiniteError,
    RngStream,
    cholesky,
    sample_mvn,
)
from .gp_prior import Field, GPConfig, Grid, build_covariance, exp_kernel, sample_fields
from .tomography import (
    AcquisitionGeometry,
    NoiseModel,
    RayMatrix,
    add_noise,
    assemble_matrix,
    build_geometry,
    forward,
    trace_ray,
)
from .analytic_posterior import GaussianDist, linear_gaussian_posterior, posterior_sample
from .sinkhorn import SinkhornConfig, TransportPlan, entropic_ot
from .neural import AdamState, Layer, MLPParams, adam_step, mlp_backward, mlp_forward
from .jgnn import (
    JGNNModel,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    encode,
    generate,
    jgnn_loss,
    lambda_schedule,
    load_model,
    save_model,
    train,
)
from .subsim import (
    SubSimConfig,
    SubSimTrace,
    estimate_p,
    posterior_solutions,
    subsim_run,
)
from .diagnostics import (
    MetricsReport,
    ThresholdCurve,
    analyze_curve,
    curvature,
    default_eps_grid,
    normalize_eps,
    probability_curve,
    resimulation_report,
    select_threshold,
    smooth_log_curve,
    wasserstein_diagnostics,
)

__version__ = "0.1.0"
