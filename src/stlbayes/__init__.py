"""Bayesian confidence for probabilistic STL satisfaction of stochastic
parametric LTI systems."""

from .bayes import (
    GaussianJoint,
    PosteriorDensity,
    build_M,
    gaussian_logpdf,
    joint_distribution,
    log_likelihood,
    posterior,
)
from .chance import (
    AffineInputConstraint,
    ChanceConstraint,
    DecompositionResult,
    WeightScheme,
    decompose,
    gamma,
    gamma_gradient,
    gaussian_quantile,
    noise_gram,
    until_events,
)
from .confidence import (
    ConfidenceEstimate,
    chebyshev_sample_size,
    mc_confidence,
    pwa_confidence,
)
from .feasibility import (
    Cells,
    FarkasCertificate,
    VerificationSpec,
    classify_cells,
    farkas_feasible,
    pwa_classify,
    pwa_linearize,
    pwa_partition,
    restrict_region,
    satisfaction_fn,
    to_affine,
    worst_case_margin,
)
from .lti import (
    Box,
    DataSet,
    InputSampler,
    ParametricLti,
    collect_data,
    laguerre_model,
    simulate,
)
from .rng import RngStream
from .stl import (
    Always,
    And,
    Eventually,
    LinearPredicate,
    Not,
    Or,
    OutputPredicate,
    Pred,
    StlError,
    StlSyntaxError,
    TrueNode,
    Until,
    bind_formula,
    horizon,
    parse_stl,
    robustness,
    satisfies,
    satisfies_batch,
    to_nnf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
