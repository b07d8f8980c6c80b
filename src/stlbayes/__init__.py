"""Bayesian confidence for probabilistic STL satisfaction of stochastic
parametric LTI systems."""

from .bayes import PosteriorDensity, posterior
from .chance import (
    ChanceConstraint,
    DecompositionResult,
    WeightScheme,
    decompose,
    until_events,
)
from .confidence import (
    ConfidenceEstimate,
    chebyshev_sample_size,
    mc_confidence,
    mc_draws,
    pwa_confidence,
    pwa_draws,
)
from .feasibility import (
    Cells,
    VerificationSpec,
    classify_cells,
    gaussian_quantile,
    noise_gram,
    pwa_partition,
    restrict_region,
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
    satisfies,
    satisfies_batch,
    to_nnf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
