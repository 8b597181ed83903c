"""gibbsinf: Gibbs-posterior inference with loss-calibrated learning rates.

Building blocks: loss functions and empirical risks (`losses`), priors over
finite- and variable-dimension parameters (`priors`), learning-rate
schedules including the data-driven ranking rate (`rates`),
Metropolis-Hastings samplers for the resulting quasi-posteriors (`sampler`),
concentration diagnostics (`diagnostics`), and a replication harness with a
CLI (`harness`).
"""

from .errors import (ConditioningError, ConfigError, DegenerateEstimateError,
                     DomainError, GibbsInfError, InitializationError,
                     OverflowGuardError, PreconditionError, ShapeError)
from .model import (AffineBasis, CubicBSpline, Dataset, PairedScores,
                    TensorBSpline, design_matrix)
from .losses import (AUCLoss, CappedSquaredLoss, CheckLoss, MCIDLoss,
                     SquaredLoss, ZeroOneLinearLoss, auc_point_estimate,
                     empirical_risk, least_squares_coefficients,
                     pointwise_losses, sign_neg)
from .priors import GaussianIID, LaplaceIID, SpikeSlab
from .rates import (AUCCovariances, AUCDataDriven, FixedRate, HeavyTailRate,
                    PowerLawRate, auc_covariances, auc_learning_rate)
from .sampler import (Chain, ChainStart, GibbsTarget, MHConfig, chain_summary,
                      credible_interval, effective_sample_size, hash64,
                      make_rng, mh_run, mh_run_block, mh_start,
                      posterior_mean, ss_mh_run, write_chain_csv)
from .diagnostics import (AbsScalarDistance, EmpiricalL2, EuclideanDistance,
                          L2PDistance, MCDivergence, MCIDMeasure, MGFCheck,
                          RateFit, RiskDiffSqrt, concentration_slope,
                          mgf_condition_check, posterior_mass_outside)

__version__ = "0.1.0"

__all__ = [
    "ConditioningError", "ConfigError", "DegenerateEstimateError",
    "DomainError", "GibbsInfError", "InitializationError",
    "OverflowGuardError", "PreconditionError", "ShapeError",
    "AffineBasis", "CubicBSpline", "Dataset", "PairedScores",
    "TensorBSpline", "design_matrix", "AUCLoss",
    "CappedSquaredLoss", "CheckLoss", "MCIDLoss", "SquaredLoss",
    "ZeroOneLinearLoss", "auc_point_estimate", "empirical_risk",
    "least_squares_coefficients", "pointwise_losses", "sign_neg",
    "GaussianIID", "LaplaceIID", "SpikeSlab", "AUCCovariances",
    "AUCDataDriven", "FixedRate", "HeavyTailRate", "PowerLawRate",
    "auc_covariances", "auc_learning_rate",
    "Chain", "ChainStart", "GibbsTarget", "MHConfig", "chain_summary",
    "credible_interval", "effective_sample_size", "hash64", "make_rng",
    "mh_run", "mh_run_block", "mh_start", "posterior_mean", "ss_mh_run",
    "write_chain_csv", "AbsScalarDistance", "EmpiricalL2",
    "EuclideanDistance", "L2PDistance", "MCDivergence", "MCIDMeasure",
    "MGFCheck", "RateFit", "RiskDiffSqrt", "concentration_slope",
    "mgf_condition_check", "posterior_mass_outside",
]
