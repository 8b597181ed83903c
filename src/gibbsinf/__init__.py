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
from .model import (CubicBSpline, Dataset, FunctionParam, PairedScores,
                    RawDictionary, TensorBSpline, dataset_from_csv,
                    design_matrix)
from .losses import (AUCLoss, CappedSquaredLoss, CheckLoss, MCIDLoss,
                     SquaredLoss, ZeroOneLinearLoss, auc_point_estimate,
                     empirical_risk, erm_least_squares,
                     least_squares_coefficients, pointwise_losses, sign_neg)
from .priors import GaussianIID, LaplaceIID, SpikeSlab
from .rates import (AUCCovariances, AUCDataDriven, FixedRate, HeavyTailRate,
                    PowerLawRate, TsybakovRate, auc_covariances,
                    auc_learning_rate, rate_at)
from .sampler import (Chain, ChainStart, GibbsTarget, MHConfig, chain_summary,
                      credible_interval, effective_sample_size, hash64,
                      make_rng, mh_run, mh_run_block, mh_start,
                      posterior_mean, ss_mh_run, write_chain_csv)
from .diagnostics import (AbsScalarDistance, EmpiricalL2, EuclideanDistance,
                          L2PDistance, MCDivergence, MCIDMeasure, MGFCheck,
                          RateFit, RiskDiffSqrt, concentration_slope,
                          divergence_value, mgf_condition_check,
                          posterior_mass_outside, structurally_equal)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
