"""Experiment harness: data generators, replication runner, config, CLI."""

from .generators import (AUCSim, HeavyTailSim, MCID1, MCID2, MeanCurveSim,
                         QuantileRegSim, SparseClassSim,
                         holdout_misclassification)
from .config import (build_divergence, build_generator, build_loss, build_mh,
                     build_prior, build_rate, load_config,
                     validate_experiment_config)
from .runner import (CellFit, ExperimentResult, RESULT_COLUMNS, compute_row,
                     fit_cell, row_seed, run_experiment, write_outputs)
from .cli import main as cli_main

__all__ = [
    "AUCSim", "HeavyTailSim", "MCID1", "MCID2", "MeanCurveSim",
    "QuantileRegSim", "SparseClassSim", "holdout_misclassification",
    "build_divergence", "build_generator", "build_loss", "build_mh",
    "build_prior", "build_rate", "load_config", "validate_experiment_config",
    "CellFit", "ExperimentResult", "RESULT_COLUMNS", "compute_row",
    "fit_cell", "row_seed", "run_experiment", "write_outputs", "cli_main",
]
