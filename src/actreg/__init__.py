"""Energy-regularized neural network training on a numpy autodiff core.

The package trains small classifiers whose loss adds a weighted
activation-energy penalty to cross-entropy, and ships the measurement
and statistics tooling used to compare architectures: deterministic
training runs, lambda sweeps, power-trace integration, and ANOVA-based
comparisons over persisted experiment records.
"""

from .analysis import Table, analyze_records, parameter_count_table
from .datasets import DatasetHandle, load_idx_dataset, synth_blobs
from .errors import NonFiniteError, ParseError, ShapeError, ValidationError
from .models import (ARCHITECTURES, ForwardTrace, Model, ModelSpec,
                     build_model, forward_traced, param_count_for)
from .objective import (activation_energy, dataset_activation_energy,
                        regularized_loss)
from .power import (EnergyReport, LiveSource, PowerSample, energy_per_correct,
                    integrate, live_source, replay_source)
from .records import ExperimentRecord, load_record, load_records, save_record
from .rng import make_generator
from .stats import (AnovaSource, BootstrapCI, LinearFit, TukeyPair,
                    WilcoxonResult, bootstrap_ci, coefficient_of_variation,
                    linear_fit, one_way_anova, rank_variance, rank_within,
                    tukey_hsd, two_way_anova_type2, wilcoxon_signed_rank)
from .sweep import (DEFAULT_LAMBDAS, SweepReport, SweepRow, load_sweep,
                    run_lambda_sweep, save_sweep)
from .tensor import Adam, Tensor, grad_check, softmax_cross_entropy
from .training import RunConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "ARCHITECTURES", "Adam", "AnovaSource", "BootstrapCI", "DEFAULT_LAMBDAS",
    "DatasetHandle", "EnergyReport", "ExperimentRecord", "ForwardTrace",
    "LinearFit", "LiveSource", "Model", "ModelSpec", "NonFiniteError",
    "ParseError", "PowerSample", "RunConfig", "ShapeError", "SweepReport",
    "SweepRow", "Table", "Tensor", "TukeyPair", "ValidationError",
    "WilcoxonResult", "activation_energy", "analyze_records", "bootstrap_ci",
    "build_model", "coefficient_of_variation", "dataset_activation_energy",
    "energy_per_correct", "evaluate", "forward_traced", "grad_check",
    "integrate", "linear_fit", "live_source", "load_idx_dataset",
    "load_record", "load_records", "load_sweep", "make_generator",
    "one_way_anova", "param_count_for", "parameter_count_table",
    "rank_variance", "rank_within", "regularized_loss", "replay_source",
    "run_lambda_sweep", "save_record", "save_sweep", "softmax_cross_entropy",
    "synth_blobs", "train", "tukey_hsd", "two_way_anova_type2",
    "wilcoxon_signed_rank",
]
