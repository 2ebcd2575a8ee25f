"""Domain-adaptive extreme learning machines for sensor-drift compensation.

The pieces: a loader/scaler for the 10-batch gas-sensor corpus, a frozen
random feature map, closed-form ridge solvers for the plain ELM and its
source/target domain-adaptive variants, a max-min guide-sample selector,
and a seeded benchmark harness with a CLI.
"""

from .benchmark import (ExperimentConfig, ExperimentReport, TaskResult,
                        emit_report, emit_sweep_csv, run_experiment,
                        sweep_guides)
from .dataset import (DataError, SampleSet, ScalerParams, ValidationReport,
                      apply_scaler, encode_targets, fit_scaler, load_batch,
                      load_corpus, validate_corpus)
from .feature_map import RandomFeatureMap, hidden_output, new_feature_map
from .guide_selection import split_target, ssa_select
from .solvers import (Classifier, SolverError, accuracy, classifier_from_dict,
                      classifier_to_dict, labels_from_scores, predict,
                      solve_ridge, train_daelm_s, train_daelm_t, train_elm)

__version__ = "0.1.0"

__all__ = [
    "Classifier", "DataError", "ExperimentConfig",
    "ExperimentReport", "RandomFeatureMap",
    "SampleSet", "ScalerParams", "SolverError", "TaskResult",
    "ValidationReport", "accuracy", "apply_scaler", "classifier_from_dict",
    "classifier_to_dict", "emit_report", "emit_sweep_csv", "encode_targets",
    "fit_scaler", "hidden_output", "labels_from_scores", "load_batch",
    "load_corpus", "new_feature_map", "predict", "run_experiment",
    "solve_ridge", "split_target", "ssa_select",
    "sweep_guides", "train_daelm_s", "train_daelm_t", "train_elm",
    "validate_corpus",
]
