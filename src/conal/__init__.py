"""Contrastive active learning with feature-guided query strategies."""

__version__ = "0.1.0"

from .data import (DatasetSpec, FeatureMatrix, ShiftSpec, apply_shift,
                   balanced_test_spec, class_sizes, full_shift_suite,
                   generate_mixture, generate_ood)
from .errors import ConalError, ConfigError, DataError, UsageError
from .io import load_features, save_features
from .loop import LoopConfig, Oracle, PoolState, RunResult, run_active_learning
from .metrics import (IterationReport, QueryCost, accuracy, auroc, brier, ece,
                      mce, nll, sampling_bias)
from .model import (ModelConfig, ModelState, init_model, load_model, save_model,
                    stochastic_proba, supcon_loss, train)
from .pca import ClassPcaModel, ClassSubspace, fit_class_pca, fre_scores
from .strategies import (SelectionRequest, SelectionResult, StrategyInfo, get_strategy,
                         score_bald, score_entropy, score_featuresim, score_fre,
                         select_global, select_kcenter_greedy, select_per_class,
                         select_random)

__all__ = [name for name in dir() if not name.startswith("_")]
