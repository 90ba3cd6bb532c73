"""Contrastive active learning with feature-guided query strategies."""

import os as _os
import sys as _sys

__version__ = "0.1.0"

# BLAS reads these once, when numpy loads. Unless the caller set them, conal and
# the sweep workers forked from it run BLAS on one thread.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_openblas_thread() -> None:
    """Set each OpenBLAS in the process's memory map (Linux) to one thread."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            libs = [ctypes.CDLL(path) for path in
                    {line.split(None, 5)[5].strip() for line in maps if "openblas" in line}]
    except OSError:
        return
    for lib in libs:
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


if "numpy" not in _sys.modules:
    for _name in _BLAS_THREAD_VARS:
        _os.environ.setdefault(_name, "1")
elif _BLAS_THREAD_VARS[0] not in _os.environ:  # numpy loaded first: too late for the variables
    _one_openblas_thread()

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
