"""Distributed gradient descent robust to byzantine workers and data shift.

The package simulates synchronous parameter-server training where honest
workers optimize a worst-case (transport-penalized) surrogate of their local
loss and the server aggregates by norm-based screening. Alongside the
simulator it ships the closed-form convergence quantities of that scheme and
checkers that verify recorded traces against them.
"""

from .aggregation import (
    ScreenConfig,
    norm_screen,
    screening_coefficient,
    screening_deviation_bound,
)
from .attacks import AttackSpec, craft
from .bounds import (
    BoundReport,
    TheoryInputs,
    aggregate_deviation_bound,
    avg_sq_gradient_bound,
    distance_bound,
    suboptimality_bound,
    surrogate_smoothness,
)
from .data import Dataset, load_spambase, split_and_shard, synthetic_spambase_like
from .errors import (
    ConfigError,
    DataFormatError,
    NumericError,
    RegimeError,
    ShapeError,
)
from .experiments import ExperimentConfig, run_experiment, sweep
from .losses import LogisticLoss, QuadraticLoss, SmoothnessConstants
from .shift import ShiftSpec, misclassification_rate
from .simulation import (
    ReportPlan,
    RunTrace,
    TrainConfig,
    WorkerRoster,
    gradient_dispersion,
    run_training,
    train_runs,
    worker_reports,
)
from .surrogate import DROConfig, required_iterations

__version__ = "0.1.0"
