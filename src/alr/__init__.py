"""Pool-based active learning for regression.

Greedy-sampling strategies (input-space, output-space, and combined, with
multi-task variants), committee and expected-model-change baselines, linear
solvers matching unscaled penalized least-squares objectives, and a
reproducible learning-curve benchmark harness over arbitrary tabular
datasets.
"""

from .dataset import (
    Dataset,
    NormalizationParams,
    SplitConfig,
    apply_normalization,
    gen_synthetic,
    load_csv,
    normalize_features,
    split_train_test,
    write_csv,
)
from .harness import (
    ExperimentConfig,
    LearningCurve,
    MetricRecord,
    RunResult,
    read_curves_csv,
    run_experiment,
    run_single,
    saved_queries,
    selection_sequence,
    unique_query_count,
    write_curves_csv,
    write_curves_json,
)
from .metrics import label_std, pearson_cc, rmse
from .regression import (
    LinearModel,
    SolverConfig,
    coefficient_mae,
    fit,
    parse_solver,
    predict,
    resolve_lambda,
    solver_to_string,
)
from .strategies import (
    PoolState,
    StrategySpec,
    parse_strategy,
    select_next,
    strategy_to_string,
)

__version__ = "0.1.0"
