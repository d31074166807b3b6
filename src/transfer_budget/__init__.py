"""Sample-transfer budgeting for multi-source transfer learning.

Plans how many samples to pool from each source task when fitting a target
task, and ships the Monte-Carlo machinery used to validate the planning rule
on analytic families.
"""

from .families import (
    BernoulliLogit,
    CategoricalLogits,
    Family,
    FisherUnavailableError,
    GaussianMean,
    InvalidParameterError,
    InvalidSampleError,
    SoftmaxRegression,
)
from .estimation import (
    FisherEstimate,
    FisherMode,
    InsufficientDataError,
    MLEFit,
    PooledData,
    discrepancy,
    empirical_fisher,
    offset_gram,
    pooled_mle,
)
from .planner import (
    FeasibilityError,
    ProxyCurve,
    Regime,
    SinglePlan,
    TransferPlan,
    TransferProblem,
    optimal_single,
    plan_transfer,
    project_capped_simplex,
    proxy_derivative,
    proxy_multi,
    proxy_value,
    regime_curve,
    solve_alpha_qp,
)
from .simlab import (
    StrategyRow,
    SweepResult,
    TrialReport,
    estimate_expected_kl,
    negative_transfer_table,
    sweep_n1,
)
from .trainer import (
    ComparisonRow,
    Strategy,
    SuiteConfig,
    TaskSuite,
    TrainOptions,
    TrainRun,
    compare_strategies,
    generate_suite,
    pretrain_sources,
    train,
)

__version__ = "0.1.0"
