"""Order-unaware prophet-inequality policies with exact evaluation tooling.

The package splits into: ``core`` (distributions, instances, orders),
``thresholds`` (suffix-max laws, the adaptive threshold pair, the constants),
``policies`` (all stopping rules), ``evaluation`` (exact / brute-force /
Monte Carlo evaluators, ratio sweeps), ``families`` (worst-case
instance generators), and ``cli`` (the command-line harness).
"""

from types import ModuleType as _ModuleType

from .core import (
    CapExceededError,
    DiscreteDistribution,
    Instance,
    Order,
    ValidationError,
    load_instance,
    load_order,
    read_json,
    save_instance,
    save_order,
    validate_instance,
    validate_order,
)
from .evaluation import (
    EvalResult,
    Objective,
    OrderRatio,
    RatioReport,
    brute_force,
    eval_exact,
    monte_carlo,
    order_ratio_sweep,
)
from .families import (
    FamilyInstance,
    SingleThresholdReport,
    closed_form_alg,
    closed_form_opt,
    closed_form_ratio,
    example1,
    golden_lb,
    hv_box,
    maxprob_lb,
    single_threshold_family,
    single_threshold_ratio_curve,
    threshold_for_alpha,
)
from .policies import (
    DecisionContext,
    GoldenPolicy,
    MaxProbPolicy,
    NewMaxRule,
    OptExpectationPolicy,
    OptMaxProbPolicy,
    Policy,
    SingleThresholdPolicy,
    ThresholdRule,
    make_policy,
    opt_expectation_thresholds,
)
from .thresholds import (
    LAMBDA,
    LN_INV_LAMBDA,
    PHI,
    ClassicThresholds,
    ThresholdTriple,
    classic_thresholds,
    solve_beta,
    solve_lambda,
    suffix_max,
    threshold_triple,
)

# Importing the names above also binds the submodules (``core``, ...) here;
# they stay importable as attributes but are not part of the star-export.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
