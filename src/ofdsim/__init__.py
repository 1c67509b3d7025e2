"""Sequential allocation of indivisible items to agents whose utilities
must be learned online, scored by fairness-aware goodness functions.

Modules: :mod:`ofdsim.linalg` (incremental precision algebra),
:mod:`ofdsim.goodness` (welfare functionals), :mod:`ofdsim.estimators`
(ridge/GP utility models with confidence widths), :mod:`ofdsim.policies`
(allocation rules), :mod:`ofdsim.environment` (synthetic instances),
:mod:`ofdsim.simulator` (round loop, regret, aggregation) and
:mod:`ofdsim.cli` (experiment presets and CSV emission).
"""

from .environment import ProblemInstance, generate_instance
from .estimators import ConfidenceParams
from .goodness import GoodnessSpec, weights_from_rho
from .policies import PolicyKind
from .simulator import AggregateSeries, RunConfig, RunTrace, aggregate, run_single

__version__ = "0.1.0"

__all__ = [
    "AggregateSeries",
    "ConfidenceParams",
    "GoodnessSpec",
    "PolicyKind",
    "ProblemInstance",
    "RunConfig",
    "RunTrace",
    "aggregate",
    "generate_instance",
    "run_single",
    "weights_from_rho",
    "__version__",
]
