"""Safe policy gradients with smoothing policies and adaptive meta-parameters.

The top level exports what the README's example needs and the error types;
everything else is imported from its submodule (``spgrad.oracle``,
``spgrad.estimators``, ...).
"""

from .errors import ConfigurationError, NumericError, OracleBudgetError, SpgradError
from .mdp import ChainConfig, EnumerableEnv, make_chain
from .policies import SoftmaxPolicy, TabularFeatures
from .safe_updates import MetaParams, RunLimits, spg_run

__version__ = "0.1.0"

__all__ = [
    "ChainConfig",
    "ConfigurationError",
    "EnumerableEnv",
    "MetaParams",
    "NumericError",
    "OracleBudgetError",
    "RunLimits",
    "SoftmaxPolicy",
    "SpgradError",
    "TabularFeatures",
    "make_chain",
    "spg_run",
]
