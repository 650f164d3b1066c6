"""Information-filtered local surrogate explainers with exact IP aggregation.

The package's surface is the pipeline README documents; every other name is
internal to its module.
"""

from .aggregate import build_ip, build_pool, solve_exact, solve_greedy, verify_solution
from .blackbox import train_bagged_forest
from .data import standardize, synth_multiclass
from .explainer import explainer_groups, label_ball, train_local_explainer
from .sampler import derive_seed

__version__ = "0.1.0"
