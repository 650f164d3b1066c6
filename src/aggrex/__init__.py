"""Information-filtered local surrogate explainers with exact IP aggregation."""

from .aggregate import (
    AggregateSolution,
    CandidatePool,
    build_ip,
    build_pool,
    coverage,
    fidelity,
    solve_exact,
    solve_greedy,
    verify_solution,
)
from .blackbox import BlackBoxModel, load_model, save_model, train_bagged_forest
from .data import (
    Dataset,
    FeatureSchema,
    ParseError,
    SchemaViolation,
    load_dataset,
    standardize,
    synth_multiclass,
    write_dataset,
)
from .explainer import LabelledBall, LocalExplainer, explainer_groups, label_ball, train_local_explainer
from .infofilter import (
    BinAssignment,
    PartitionLeaves,
    bin_partition,
    build_histograms,
    forward_select,
    select_informative_features,
)
from .sampler import SampleSet, derive_seed, sample_ball
from .tree import (
    DecisionTree,
    FitJob,
    fit_job,
    fit_trees,
    runs,
    tree_from_lines,
    tree_to_lines,
    tree_to_rules,
)

__version__ = "0.1.0"
