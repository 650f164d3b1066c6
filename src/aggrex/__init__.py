"""Information-filtered local surrogate explainers with exact IP aggregation."""

from .aggregate import (
    AggregateSolution,
    BruteForceRefused,
    CandidatePool,
    IPModel,
    brute_force,
    build_ip,
    build_pool,
    coverage,
    export_lp,
    fidelity,
    parse_lp,
    solve_exact,
    solve_greedy,
    verify_solution,
)
from .blackbox import BlackBoxModel, load_model, predict, save_model, table_oracle, train_bagged_forest
from .data import (
    Dataset,
    FeatureSchema,
    ParseError,
    SchemaViolation,
    inverse_scale,
    load_dataset,
    standardize,
    synth_label_fn,
    synth_multiclass,
    write_dataset,
)
from .explainer import (
    LabelledBall,
    LocalExplainer,
    explainer_groups,
    label_ball,
    local_fidelity,
    train_local_explainer,
)
from .infofilter import (
    BinAssignment,
    PartitionLeaves,
    SelectionState,
    bin_partition,
    build_histograms,
    cond_mutual_info,
    forward_select,
    select_feature,
    select_informative_features,
    selection_trace,
)
from .sampler import SampleSet, derive_seed, mixed_distance, sample_ball, within_ball
from .tree import (
    DecisionTree,
    FitJob,
    fit_job,
    fit_trees,
    runs,
    tree_fit,
    tree_from_lines,
    tree_to_lines,
    tree_to_rules,
)

__version__ = "0.1.0"
