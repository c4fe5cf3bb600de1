"""Unsupervised fuzzy joins at a target precision.

Given a reference table L, a query table R, and a precision target, the
engine searches a space of join configurations (preprocessing, tokenizer,
token weights, distance kind, threshold) and returns a many-to-one join
maximizing estimated recall subject to the estimated precision staying
above the target.  No labeled examples are used: precision is estimated
from the geometry of the reference table itself.
"""

import os

# The engine makes no BLAS call, yet importing numpy starts an OpenBLAS
# worker per extra core, each busy-waiting.  One thread avoids that when
# this package imports numpy first; a user's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .blocking import CandidateIndex, blocking_cutoff, build_index
from .distances import (
    ColumnStrings,
    char_distance,
    distance_matrix,
    evaluate,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein,
)
from .evaluation import (
    DROP_ONLY_PROFILE,
    GroundTruth,
    MIXED_PROFILE,
    MetricsReport,
    PerturbationProfile,
    TYPO_ONLY_PROFILE,
    add_random_column,
    adjusted_recall,
    generate_disjoint_tables,
    generate_synthetic,
    inject_irrelevant_rows,
    pr_auc,
    recall_upper_bound,
    score,
)
from .functions import (
    Assignment,
    Configuration,
    FunctionSpaceOptions,
    JoinFunction,
    JoinResult,
    Solution,
    dump_solution,
    enumerate_function_space,
    load_solution,
    parse_solution,
    save_solution,
)
from .multicolumn import interpolate, solve_multi
from .negative_rules import (
    NegativeRule,
    dump_rules,
    learn_rules,
    pair_blocked,
    preprocess_for_rules,
    word_delta,
)
from .pipeline import ConfigError, PipelineOutcome, RunConfig, StageError, run_pipeline
from .solver import (
    SolveResult,
    TieDraws,
    greedy_select,
    solve,
)
from .stem import stem
from .tables import DataError, Record, Table, load_table, make_table
from .text import apply_preprocess, tokenize

__version__ = "0.1.0"
