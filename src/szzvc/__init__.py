"""Defect-inducing change detection for node-and-edge visual code.

Parses Pure Data and Max/MSP patch files into a tree intermediate
representation, diffs IR versions structurally at configurable
change-depths, and backtracks defect-fixing commits through git history to
the prior commits that touched the changed nodes and edges — alongside a
line-based baseline and a precision-scoring harness for comparing the two.
"""

__version__ = "0.1.0"

from .diff import (
    MAX_DEPTH,
    ChangeKind,
    ChangeRecord,
    IRDiff,
    diff_ir,
    match_changes,
    nodes_touched,
    paths_at_depth,
    render_path,
    truncate_path,
)
from .errors import ConfigError, GitError, PatchSyntaxError
from .gitrepo import Repository
from .ir import (
    ABSENT,
    Connection,
    Language,
    NodeSubtree,
    Num,
    VisualIR,
    canonicalize,
    dumps_ir,
)
from .maxparser import PropertyFilter, default_property_filter, parse_maxpat
from .miner import (
    FixingCommit,
    InducingCandidate,
    MinerConfig,
    filter_candidates,
    find_inducing,
    identify_fixing_commits,
)
from .pdparser import parse_pd
from .evaluate import EvalReport, Verdict, score
from .textual import LineOrigin, annotate, textual_find_inducing

__all__ = [
    "ABSENT",
    "ChangeKind",
    "ChangeRecord",
    "ConfigError",
    "Connection",
    "EvalReport",
    "FixingCommit",
    "GitError",
    "IRDiff",
    "InducingCandidate",
    "Language",
    "LineOrigin",
    "MAX_DEPTH",
    "MinerConfig",
    "NodeSubtree",
    "Num",
    "PatchSyntaxError",
    "PropertyFilter",
    "Repository",
    "Verdict",
    "VisualIR",
    "annotate",
    "canonicalize",
    "default_property_filter",
    "diff_ir",
    "dumps_ir",
    "filter_candidates",
    "find_inducing",
    "identify_fixing_commits",
    "match_changes",
    "nodes_touched",
    "parse_maxpat",
    "parse_pd",
    "paths_at_depth",
    "render_path",
    "score",
    "textual_find_inducing",
    "truncate_path",
]
