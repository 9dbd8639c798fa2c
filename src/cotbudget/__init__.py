"""Token-complexity analysis for chain-of-thought evaluation records.

Given per-(question, prompt) runs of a model (output token count plus
correctness), this package estimates each question's token complexity,
validates how well a pure length-threshold model predicts accuracy, computes
the oracle accuracy-compression frontier, and replays adaptive routing
policies against it. A collection harness gathers records from
chat-completions endpoints and a synthetic oracle generates ground-truth
matrices for testing.
"""
from .bounds import FrontierCurve, alpha_star, frontier, lossless_bound, t_star
from .collect import Question, SweepConfig, grade, load_questions, sweep
from .complexity import (
    INFINITE,
    ComplexityProfile,
    QuestionComplexity,
    classify_accuracy,
    estimate_tau,
    profile,
)
from .metrics import (
    PromptResult,
    ValidationReport,
    adaptivity_split,
    complexity_correlations,
    err_score,
    prompt_table,
    spearman,
    validation_report,
)
from .oracle import OracleSpec, generate, grid_lengths, random_spec, scaled_lengths, straddle_lengths
from .prompts import PromptCatalog, PromptSpec, default_catalog, render
from .records import (
    EvalRecord,
    RecordColumns,
    RunMatrix,
    load_records,
    pivot,
    read_columns,
    save_matrix,
    save_records,
    unpivot,
)
from .routing import (
    RoutingOutcome,
    budget_route,
    compare_to_frontier,
    verifier_cascade,
    verifier_route,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "ComplexityProfile",
    "EvalRecord",
    "FrontierCurve",
    "OracleSpec",
    "PromptCatalog",
    "PromptResult",
    "PromptSpec",
    "Question",
    "QuestionComplexity",
    "RecordColumns",
    "RoutingOutcome",
    "RunMatrix",
    "SweepConfig",
    "ValidationReport",
    "adaptivity_split",
    "alpha_star",
    "budget_route",
    "classify_accuracy",
    "compare_to_frontier",
    "complexity_correlations",
    "default_catalog",
    "err_score",
    "estimate_tau",
    "frontier",
    "generate",
    "grade",
    "grid_lengths",
    "load_questions",
    "load_records",
    "lossless_bound",
    "pivot",
    "profile",
    "prompt_table",
    "random_spec",
    "read_columns",
    "render",
    "save_matrix",
    "save_records",
    "scaled_lengths",
    "spearman",
    "straddle_lengths",
    "sweep",
    "t_star",
    "unpivot",
    "validation_report",
    "verifier_cascade",
    "verifier_route",
]
