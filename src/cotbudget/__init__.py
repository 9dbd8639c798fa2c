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
from .oracle import OracleSpec, generate, random_spec, straddle_lengths
from .prompts import PromptCatalog, PromptSpec, default_catalog, render
from .records import (
    EvalRecord,
    RunMatrix,
    load_records,
    pivot,
    read_matrices,
    save_matrix,
)
from .routing import (
    RoutingOutcome,
    budget_route,
    compare_to_frontier,
    verifier_cascade,
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
    "RoutingOutcome",
    "RunMatrix",
    "SweepConfig",
    "ValidationReport",
    "adaptivity_split",
    "alpha_star",
    "budget_route",
    "compare_to_frontier",
    "complexity_correlations",
    "default_catalog",
    "err_score",
    "estimate_tau",
    "frontier",
    "generate",
    "grade",
    "load_questions",
    "load_records",
    "lossless_bound",
    "pivot",
    "profile",
    "prompt_table",
    "random_spec",
    "read_matrices",
    "render",
    "save_matrix",
    "spearman",
    "straddle_lengths",
    "sweep",
    "t_star",
    "validation_report",
    "verifier_cascade",
]
