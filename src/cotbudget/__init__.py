"""Token-complexity analysis for chain-of-thought evaluation records.

Given per-(question, prompt) runs of a model (output token count plus
correctness), this package estimates each question's token complexity,
validates how well a pure length-threshold model predicts accuracy, computes
the oracle accuracy-compression frontier, and replays adaptive routing
policies against it. A collection harness gathers records from
chat-completions endpoints and a synthetic oracle generates ground-truth
matrices for testing. Each public name is imported from its module on
first use, so a program loads only the modules it uses.
"""
from importlib import import_module

__version__ = "0.1.0"

# Each public name, listed once under the module that defines it.
_EXPORTS = {
    "bounds": ("FrontierCurve", "alpha_star", "frontier", "lossless_bound", "t_star"),
    "collect": ("SweepConfig", "sweep"),
    "complexity": ("ComplexityProfile", "QuestionComplexity", "profile"),
    "grading": ("Question", "grade", "load_questions"),
    "inputs": ("INFINITE",),
    "metrics": ("PromptResult", "ValidationReport", "adaptivity_split", "complexity_correlations",
                "err_score", "prompt_table", "spearman", "validation_report"),
    "oracle": ("OracleSpec", "generate", "random_spec", "straddle_lengths"),
    "prompts": ("PromptCatalog", "PromptSpec", "default_catalog", "render"),
    "records": ("EvalRecord", "RunMatrix", "load_records", "pivot", "read_matrices", "save_matrix"),
    "routing": ("RoutingOutcome", "budget_route", "compare_to_frontier", "verifier_cascade"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name's module on its first lookup (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:  # a submodule not yet imported is found by the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
