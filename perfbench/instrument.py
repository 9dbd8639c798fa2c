"""Span wrappers around the program's public calls, one span name per module call.

The span name's first part is the layer: the cotbudget module the call
enters. Wrapping happens from the benchmark's side by replacing module and
class attributes, so the program itself carries no tracing code.
"""
from __future__ import annotations

import importlib
import sys

from harness import Tracer

# (module, attribute path, span name). Names a module imported by value
# (``from .records import load_records`` in cli) are wrapped where they are
# looked up, which is the importing module.
PROGRAM_CALLS = (
    ("cotbudget.cli", "load_records", "records.load_records"),
    ("cotbudget.cli", "pivot", "records.pivot"),
    ("cotbudget.cli", "save_records", "records.save_records"),
    ("cotbudget.cli", "unpivot", "records.unpivot"),
    ("cotbudget.cli", "profile", "complexity.profile"),
    ("cotbudget.cli", "_load_budgets", "cli.load_budgets"),
    ("cotbudget.complexity", "profile", "complexity.profile"),
    ("cotbudget.complexity", "ComplexityProfile.save", "complexity.profile_save"),
    ("cotbudget.complexity", "ComplexityProfile.load", "complexity.profile_load"),
    ("cotbudget.oracle", "random_spec", "oracle.random_spec"),
    ("cotbudget.oracle", "generate", "oracle.generate"),
    ("cotbudget.oracle", "save_taus", "oracle.save_taus"),
    ("cotbudget.bounds", "frontier", "bounds.frontier"),
    ("cotbudget.bounds", "alpha_star", "bounds.alpha_star"),
    ("cotbudget.bounds", "t_star", "bounds.t_star"),
    ("cotbudget.metrics", "validation_report", "metrics.validation_report"),
    ("cotbudget.metrics", "prompt_table", "metrics.prompt_table"),
    ("cotbudget.metrics", "complexity_correlations", "metrics.complexity_correlations"),
    ("cotbudget.metrics", "adaptivity_split", "metrics.adaptivity_split"),
    ("cotbudget.routing", "verifier_cascade", "routing.verifier_cascade"),
    ("cotbudget.routing", "budget_route", "routing.budget_route"),
    ("cotbudget.routing", "compare_to_frontier", "routing.compare_to_frontier"),
    ("cotbudget.collect", "load_questions", "collect.load_questions"),
    ("cotbudget.collect", "sweep", "collect.sweep"),
    ("cotbudget.collect", "existing_cells", "collect.existing_cells"),
    ("cotbudget.collect", "_post_with_retries", "collect.post"),
    ("cotbudget.collect", "grade", "collect.grade"),
    ("cotbudget.collect", "render", "prompts.render"),
    ("cotbudget.collect", "JsonlWriter.write", "collect.jsonl_write"),
)


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every call in PROGRAM_CALLS; returns the ones the program lacks."""
    missing = []
    for module_name, path, span_name in PROGRAM_CALLS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        if owner is None or not tracer.wrap(owner, attr, span_name):
            missing.append(f"{module_name}.{path}")
    if missing:
        print("perfbench: no span for " + ", ".join(missing), file=sys.stderr)
    return missing
