"""Exception hierarchy shared across the package.

Argument-level misuse (wrong sizes, empty inputs, bad flag combinations)
raises plain ValueError; everything data- or domain-shaped derives from
CotBudgetError so callers can treat "bad data" uniformly. A line of an input
file that cannot be read is also a ValueError, as the json module's own
errors are, so a caller that caught ValueError from a loader still does.
"""
from __future__ import annotations


class CotBudgetError(Exception):
    """Base class for data and domain errors raised by cotbudget."""


class RecordParseError(CotBudgetError, ValueError):
    """A JSONL line is not UTF-8 or could not be parsed as JSON."""

    def __init__(self, path: str, line_no: int, reason: str) -> None:
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class RecordSchemaError(CotBudgetError, ValueError):
    """A record is missing a required field or carries an invalid value."""

    def __init__(self, reason: str, path: str | None = None, line_no: int | None = None) -> None:
        prefix = f"{path}:{line_no}: " if path is not None and line_no is not None else ""
        super().__init__(prefix + reason)
        self.path = path
        self.line_no = line_no
        self.reason = reason


class DuplicateRecordError(CotBudgetError):
    """Two records share the same (model, dataset, question_id, prompt_id)."""

    def __init__(self, key: tuple[str, str, str, str], detail: str = "") -> None:
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"duplicate record key {key!r}{suffix}")
        self.key = key


class EmptySelectionError(CotBudgetError):
    """A (model, dataset) filter matched no records."""


class CoverageError(CotBudgetError):
    """An operation needs cells that are absent from the run matrix."""


class ConsistencyError(CotBudgetError):
    """Two inputs that must describe the same (model, dataset) run set do not."""


class InfeasibleAccuracyError(CotBudgetError):
    """A target accuracy exceeds the maximum attainable accuracy A*."""

    def __init__(self, alpha, a_star) -> None:
        super().__init__(
            f"target accuracy {float(alpha):.6f} exceeds the maximum attainable "
            f"accuracy A* = {float(a_star):.6f}"
        )
        self.alpha = alpha
        self.a_star = a_star


class UndefinedCorrelationError(CotBudgetError):
    """Rank correlation is undefined because one side has zero rank variance."""


class ZeroAccuracyError(CotBudgetError):
    """The relative-discrepancy score divides by a zero actual accuracy."""

    def __init__(self, prompt_ids: list[str]) -> None:
        super().__init__(
            "relative discrepancy undefined for prompts with zero accuracy: "
            + ", ".join(prompt_ids)
        )
        self.prompt_ids = tuple(prompt_ids)


class GenerationError(CotBudgetError):
    """A synthetic matrix could not satisfy its construction guarantees."""


class EndpointError(CotBudgetError):
    """The collection endpoint was unreachable or rejected every request."""
