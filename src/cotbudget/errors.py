"""Exception hierarchy shared across the package.

Argument-level misuse (wrong sizes, empty inputs, bad flag combinations)
raises plain ValueError; everything data- or domain-shaped derives from
CotBudgetError so callers can treat "bad data" uniformly. A line of an input
file that cannot be read is also a ValueError, as the json module's own
errors are, so a caller that caught ValueError from a loader still does.
"""
from __future__ import annotations

from os import PathLike


class CotBudgetError(Exception):
    """Base class for data and domain errors raised by cotbudget."""


def utf8_bytes(path: str | PathLike[str], text: str) -> bytes:
    """text as UTF-8, or a CotBudgetError naming path and the first character UTF-8 cannot encode."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CotBudgetError(
            f"{path}: cannot write {exc.object[exc.start]!r} as UTF-8 ({exc.reason})"
        ) from exc


class _InputError(CotBudgetError, ValueError):
    """An input that cannot be read. The message starts with ``path:line_no: ``
    when both are given, and with ``path: `` for a whole file or a whole-file
    JSON input, whose reason names the location; without a path it is the reason.
    """

    def __init__(self, reason: str, path: str | None = None, line_no: int | None = None) -> None:
        where = path if line_no is None else f"{path}:{line_no}"
        super().__init__(reason if path is None else f"{where}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class RecordParseError(_InputError):
    """A JSONL line is not UTF-8 or could not be parsed as JSON; line_no is None for a whole file."""


class RecordSchemaError(_InputError):
    """A record is missing a required field or carries an invalid value."""


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
