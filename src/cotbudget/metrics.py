"""Per-prompt benchmark metrics, hypothesis validation, and rank correlation."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .complexity import ComplexityProfile
from .errors import (
    ConsistencyError,
    CoverageError,
    UndefinedCorrelationError,
    ZeroAccuracyError,
)
from .records import RunMatrix


@dataclass(frozen=True)
class PromptResult:
    """Actual and threshold-predicted performance of one prompt."""

    prompt_id: str
    accuracy: Fraction
    avg_tokens: Fraction
    predicted_accuracy: Fraction
    n_questions: int


@dataclass(frozen=True)
class ValidationReport:
    """Per-prompt results plus the mean relative prediction discrepancy."""

    per_prompt: tuple[PromptResult, ...]
    err: Fraction
    c_bar: Fraction


def _check_same_run_set(matrix: RunMatrix, profile: ComplexityProfile) -> dict[str, float]:
    if (matrix.model, matrix.dataset) != (profile.model, profile.dataset):
        raise ConsistencyError(
            f"matrix is ({matrix.model!r}, {matrix.dataset!r}) but profile is "
            f"({profile.model!r}, {profile.dataset!r})"
        )
    taus = profile.tau_by_question()
    missing = [q for q in matrix.question_ids if q not in taus]
    if missing:
        raise ConsistencyError("profile lacks question(s): " + ", ".join(missing[:5]))
    return taus


def prompt_table(matrix: RunMatrix, profile: ComplexityProfile) -> list[PromptResult]:
    """One row per prompt: accuracy, mean token length, and predicted accuracy.

    Predicted accuracy counts present cells whose length reaches the
    question's estimated complexity; infinite complexity predicts incorrect.
    """
    taus = _check_same_run_set(matrix, profile)
    tau_row = np.array([taus[q] for q in matrix.question_ids], dtype=float)
    results: list[PromptResult] = []
    for j, pid in enumerate(matrix.prompt_ids):
        mask = matrix.present[:, j]
        count = int(np.count_nonzero(mask))
        if count == 0:
            raise CoverageError(f"prompt {pid!r} has no present cells")
        lengths = matrix.tokens[mask, j]
        predicted = int(np.count_nonzero(lengths >= tau_row[mask]))
        results.append(
            PromptResult(
                prompt_id=pid,
                accuracy=Fraction(int(np.count_nonzero(matrix.correct[mask, j])), count),
                avg_tokens=Fraction(int(lengths.sum()), count),
                predicted_accuracy=Fraction(predicted, count),
                n_questions=count,
            )
        )
    return results


def err_score(results: Sequence[PromptResult]) -> Fraction:
    """Mean over prompts of |accuracy - predicted| / accuracy."""
    if not results:
        raise ValueError("results must be non-empty")
    zero = [r.prompt_id for r in results if r.accuracy == 0]
    if zero:
        raise ZeroAccuracyError(zero)
    total = sum(
        (abs(r.accuracy - r.predicted_accuracy) / r.accuracy for r in results),
        Fraction(0),
    )
    return total / len(results)


def validation_report(matrix: RunMatrix, profile: ComplexityProfile) -> ValidationReport:
    """Full per-prompt table plus the discrepancy score.

    Zero-accuracy prompts stay in the table but are excluded from the Err
    mean (the relative discrepancy is undefined for them).
    """
    results = prompt_table(matrix, profile)
    scorable = [r for r in results if r.accuracy > 0]
    return ValidationReport(
        per_prompt=tuple(results), err=err_score(scorable), c_bar=profile.c_bar
    )


def midranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their positions.

    NaN equals nothing, so each NaN gets a rank of its own after every
    number, in input order.
    """
    a = np.asarray(values, dtype=float)
    # return_index makes np.unique sort stably, which orders the NaNs.
    _, _, inverse, counts = np.unique(
        a, return_index=True, return_inverse=True, return_counts=True, equal_nan=False
    )
    first = np.cumsum(counts) - counts
    return ((2 * first + counts - 1) / 2 + 1)[inverse]


def spearman(lengths: Sequence[float], complexities: Sequence[float]) -> float:
    """Spearman rho with midrank ties: the Pearson correlation of rank vectors."""
    x = np.asarray(lengths, dtype=float)
    y = np.asarray(complexities, dtype=float)
    if x.size == 0 or x.shape != y.shape:
        raise ValueError("inputs must be equal-size, non-empty sequences")
    rx = midranks(x)
    ry = midranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    sxx = float(np.dot(rx, rx))
    syy = float(np.dot(ry, ry))
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("an input has zero rank variance")
    return float(np.dot(rx, ry)) / math.sqrt(sxx * syy)


def complexity_correlations(
    matrix: RunMatrix, profile: ComplexityProfile
) -> list[tuple[str, float, int]]:
    """(prompt_id, spearman rho, pair count) per prompt.

    Pairs token lengths with finite complexities over present cells only;
    rho is NaN when fewer than two pairs exist or ranks are degenerate.
    """
    taus = _check_same_run_set(matrix, profile)
    finite = np.array([math.isfinite(taus[q]) for q in matrix.question_ids])
    tau_row = np.array([taus[q] if math.isfinite(taus[q]) else 0.0 for q in matrix.question_ids])
    out: list[tuple[str, float, int]] = []
    for j, pid in enumerate(matrix.prompt_ids):
        mask = matrix.present[:, j] & finite
        n = int(np.count_nonzero(mask))
        if n < 2:
            out.append((pid, float("nan"), n))
            continue
        try:
            rho = spearman(matrix.tokens[mask, j], tau_row[mask])
        except UndefinedCorrelationError:
            rho = float("nan")
        out.append((pid, rho, n))
    return out


def adaptivity_split(
    matrix: RunMatrix, split_prompt: str
) -> dict[str, tuple[Fraction | None, Fraction | None]]:
    """Mean token length per prompt over questions the split prompt did and did not solve.

    Returns prompt_id -> (easy mean, hard mean) in matrix prompt order,
    excluding the split prompt; a side with no cells is None, never zero.
    """
    s = matrix.prompt_index(split_prompt)
    solved = matrix.present[:, s] & matrix.correct[:, s]
    unsolved = matrix.present[:, s] & ~matrix.correct[:, s]
    out: dict[str, tuple[Fraction | None, Fraction | None]] = {}
    for j, pid in enumerate(matrix.prompt_ids):
        if j == s:
            continue
        sides: list[Fraction | None] = []
        for group in (solved, unsolved):
            mask = group & matrix.present[:, j]
            count = int(np.count_nonzero(mask))
            sides.append(
                Fraction(int(matrix.tokens[mask, j].sum()), count) if count else None
            )
        out[pid] = (sides[0], sides[1])
    return out
