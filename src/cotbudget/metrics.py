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
from .records import RunMatrix, _positions


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


def _check_same_run_set(matrix: RunMatrix, profile: ComplexityProfile) -> np.ndarray:
    """The profile's tau (-1 = infinite) of each matrix question, looked up by id.

    A profile estimated from this matrix lists the same ids in the same
    order, so its tau column is returned as it is.
    """
    if (matrix.model, matrix.dataset) != (profile.model, profile.dataset):
        raise ConsistencyError(
            f"matrix is ({matrix.model!r}, {matrix.dataset!r}) but profile is "
            f"({profile.model!r}, {profile.dataset!r})"
        )
    if profile.question_ids == matrix.question_ids:
        return profile.tau
    row_of = _positions(profile.question_ids)
    missing = [q for q in matrix.question_ids if q not in row_of]
    if missing:
        raise ConsistencyError("profile lacks question(s): " + ", ".join(missing[:5]))
    return profile.tau[[row_of[q] for q in matrix.question_ids]]


def prompt_table(matrix: RunMatrix, profile: ComplexityProfile) -> list[PromptResult]:
    """One row per prompt: accuracy, mean token length, and predicted accuracy.

    Predicted accuracy counts present cells whose length reaches the
    question's estimated complexity; infinite complexity predicts incorrect.
    """
    tau = _check_same_run_set(matrix, profile)[:, None]
    present = matrix.present
    counts = np.count_nonzero(present, axis=0)
    if not counts.all():
        pid = matrix.prompt_ids[int(np.argmin(counts))]
        raise CoverageError(f"prompt {pid!r} has no present cells")
    hits = np.count_nonzero(present & matrix.correct, axis=0)
    predicted = np.count_nonzero(present & (tau >= 0) & (matrix.tokens >= tau), axis=0)
    totals = _column_sums(matrix.tokens, present)
    return [
        PromptResult(pid, Fraction(hit, n), Fraction(total, n), Fraction(pred, n), n)
        for pid, hit, total, pred, n in zip(
            matrix.prompt_ids, hits.tolist(), totals, predicted.tolist(), counts.tolist()
        )
    ]


def _column_sums(tokens: np.ndarray, cells: np.ndarray) -> list[int]:
    """Exact column sums of the non-negative int64 counts in cells, as Python ints.

    The high and low 32-bit halves are summed apart, each exact as int64
    for under 2**31 rows, and joined, so no total wraps.
    """
    high = (tokens >> 32).sum(axis=0, where=cells).tolist()
    low = (tokens & 0xFFFFFFFF).sum(axis=0, where=cells).tolist()
    return [(h << 32) + l for h, l in zip(high, low)]


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

    Integers are ranked as they are, so counts above 2**53 stay apart;
    other values as floats. One argsort orders the values (its order
    within a tie does not matter), and _sorted_midranks ranks each run of
    equal values. NaN equals nothing and sorts last, so each NaN gets a
    rank of its own after every number, in input order.
    """
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        a = a.astype(float)
    nan = np.isnan(a) if a.dtype.kind == "f" else np.zeros(a.size, dtype=bool)
    numbers = np.argsort(a)[: a.size - int(np.count_nonzero(nan))]
    ranks = np.empty(a.size, dtype=float)
    ranks[numbers] = _sorted_midranks(a[numbers])
    ranks[nan] = np.arange(numbers.size + 1, a.size + 1)
    return ranks


def _sorted_midranks(ordered: np.ndarray) -> np.ndarray:
    """Midranks of ascending, NaN-free values, in that order.

    A run of equal values starting at 0-based position first with length
    count holds ranks first + 1 .. first + count, whose mean
    first + (count + 1) / 2 is an exact half-integer.
    """
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    count = np.diff(first, append=ordered.size)
    return np.repeat(first + (count + 1) / 2, count)


def _rank_correlation(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of two rank vectors, which it centres in place."""
    rx -= rx.mean()
    ry -= ry.mean()
    sxx = float(np.dot(rx, rx))
    syy = float(np.dot(ry, ry))
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("an input has zero rank variance")
    return float(np.dot(rx, ry)) / math.sqrt(sxx * syy)


def spearman(lengths: Sequence[float], complexities: Sequence[float]) -> float:
    """Spearman rho with midrank ties: the Pearson correlation of rank vectors."""
    x = np.asarray(lengths)
    y = np.asarray(complexities)
    if x.size == 0 or x.shape != y.shape:
        raise ValueError("inputs must be equal-size, non-empty sequences")
    return _rank_correlation(midranks(x), midranks(y))


def complexity_correlations(
    matrix: RunMatrix, profile: ComplexityProfile
) -> list[tuple[str, float, int]]:
    """(prompt_id, spearman rho, pair count) per prompt.

    Pairs token lengths with finite complexities over present cells only;
    rho is NaN when fewer than two pairs exist or ranks are degenerate.
    The complexities are sorted once: a prompt's pairs keep that order
    when the questions it lacks are dropped, so their ranks need no sort
    of their own. The ranks, and so rho, are those spearman computes.
    """
    tau = _check_same_run_set(matrix, profile)
    finite = tau >= 0
    by_tau = np.argsort(tau)
    tau_ranks = np.empty(tau.size, dtype=float)
    out: list[tuple[str, float, int]] = []
    for j, pid in enumerate(matrix.prompt_ids):
        mask = matrix.present[:, j] & finite
        n = int(np.count_nonzero(mask))
        if n < 2:
            out.append((pid, float("nan"), n))
            continue
        rows = by_tau[mask[by_tau]]
        tau_ranks[rows] = _sorted_midranks(tau[rows])
        try:
            rho = _rank_correlation(midranks(matrix.tokens[:, j][mask]), tau_ranks[mask])
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
    split = matrix.present[:, s : s + 1]
    sides = []
    for group in (split & matrix.correct[:, s : s + 1], split & ~matrix.correct[:, s : s + 1]):
        cells = group & matrix.present
        counts = np.count_nonzero(cells, axis=0).tolist()
        totals = _column_sums(matrix.tokens, cells)
        sides.append([Fraction(t, c) if c else None for t, c in zip(totals, counts)])
    return {
        pid: (easy, hard)
        for j, (pid, easy, hard) in enumerate(zip(matrix.prompt_ids, *sides))
        if j != s
    }
