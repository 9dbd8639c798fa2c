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

# midranks ranks non-negative integers by counting while none exceeds this
# many times the number of values.
COUNTING_FACTOR = 4


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
    row_of = {q: row for row, q in enumerate(profile.question_ids)}  # ids never repeat
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
    hits = np.count_nonzero(matrix.correct, axis=0)
    predicted = np.count_nonzero(present & (tau >= 0) & (matrix.tokens >= tau), axis=0)
    totals = _column_sums(matrix.tokens)
    return [
        PromptResult(pid, Fraction(hit, n), Fraction(total, n), Fraction(pred, n), n)
        for pid, hit, total, pred, n in zip(
            matrix.prompt_ids, hits.tolist(), totals, predicted.tolist(), counts.tolist()
        )
    ]


def _column_sums(tokens: np.ndarray) -> list[int]:
    """Exact column sums of non-negative int64 counts, as Python ints.

    An absent cell of a RunMatrix holds 0 tokens, so the sums of its token
    rows are those of their present cells. Each count is read as its low
    and high unsigned 32-bit halves (a little-endian view, no copy of a
    C-ordered matrix, as RunMatrix holds), which are summed apart, each
    exact as int64 for under 2**31 rows, and joined, so no total wraps, also
    past 2**63. That holds for every int64 count, so there is one path and
    nothing to select. numpy's reduction into int64 is buffered, so the
    whole matrix is summed at once without an n x K temporary.
    """
    tokens = np.ascontiguousarray(tokens, dtype="<i8")
    halves = tokens.view("<u4").reshape(*tokens.shape, 2).sum(axis=0, dtype=np.int64)
    return [(h << 32) + l for l, h in halves.tolist()]


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
    mean (the relative discrepancy is undefined for them). When no prompt
    has a correct cell, it raises a ZeroAccuracyError naming every prompt.
    """
    results = prompt_table(matrix, profile)
    scorable = [r for r in results if r.accuracy > 0]
    return ValidationReport(
        # err_score of all-zero results is the ZeroAccuracyError naming them
        per_prompt=tuple(results), err=err_score(scorable or results), c_bar=profile.c_bar
    )


def midranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks with ties assigned the mean of their positions.

    A run of equal values holding 0-based sorted positions first ..
    first + count - 1 gets the exact half-integer first + (count + 1) / 2.
    Non-negative integers no larger than COUNTING_FACTOR times their number
    are ranked by counting: with counts[v] copies of v and below[v] values
    less than v, the copies of v get below[v] + (counts[v] + 1) / 2, in
    time and memory linear in the number of values. Every other input is
    ranked by one argsort (its order within a tie does not matter), which
    finds the runs of equal values: integers as they are, so counts above
    2**53 stay apart, and other values as floats. NaN equals nothing and
    sorts last, so each NaN gets a rank of its own after every number, in
    input order. Both kernels give the same ranks.
    """
    a = np.asarray(values)
    if a.dtype.kind in "iu" and a.size and a.min() >= 0 and a.max() <= COUNTING_FACTOR * a.size:
        small = a.astype(np.intp, copy=False)
        counts = np.bincount(small)
        below = np.cumsum(counts) - counts
        return (below + (counts + 1) / 2)[small]
    if a.dtype.kind not in "iu":
        a = a.astype(float)
    nan = np.isnan(a) if a.dtype.kind == "f" else np.zeros(a.size, dtype=bool)
    numbers = np.argsort(a)[: a.size - int(np.count_nonzero(nan))]
    ordered = a[numbers]
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    count = np.diff(first, append=ordered.size)
    ranks = np.empty(a.size, dtype=float)
    ranks[numbers] = np.repeat(first + (count + 1) / 2, count)
    ranks[nan] = np.arange(numbers.size + 1, a.size + 1)
    return ranks


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

    Each side is ranked by midranks, which spearman also uses, so rho is
    the spearman of the prompt's pairs, in row order.
    """
    tau = _check_same_run_set(matrix, profile)
    finite = tau >= 0
    out: list[tuple[str, float, int]] = []
    for j, pid in enumerate(matrix.prompt_ids):
        mask = matrix.present[:, j] & finite
        n = int(np.count_nonzero(mask))
        if n < 2:
            out.append((pid, float("nan"), n))
            continue
        try:
            rho = _rank_correlation(midranks(matrix.tokens[:, j][mask]), midranks(tau[mask]))
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
    Easy is a correct split cell (so a present one), hard a present, incorrect one.
    """
    s = matrix.prompt_index(split_prompt)
    solved = matrix.correct[:, s]
    sides = []
    for rows in (solved, matrix.present[:, s] & ~solved):
        counts = np.count_nonzero(matrix.present[rows], axis=0).tolist()
        totals = _column_sums(matrix.tokens[rows])
        sides.append([Fraction(t, c) if c else None for t, c in zip(totals, counts)])
    return {
        pid: (easy, hard)
        for j, (pid, easy, hard) in enumerate(zip(matrix.prompt_ids, *sides))
        if j != s
    }
