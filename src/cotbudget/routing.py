"""Replay of adaptive prompting policies over recorded runs.

Policies never call a model: they re-read recorded cells, so any budget
predictor or verifier construction can be scored offline against the same
data that produced the frontier. Each policy replays whole columns of the
run matrix at once: it gathers its prompts' columns and picks one cell (or
a prefix of cells) per question with argmax/argmin over them.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .bounds import FrontierCurve
from .errors import CoverageError
from .records import RunMatrix

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuestionRoute:
    """What one policy did on one question."""

    question_id: str
    tokens_spent: int
    correct: bool
    path: tuple[str, ...]


@dataclass(frozen=True)
class RoutingOutcome:
    """Aggregate accuracy and spend of a policy, with its per-question trace."""

    policy_id: str
    accuracy: Fraction
    avg_tokens: Fraction
    per_question: tuple[QuestionRoute, ...]


def _outcome(
    policy_id: str,
    matrix: RunMatrix,
    spent: np.ndarray,
    correct: np.ndarray,
    paths: list[tuple[str, ...]],
) -> RoutingOutcome:
    """Outcome from per-question spend, correctness and path, in matrix order."""
    n = matrix.n_questions
    spent_list = spent.tolist()
    return RoutingOutcome(
        policy_id=policy_id,
        accuracy=Fraction(int(np.count_nonzero(correct)), n),
        avg_tokens=Fraction(sum(spent_list), n),
        per_question=tuple(
            map(QuestionRoute, matrix.question_ids, spent_list, correct.tolist(), paths)
        ),
    )


def _columns(
    matrix: RunMatrix, prompts: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tokens, correct, present) of the given prompts' columns, in that order."""
    cols = [matrix.prompt_index(p) for p in prompts]
    return matrix.tokens[:, cols], matrix.correct[:, cols], matrix.present[:, cols]


def _coverage_error(matrix: RunMatrix, i: int, prompt_id: str) -> CoverageError:
    return CoverageError(
        f"no recorded run for question {matrix.question_ids[i]!r} under prompt {prompt_id!r}"
    )


def verifier_cascade(matrix: RunMatrix, prompts: Sequence[str]) -> RoutingOutcome:
    """Run prompts in order per question, stopping at the first verified-correct answer.

    The verifier is assumed perfect: an incorrect answer is always flagged
    and the next prompt in the chain is charged. Tokens accumulate across
    every prompt actually run. Only cells the cascade reaches must be
    present; an absent cell after a question's stopping prompt is never read.

    Whole-column replay: a question halts at its first cell that is solved
    or absent (argmax over the chain), and spends the running token total
    up to that cell.
    """
    if not prompts:
        raise ValueError("prompts must be non-empty")
    tokens, correct, present = _columns(matrix, prompts)
    halts = ~present | correct
    halted = halts.any(axis=1)
    stop = np.where(halted, np.argmax(halts, axis=1), len(prompts) - 1)
    rows = np.arange(matrix.n_questions)
    reached_absent = ~present[rows, stop]
    if reached_absent.any():
        i = int(np.argmax(reached_absent))
        raise _coverage_error(matrix, i, prompts[stop[i]])
    spent = np.cumsum(tokens, axis=1)[rows, stop]
    chains = [tuple(prompts[: s + 1]) for s in range(len(prompts))]
    return _outcome(
        "verifier(" + "->".join(prompts) + ")",
        matrix,
        spent,
        halted,
        [chains[s] for s in stop.tolist()],
    )


def verifier_route(
    matrix: RunMatrix, base_prompt: str, fallback_prompt: str
) -> RoutingOutcome:
    """Two-stage verifier policy: cheap base prompt, fallback only on failure."""
    return verifier_cascade(matrix, [base_prompt, fallback_prompt])


def budget_route(
    matrix: RunMatrix, budgets: Mapping[str, int], family: Sequence[str]
) -> RoutingOutcome:
    """Pick, per question, the family prompt with the longest recorded run within budget.

    Falls back to the family's shortest recorded run when nothing fits (and
    when a question has no budget entry). Ties go to the first prompt in
    family order. Budget keys naming unknown questions are ignored with a
    logged warning count. Every family cell must be present.

    Whole-column replay: argmax over the fitting runs (argmin over all runs
    for the fallback) picks one column per question.
    """
    if not family:
        raise ValueError("family must be non-empty")
    tokens, correct, present = _columns(matrix, family)
    unknown = sum(1 for q in budgets if q not in matrix.question_pos)
    if unknown:
        log.warning("budget_route: ignored %d budget(s) for unknown questions", unknown)
    if not present.all():
        i, j = np.argwhere(~present)[0]
        raise _coverage_error(matrix, int(i), family[j])
    budget = np.array([budgets.get(q, 0) for q in matrix.question_ids])
    fits = tokens <= budget.reshape(-1, 1)
    choice = np.where(
        fits.any(axis=1),
        np.argmax(np.where(fits, tokens, -1), axis=1),
        np.argmin(tokens, axis=1),
    )
    rows = np.arange(matrix.n_questions)
    picks = [(p,) for p in family]
    return _outcome(
        "budget(" + "->".join(family) + ")",
        matrix,
        tokens[rows, choice],
        correct[rows, choice],
        [picks[c] for c in choice.tolist()],
    )


def compare_to_frontier(
    outcomes: Sequence[RoutingOutcome], curve: FrontierCurve
) -> list[tuple[str, Fraction]]:
    """Vertical distance of each policy below the oracle curve at its average spend.

    The curve must come from the same (model, dataset) run set the outcomes
    were replayed on; curves carry no identity, so this is on the caller.
    A negative gap means the recorded data beat the threshold-model oracle,
    i.e. the hypothesis is violated somewhere.
    """
    return [(o.policy_id, curve.alpha_at(o.avg_tokens) - o.accuracy) for o in outcomes]
