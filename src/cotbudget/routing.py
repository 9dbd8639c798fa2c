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
from functools import cached_property
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .bounds import FrontierCurve
from .errors import CotBudgetError, CoverageError
from .inputs import TOKENS_MAX
from .records import RunMatrix

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class RoutingOutcome:
    """What a policy did on each question, with its accuracy and mean spend.

    Position i of ``spent`` (int64 tokens) and ``correct`` (bool) belongs to
    the matrix's i-th question. Its prompt path is ``path(i)``, entry
    ``path_index[i]`` of ``paths``: the paths the policy can take, one per
    prefix of a cascade's chain or per member of a budget family.
    """

    policy_id: str
    spent: np.ndarray
    correct: np.ndarray
    paths: tuple[tuple[str, ...], ...]
    path_index: np.ndarray

    def path(self, i: int) -> tuple[str, ...]:
        return self.paths[self.path_index[i]]

    @cached_property
    def accuracy(self) -> Fraction:
        return Fraction(int(np.count_nonzero(self.correct)), len(self.correct))

    @cached_property
    def avg_tokens(self) -> Fraction:
        return Fraction(sum(self.spent.tolist()), len(self.spent))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingOutcome):
            return NotImplemented
        return (
            self.policy_id == other.policy_id
            and np.array_equal(self.spent, other.spent)
            and np.array_equal(self.correct, other.correct)
            and all(self.path(i) == other.path(i) for i in range(len(self.spent)))
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
    A prompt named twice is a ValueError: its second stage would replay the
    recorded cell that already failed, and charge it again.

    Whole-column replay: a question halts at its first cell that is solved
    or absent (argmax over the chain), and spends the running token total
    up to that cell. A total above 2**63 - 1 is a data error naming the
    question: the int64 running total wraps there, and the first wrap of a
    sum of non-negative counts turns it negative.
    """
    if not prompts:
        raise ValueError("prompts must be non-empty")
    repeat = next((p for i, p in enumerate(prompts) if p in prompts[:i]), None)
    if repeat is not None:
        raise ValueError(f"the cascade names prompt {repeat!r} twice")
    tokens, correct, present = _columns(matrix, prompts)
    halts = ~present | correct
    halted = halts.any(axis=1)
    stop = np.where(halted, np.argmax(halts, axis=1), len(prompts) - 1)
    rows = np.arange(matrix.n_questions)
    reached_absent = ~present[rows, stop]
    if reached_absent.any():
        i = int(np.argmax(reached_absent))
        raise _coverage_error(matrix, i, prompts[stop[i]])
    running = np.cumsum(tokens, axis=1)
    wrapped = ((running < 0) & (np.arange(len(prompts)) <= stop[:, None])).any(axis=1)
    if wrapped.any():
        i = int(np.argmax(wrapped))
        raise CotBudgetError(
            f"question {matrix.question_ids[i]!r} spends {sum(tokens[i, : stop[i] + 1].tolist())} "
            f"tokens, above the signed 64-bit limit {TOKENS_MAX}"
        )
    spent = running[rows, stop]
    chains = tuple(tuple(prompts[: s + 1]) for s in range(len(prompts)))
    return RoutingOutcome("verifier(" + "->".join(prompts) + ")", spent, halted, chains, stop)


def budget_route(
    matrix: RunMatrix, budgets: Mapping[str, int], family: Sequence[str]
) -> RoutingOutcome:
    """Pick, per question, the family prompt with the longest recorded run within budget.

    Budgets are ints of any size. Falls back to the family's shortest
    recorded run when nothing fits (and when a question has no budget
    entry). Ties go to the first prompt in family order. Budget keys naming
    unknown questions are ignored with a logged warning count. Every family
    cell must be present.

    Whole-column replay: argmax over the fitting runs (argmin over all runs
    for the fallback) picks one column per question.
    """
    if not family:
        raise ValueError("family must be non-empty")
    tokens, correct, present = _columns(matrix, family)
    unknown = len(budgets) - sum(1 for q in matrix.question_ids if q in budgets)
    if unknown:
        log.warning("budget_route: ignored %d budget(s) for unknown questions", unknown)
    if not present.all():
        i, j = np.argwhere(~present)[0]
        raise _coverage_error(matrix, int(i), family[j])
    # Every length is in [0, TOKENS_MAX], so clamping a budget (a Python int,
    # exact) into [-1, TOKENS_MAX] changes no comparison and keeps the column int64.
    wanted = np.array(list(map(budgets.get, matrix.question_ids, repeat(0))), dtype=object)
    budget = np.clip(wanted, -1, TOKENS_MAX).astype(np.int64)
    fits = tokens <= budget.reshape(-1, 1)
    choice = np.where(
        fits.any(axis=1),
        np.argmax(np.where(fits, tokens, -1), axis=1),
        np.argmin(tokens, axis=1),
    )
    rows = np.arange(matrix.n_questions)
    picks = tuple((p,) for p in family)
    policy_id = "budget(" + "->".join(family) + ")"
    return RoutingOutcome(policy_id, tokens[rows, choice], correct[rows, choice], picks, choice)


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
