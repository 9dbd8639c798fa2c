"""Per-question token-complexity estimation via optimal threshold classifiers.

A threshold classifier predicts a run correct iff its token length reaches
the threshold. The complexity estimate for a question is the threshold, drawn
from the observed lengths plus infinity, that classifies its runs best; the
infinite threshold (predict everything incorrect) models unsolvable
questions.

One integer kernel, _best_thresholds, scores every candidate threshold of
many questions at once from a row sort and a cumulative count of correct
runs; profile runs it over blocks of rows of the whole run matrix. The
profile keeps the result as columns: one int64 tau per question (-1 for
infinite), the runs used, and exact Fraction classifier accuracies.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import CoverageError, RecordSchemaError
from .records import NON_EMPTY_STRING, NULL_OR_TOKENS, TOKENS_MAX, RunMatrix, checked, read_json

INFINITE = math.inf

# Questions per _best_thresholds call in profile. It bounds the kernel's
# temporaries (a few arrays of BLOCK_ROWS x (K + 1) int64) whatever n is.
BLOCK_ROWS = 2048


def is_finite(tau: float) -> bool:
    return not math.isinf(tau)


@dataclass(frozen=True)
class QuestionComplexity:
    """Estimated threshold and classifier quality for one question."""

    question_id: str
    tau_hat: float  # integer-valued, or INFINITE
    c_star: Fraction
    k_used: int

    @property
    def finite(self) -> bool:
        return is_finite(self.tau_hat)


@dataclass(frozen=True, eq=False)
class ComplexityProfile:
    """Per-question complexities and their aggregates for one (model, dataset).

    Position i of the tuples and of the read-only int64 arrays belongs to
    question_ids[i]; tau is -1 where the complexity is infinite.
    """

    model: str
    dataset: str
    question_ids: tuple[str, ...]
    tau: np.ndarray
    k_used: np.ndarray
    c_star: tuple[Fraction, ...]
    c_bar: Fraction

    def __post_init__(self) -> None:
        for name in ("tau", "k_used"):
            column = np.array(getattr(self, name), dtype=np.int64)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "question_ids", tuple(self.question_ids))
        object.__setattr__(self, "c_star", tuple(self.c_star))
        if not len(self.question_ids) == self.tau.size == self.k_used.size == len(self.c_star):
            raise ValueError("every column must hold one value per question")

    @property
    def n_questions(self) -> int:
        return len(self.question_ids)

    @cached_property
    def entries(self) -> tuple[QuestionComplexity, ...]:
        """One QuestionComplexity per question, built on first use."""
        columns = zip(self.question_ids, self.tau.tolist(), self.c_star, self.k_used.tolist())
        return tuple(
            QuestionComplexity(q, INFINITE if t < 0 else t, c, k) for q, t, c, k in columns
        )

    @cached_property
    def sorted_finite_taus(self) -> tuple[int, ...]:
        """Finite complexity estimates, ascending, as Python ints."""
        return tuple(np.sort(self.tau[self.tau >= 0]).tolist())

    @cached_property
    def tau_prefix_sums(self) -> tuple[int, ...]:
        """Running totals of sorted_finite_taus: entry m - 1 is the cost of the m cheapest.

        Python ints, so no total wraps as an int64 sum would.
        """
        return tuple(accumulate(self.sorted_finite_taus))

    @property
    def a_star(self) -> Fraction:
        """A*: the share of questions with a finite complexity."""
        return Fraction(len(self.tau_prefix_sums), self.n_questions)

    @property
    def tau_bar_over_n(self) -> Fraction:
        """Total finite complexity over all n questions, which is T*(A*)."""
        prefix = self.tau_prefix_sums
        return Fraction(prefix[-1] if prefix else 0, self.n_questions)

    @property
    def tau_bar_finite_mean(self) -> Fraction:
        """Mean finite complexity; zero when every complexity is infinite."""
        return self.tau_bar_over_n / self.a_star if self.tau_prefix_sums else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexityProfile):
            return NotImplemented
        return (
            (self.model, self.dataset, self.question_ids, self.c_star, self.c_bar)
            == (other.model, other.dataset, other.question_ids, other.c_star, other.c_bar)
            and np.array_equal(self.tau, other.tau)
            and np.array_equal(self.k_used, other.k_used)
        )

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "dataset": self.dataset,
            "entries": [
                {
                    "question_id": q,
                    "tau": t if t >= 0 else None,
                    "c_star": round(float(c), 6),
                    "k_used": k,
                }
                for q, t, c, k in zip(
                    self.question_ids, self.tau.tolist(), self.c_star, self.k_used.tolist()
                )
            ],
            "c_bar": round(float(self.c_bar), 6),
            "a_star": round(float(self.a_star), 6),
            "tau_bar_over_n": round(float(self.tau_bar_over_n), 6),
            "tau_bar_finite_mean": round(float(self.tau_bar_finite_mean), 6),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> ComplexityProfile:
        """Rebuild a profile from its file form, checking every field it reads.

        c_bar is the mean of the stored (rounded) c_star values. The stored
        aggregates are not read: the tau ones follow exactly from the taus.
        A bad value is a RecordSchemaError naming its JSON location, such as
        ``entries[3].tau``.
        """
        if type(obj) is not dict:
            raise RecordSchemaError(f"the file must hold a JSON object, got {type(obj).__name__}")
        model = checked(obj, "model", "", NON_EMPTY_STRING)
        dataset = checked(obj, "dataset", "", NON_EMPTY_STRING)
        entries = checked(obj, "entries", "", _NON_EMPTY_LIST)
        first: dict[str, int] = {}
        tau, k_used, c_star = [], [], []
        for i, entry in enumerate(entries):
            where = f"entries[{i}]"
            if type(entry) is not dict:
                raise RecordSchemaError(f"{where} must be an object, got {entry!r}")
            qid = checked(entry, "question_id", where, NON_EMPTY_STRING)
            if first.setdefault(qid, i) != i:
                raise RecordSchemaError(f"{where}.question_id {qid!r} repeats entries[{first[qid]}]")
            t = checked(entry, "tau", where, NULL_OR_TOKENS)
            tau.append(-1 if t is None else t)
            k_used.append(checked(entry, "k_used", where, _K_USED))
            c_star.append(Fraction(str(checked(entry, "c_star", where, _C_STAR))))
        c_bar = sum(c_star, Fraction(0)) / len(c_star)
        return cls(model, dataset, tuple(first), tau, k_used, c_star, c_bar)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> ComplexityProfile:
        """Read a file written by save; bad content is a RecordParseError or RecordSchemaError."""
        obj = read_json(path)
        try:
            return cls.from_json_dict(obj)
        except RecordSchemaError as exc:
            raise RecordSchemaError(exc.reason, path=str(path)) from None


# The complexity file's own field rules, in the form records.checked reads.
_NON_EMPTY_LIST = (lambda v: type(v) is list and v != [], "a non-empty list")
_K_USED = (lambda v: type(v) is int and 1 <= v <= TOKENS_MAX, f"an integer in [1, {TOKENS_MAX}]")
# NaN fails both comparisons and infinities fail one, so the range test also
# requires a finite number.
_C_STAR = (lambda v: type(v) in (int, float) and 0 <= v <= 1, "a finite number in [0, 1]")


def _best_thresholds(
    tokens: np.ndarray, correct: np.ndarray, present: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best threshold of every row at once: int64 arrays (tau, agree, k_used).

    tau is -1 where the infinite threshold wins; agree counts the present
    runs the best threshold classifies correctly; k_used counts present runs.
    Token counts of present cells must be non-negative.

    Each row is sorted with absent cells first (as -1, below every present
    length), then cut before sorted position s: the runs left of the cut
    are predicted incorrect and the rest correct, so the cut agrees with
    (s - absent) - 2*C_before(s) + C_total runs, where C_before(s) counts
    the correct runs left of it. A cut is a finite candidate where it
    starts a distinct present length; s = K is the infinite threshold.
    argmax takes the first maximum, which is the paper's tie rule: the
    smallest finite threshold wins, and infinity wins only when strictly
    better.

    The row sort need not be stable. Left of a candidate cut lie exactly
    the runs shorter than its length (and the absent cells), whatever the
    order within a tie, so C_before, and with it tau, agree and k_used,
    are the same for every order the sort may choose.
    """
    rows, width = tokens.shape
    lengths = np.where(present, tokens, -1)
    order = np.argsort(lengths, axis=1)
    ordered = np.take_along_axis(lengths, order, axis=1)
    hits = np.take_along_axis(correct & present, order, axis=1)
    before = np.zeros((rows, width + 1), dtype=np.int64)
    np.cumsum(hits, axis=1, out=before[:, 1:])
    k_used = np.count_nonzero(present, axis=1)
    absent = (width - k_used)[:, None]
    cuts = np.arange(width + 1)
    agree = cuts - absent - 2 * before + before[:, -1:]
    candidate = np.empty((rows, width + 1), dtype=bool)
    candidate[:, 0] = ordered[:, 0] >= 0
    candidate[:, 1:width] = ordered[:, 1:] > ordered[:, :-1]
    candidate[:, width] = True
    best = np.argmax(np.where(candidate, agree, -1), axis=1)
    tau = np.take_along_axis(ordered, np.minimum(best, width - 1)[:, None], axis=1)[:, 0]
    tau[best == width] = -1
    return tau, agree[np.arange(rows), best], k_used.astype(np.int64)


def estimate_tau(
    lengths: Sequence[int], corrects: Sequence[bool], question_id: str = ""
) -> QuestionComplexity:
    """Best threshold over the observed lengths (plus INFINITE) for one question.

    Ties break toward the smallest finite threshold; INFINITE wins only when
    it strictly beats every finite candidate. This is _best_thresholds on a
    single row.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    corrects = np.asarray(corrects, dtype=bool)
    if lengths.size == 0 or lengths.shape != corrects.shape or lengths.ndim != 1:
        raise ValueError("lengths and corrects must be equal-size, non-empty sequences")
    if lengths.min() < 0:
        raise ValueError("token lengths must be non-negative")
    tau, agree, k_used = _best_thresholds(
        lengths[None, :], corrects[None, :], np.ones((1, lengths.size), dtype=bool)
    )
    k = int(k_used[0])
    return QuestionComplexity(
        question_id=question_id,
        tau_hat=INFINITE if tau[0] < 0 else int(tau[0]),
        c_star=Fraction(int(agree[0]), k),
        k_used=k,
    )


def profile(matrix: RunMatrix) -> ComplexityProfile:
    """Estimate every question's complexity and the mean classifier accuracy.

    _best_thresholds runs over blocks of BLOCK_ROWS rows, so its temporaries
    stay a few megabytes whatever the number of questions. Fractions are
    built once per distinct (agree, k_used) pair for c_star, and for c_bar
    from the agreement totals per distinct k_used.
    """
    covered = matrix.present.any(axis=1)
    if not covered.all():
        qid = matrix.question_ids[int(np.argmin(covered))]
        raise CoverageError(f"question {qid!r} has no present runs")
    n = matrix.n_questions
    tau = np.empty(n, dtype=np.int64)
    agree = np.empty(n, dtype=np.int64)
    k_used = np.empty(n, dtype=np.int64)
    for start in range(0, n, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        tau[block], agree[block], k_used[block] = _best_thresholds(
            matrix.tokens[block], matrix.correct[block], matrix.present[block]
        )
    pairs = list(zip(agree.tolist(), k_used.tolist()))
    c_stars = {pair: Fraction(*pair) for pair in set(pairs)}
    agree_by_k = np.zeros(matrix.n_prompts + 1, dtype=np.int64)
    np.add.at(agree_by_k, k_used, agree)
    c_total = sum(
        (Fraction(int(agree_by_k[k]), int(k)) for k in np.flatnonzero(agree_by_k)),
        Fraction(0),
    )
    return ComplexityProfile(
        model=matrix.model,
        dataset=matrix.dataset,
        question_ids=matrix.question_ids,
        tau=tau,
        k_used=k_used,
        c_star=tuple(map(c_stars.__getitem__, pairs)),
        c_bar=c_total / n,
    )
