"""Per-question token-complexity estimation via optimal threshold classifiers.

A threshold classifier predicts a run correct iff its token length reaches
the threshold. The complexity estimate for a question is the threshold, drawn
from the observed lengths plus infinity, that classifies its runs best; the
infinite threshold (predict everything incorrect) models unsolvable
questions.

One integer kernel, _best_thresholds, scores every candidate threshold of
many questions at once from a row sort and one running sum over the sorted
runs; profile runs it over blocks of rows of the whole run matrix. The
profile keeps the result as columns: one int64 tau per question (-1 for
infinite), the runs used, and exact Fraction classifier accuracies.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import CoverageError, RecordSchemaError
from .inputs import (
    INFINITE, NON_EMPTY_STRING, NULL_OR_TOKENS, TOKENS_MAX, check_pair, checked, checked_entries,
    read_json, write_json,
)
from .records import Ids, RunMatrix

# Questions per _best_thresholds call in profile. It bounds the kernel's
# temporaries (a few arrays of BLOCK_ROWS x (K + 1) int64) whatever n is.
BLOCK_ROWS = 2048


@dataclass(frozen=True)
class QuestionComplexity:
    """Estimated threshold and classifier quality for one question."""

    question_id: str
    tau_hat: int | float  # a Python int, or INFINITE
    c_star: Fraction
    k_used: int


@dataclass(frozen=True, eq=False)
class ComplexityProfile:
    """Per-question complexities and their aggregates for one (model, dataset).

    Position i of each column, a tuple or a read-only int64 array, belongs
    to question_ids[i], an Ids (kept as it is when given as one); tau is -1
    where the complexity is infinite. What the file refuses is a ValueError
    here too: an empty or non-string model or dataset, no questions, a
    repeated, empty or non-string id, a tau below -1 or a k_used below 1; a
    c_star outside [0, 1] is one when saved.
    """

    model: str
    dataset: str
    question_ids: Ids
    tau: np.ndarray
    k_used: np.ndarray
    c_star: tuple[Fraction, ...]
    c_bar: Fraction

    def __post_init__(self) -> None:
        check_pair(self.model, self.dataset)
        for name in ("tau", "k_used"):
            column = np.array(getattr(self, name), dtype=np.int64)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "question_ids", Ids(self.question_ids, "question_ids"))
        object.__setattr__(self, "c_star", tuple(self.c_star))
        if not len(self.question_ids) == self.tau.size == self.k_used.size == len(self.c_star):
            raise ValueError("every column must hold one value per question")
        if not self.question_ids:
            raise ValueError("a profile must hold at least one question")
        if self.tau.min() < -1:
            raise ValueError(f"tau must be -1 (infinite) or at least 0, got {self.tau.min()}")
        if self.k_used.min() < 1:
            raise ValueError(f"k_used must be at least 1, got {self.k_used.min()}")

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
        """The file form; a ValueError if a c_star, as written, is outside [0, 1]."""
        c_star = [round(float(c), 6) for c in self.c_star]
        bad = next((c for c in c_star if not 0 <= c <= 1), None)
        if bad is not None:
            raise ValueError(f"c_star must be in [0, 1], got {bad!r}")
        return {
            "model": self.model,
            "dataset": self.dataset,
            "entries": [
                {
                    "question_id": q,
                    "tau": t if t >= 0 else None,
                    "c_star": c,
                    "k_used": k,
                }
                for q, t, c, k in zip(
                    self.question_ids, self.tau.tolist(), c_star, self.k_used.tolist()
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

        c_bar is the mean of the stored (rounded) c_star values, summed once
        per distinct value. The stored aggregates are not read: the tau ones
        follow exactly from the taus.
        A bad value is a RecordSchemaError naming its JSON location, such as
        ``entries[3].tau``.
        """
        if type(obj) is not dict:
            raise RecordSchemaError(f"the file must hold a JSON object, got {type(obj).__name__}")
        model = checked(obj, "model", "", NON_EMPTY_STRING)
        dataset = checked(obj, "dataset", "", NON_EMPTY_STRING)
        entries = checked(obj, "entries", "", _NON_EMPTY_LIST)
        ids, tau, k_used, values = [], [], [], []
        for entry in checked_entries(entries, "entries", _ENTRY_RULES):
            ids.append(entry["question_id"])
            tau.append(-1 if entry["tau"] is None else entry["tau"])
            k_used.append(entry["k_used"])
            values.append(entry["c_star"])
        # One Fraction per distinct value; equal values, such as 1 and 1.0,
        # give equal Fractions.
        counts = Counter(values)
        exact = {v: Fraction(str(v)) for v in counts}
        c_star = [exact[v] for v in values]
        c_bar = sum((exact[v] * count for v, count in counts.items()), Fraction(0)) / len(values)
        return cls(model, dataset, ids, tau, k_used, c_star, c_bar)

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str | Path) -> ComplexityProfile:
        """Read a file written by save; bad content is a RecordParseError or RecordSchemaError."""
        obj = read_json(path)
        try:
            return cls.from_json_dict(obj)
        except RecordSchemaError as exc:
            raise RecordSchemaError(exc.reason, path=str(path)) from None


# The complexity file's own field rules, in the form inputs.checked reads.
_NON_EMPTY_LIST = (lambda v: type(v) is list and v != [], "be a non-empty list")
_K_USED = (lambda v: type(v) is int and 1 <= v <= TOKENS_MAX, f"be an integer in [1, {TOKENS_MAX}]")
# NaN fails both comparisons and infinities fail one, so the range test also
# requires a finite number.
_C_STAR = (lambda v: type(v) in (int, float) and 0 <= v <= 1, "be a finite number in [0, 1]")
_ENTRY_RULES = {"question_id": NON_EMPTY_STRING, "tau": NULL_OR_TOKENS, "k_used": _K_USED,
                "c_star": _C_STAR}


def _best_thresholds(
    tokens: np.ndarray, correct: np.ndarray, present: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best threshold of every row at once: int64 arrays (tau, agree, k_used).

    tau is -1 where the infinite threshold wins; agree counts the present
    runs the best threshold classifies correctly; k_used counts present runs,
    all that ``present`` is read for. Token counts must be in [0, 2**63 - 1],
    and absent cells must hold 0 and False, as a RunMatrix's do.

    Each cell packs into one uint64 key, 2 * length + hit, which fits every
    int64 count; an absent cell has key 0. One in-place sort of the keys
    orders each row by length and then hit: key >> 1 is the length and
    key & 1 the hit. An absent cell shares key 0 with a present length-0
    miss, and equal keys are interchangeable, so the first
    absent = K - k_used positions of a sorted row stand for its absent
    cells and the rest for its present runs.

    The row is then cut before sorted position s: the runs left of the cut
    are predicted incorrect and the rest correct, so each run the cut passes
    adds 1 to its agreement if a miss and -1 if a hit. One flat cumsum of
    these steps, rows led by a 0, scores every cut up to a constant per row;
    cut absent agrees with exactly the correct runs, which fixes it. The
    finite candidates are position absent and each later position whose
    length exceeds the one before; s = K is the infinite threshold. argmax
    takes the first maximum, which is the paper's tie rule: the smallest
    finite threshold wins, and infinity wins only when strictly better.
    Left of a candidate cut lie exactly the runs shorter than its length
    (and the absent cells), so the order within a tie changes nothing.
    """
    rows, width = tokens.shape
    keys = tokens.astype(np.uint64)
    keys <<= np.uint64(1)
    keys |= correct
    keys.sort(axis=1)
    score = np.zeros((rows, width + 1), dtype=np.int64)
    steps = score[:, 1:]
    np.bitwise_and(keys, np.uint64(1), out=steps.view(np.uint64))
    steps <<= 1
    np.subtract(1, steps, out=steps)
    np.cumsum(score.reshape(-1), out=score.reshape(-1))
    keys >>= np.uint64(1)
    ordered = keys.view(np.int64)
    k_used = np.count_nonzero(present, axis=1).astype(np.int64)
    every, absent = np.arange(rows), width - k_used
    blocked = np.ones((rows, width + 1), dtype=bool)
    np.less_equal(ordered[:, 1:], ordered[:, :-1], out=blocked[:, 1:width])
    blocked[every, absent] = False
    blocked[:, width] = False
    np.putmask(score, blocked, np.iinfo(np.int64).min)
    best = np.argmax(score, axis=1)
    tau = np.where(best < width, ordered[every, np.minimum(best, width - 1)], -1)
    agree = score[every, best] - score[every, absent] + np.count_nonzero(correct, axis=1)
    return tau, agree, k_used


def profile(matrix: RunMatrix) -> ComplexityProfile:
    """Estimate every question's complexity and the mean classifier accuracy.

    _best_thresholds runs over blocks of BLOCK_ROWS rows, so its temporaries
    stay a few megabytes whatever the number of questions. Every block
    takes the same packed sort, for every int64 length. Fractions are
    built once per distinct (agree, k_used) pair for c_star, and for c_bar
    from the agreement totals per distinct k_used. A pair is coded as
    agree * (K + 1) + k_used, which is one-to-one because agree <= k_used
    <= K, so np.unique finds the distinct pairs and maps each question to
    its Fraction with no per-question lookup.
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
    base = matrix.n_prompts + 1
    codes, which = np.unique(agree * base + k_used, return_inverse=True)
    c_stars = np.empty(codes.size, dtype=object)
    c_stars[:] = [Fraction(*divmod(code, base)) for code in codes.tolist()]
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
        c_star=c_stars[which].tolist(),
        c_bar=c_total / n,
    )
