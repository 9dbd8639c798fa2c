"""Per-question token-complexity estimation via optimal threshold classifiers.

A threshold classifier predicts a run correct iff its token length reaches
the threshold. The complexity estimate for a question is the threshold, drawn
from the observed lengths plus infinity, that classifies its runs best; the
infinite threshold (predict everything incorrect) models unsolvable
questions.

One integer kernel, _best_thresholds, scores every candidate threshold of
many questions at once from a row sort and a cumulative count of correct
runs; profile runs it over blocks of rows of the whole run matrix. All
per-question quantities are exact: the kernel counts in integers, and the
profile turns the counts into Fractions.
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

from .errors import CoverageError
from .records import RunMatrix

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


@dataclass(frozen=True)
class ComplexityProfile:
    """Per-question complexities and their aggregates for one (model, dataset)."""

    model: str
    dataset: str
    entries: tuple[QuestionComplexity, ...]
    c_bar: Fraction
    a_star: Fraction
    tau_bar_over_n: Fraction
    tau_bar_finite_mean: Fraction

    @property
    def n_questions(self) -> int:
        return len(self.entries)

    @cached_property
    def sorted_finite_taus(self) -> tuple[int, ...]:
        """Finite complexity estimates, ascending; computed once per profile."""
        return tuple(sorted(int(e.tau_hat) for e in self.entries if e.finite))

    @cached_property
    def tau_prefix_sums(self) -> tuple[int, ...]:
        """Running totals of sorted_finite_taus: entry m - 1 is the cost of the m cheapest."""
        return tuple(accumulate(self.sorted_finite_taus))

    def finite_taus(self) -> list[int]:
        """Finite complexity estimates, ascending."""
        return list(self.sorted_finite_taus)

    def tau_by_question(self) -> dict[str, float]:
        return {e.question_id: e.tau_hat for e in self.entries}

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "dataset": self.dataset,
            "entries": [
                {
                    "question_id": e.question_id,
                    "tau": int(e.tau_hat) if e.finite else None,
                    "c_star": round(float(e.c_star), 6),
                    "k_used": e.k_used,
                }
                for e in self.entries
            ],
            "c_bar": round(float(self.c_bar), 6),
            "a_star": round(float(self.a_star), 6),
            "tau_bar_over_n": round(float(self.tau_bar_over_n), 6),
            "tau_bar_finite_mean": round(float(self.tau_bar_finite_mean), 6),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> ComplexityProfile:
        """Rebuild a profile from its file form.

        Aggregates are recomputed from the entries where exact (a_star and the
        two tau means depend only on the integer taus); c_bar keeps the
        rounded stored values.
        """
        entries = tuple(
            QuestionComplexity(
                question_id=e["question_id"],
                tau_hat=INFINITE if e["tau"] is None else int(e["tau"]),
                c_star=Fraction(str(e["c_star"])),
                k_used=int(e["k_used"]),
            )
            for e in obj["entries"]
        )
        c_bar = (
            sum((e.c_star for e in entries), Fraction(0)) / len(entries)
            if entries
            else Fraction(0)
        )
        a_star, tau_bar_over_n, tau_bar_finite_mean = _tau_aggregates(
            [int(e.tau_hat) for e in entries if e.finite], len(entries)
        )
        return cls(
            model=obj["model"],
            dataset=obj["dataset"],
            entries=entries,
            c_bar=c_bar,
            a_star=a_star,
            tau_bar_over_n=tau_bar_over_n,
            tau_bar_finite_mean=tau_bar_finite_mean,
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> ComplexityProfile:
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def classify_accuracy(
    lengths: Sequence[int], corrects: Sequence[bool], t: float
) -> Fraction:
    """Fraction of runs whose correctness matches the prediction length >= t.

    t = INFINITE predicts every run incorrect.
    """
    lengths = np.asarray(lengths)
    corrects = np.asarray(corrects, dtype=bool)
    if lengths.size == 0 or lengths.shape != corrects.shape:
        raise ValueError("lengths and corrects must be equal-size, non-empty sequences")
    predictions = np.zeros(lengths.shape, dtype=bool) if math.isinf(t) else lengths >= t
    return Fraction(int(np.count_nonzero(predictions == corrects)), int(lengths.size))


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
    """
    rows, width = tokens.shape
    lengths = np.where(present, tokens, -1)
    order = np.argsort(lengths, axis=1, kind="stable")
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
    """Estimate every question's complexity and fill the profile aggregates.

    _best_thresholds runs over blocks of BLOCK_ROWS rows, so its temporaries
    stay a few megabytes whatever the number of questions. Fractions are
    built only for the entries (one per distinct (agree, k_used) pair) and
    for c_bar, from the agreement totals per distinct k_used.
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
    entries = tuple(
        QuestionComplexity(qid, INFINITE if t < 0 else t, c_stars[pair], pair[1])
        for qid, t, pair in zip(matrix.question_ids, tau.tolist(), pairs)
    )
    agree_by_k = np.zeros(matrix.n_prompts + 1, dtype=np.int64)
    np.add.at(agree_by_k, k_used, agree)
    c_total = sum(
        (Fraction(int(agree_by_k[k]), int(k)) for k in np.flatnonzero(agree_by_k)),
        Fraction(0),
    )
    a_star, tau_bar_over_n, tau_bar_finite_mean = _tau_aggregates(
        tau[tau >= 0].tolist(), n
    )
    return ComplexityProfile(
        model=matrix.model,
        dataset=matrix.dataset,
        entries=entries,
        c_bar=c_total / n,
        a_star=a_star,
        tau_bar_over_n=tau_bar_over_n,
        tau_bar_finite_mean=tau_bar_finite_mean,
    )


def _tau_aggregates(finite: list[int], n: int) -> tuple[Fraction, Fraction, Fraction]:
    """(A*, finite-tau total over n, mean finite tau); zeros where undefined."""
    if not n:
        return Fraction(0), Fraction(0), Fraction(0)
    total = sum(finite)
    return (
        Fraction(len(finite), n),
        Fraction(total, n),
        Fraction(total, len(finite)) if finite else Fraction(0),
    )
