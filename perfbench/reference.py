"""Independent reference results the benchmark checks the program against.

Everything here works on plain (tokens, correct, present) arrays in the
pivot's lexicographic order and imports nothing from cotbudget, so a bug in
the program under test cannot hide itself in its own check. Counts are
integers and aggregates are exact Fractions, as the program promises.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

_ABSENT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Matrix:
    question_ids: tuple[str, ...]
    prompt_ids: tuple[str, ...]
    tokens: np.ndarray  # int64, n x K; absent cells hold padding
    correct: np.ndarray  # bool
    present: np.ndarray  # bool

    def col(self, prompt_id: str) -> int:
        return self.prompt_ids.index(prompt_id)


def read_pair(path: Path, model: str, dataset: str) -> tuple[Matrix, int]:
    """(matrix of one (model, dataset) pair, total record lines in the file)."""
    rows = []
    total = 0
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            total += 1
            obj = json.loads(line)
            if obj["model"] == model and obj["dataset"] == dataset:
                rows.append((obj["question_id"], obj["prompt_id"], obj["tokens"], obj["correct"]))
    qids = tuple(sorted({r[0] for r in rows}))
    pids = tuple(sorted({r[1] for r in rows}))
    qi = {q: i for i, q in enumerate(qids)}
    pj = {p: j for j, p in enumerate(pids)}
    tokens = np.zeros((len(qids), len(pids)), dtype=np.int64)
    correct = np.zeros(tokens.shape, dtype=bool)
    present = np.zeros(tokens.shape, dtype=bool)
    for q, p, t, c in rows:
        i, j = qi[q], pj[p]
        tokens[i, j], correct[i, j], present[i, j] = t, c, True
    return Matrix(qids, pids, tokens, correct, present), total


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    tau: np.ndarray  # float64; inf for infinite complexity
    agree: np.ndarray  # int64: runs the best threshold classifies correctly
    k_used: np.ndarray  # int64: present runs per question

    def c_star(self, i: int) -> Fraction:
        return Fraction(int(self.agree[i]), int(self.k_used[i]))

    def finite_taus(self) -> list[int]:
        return sorted(int(t) for t in self.tau if math.isfinite(t))


def estimate(m: Matrix) -> Estimate:
    """Best length threshold per question over the whole matrix at once.

    Sort each row with absent cells last. Cutting before sorted position s
    predicts the first s runs incorrect and the rest correct, which agrees
    with s - 2*C_before(s) + C_total runs. A cut is a candidate when it
    starts a distinct length (s < k), and s = k is the infinite threshold.
    argmax takes the first maximum: the smallest finite threshold, with
    infinity only when strictly better, as the paper's tie rule says.
    """
    n, width = m.tokens.shape
    lengths = np.where(m.present, m.tokens, _ABSENT)
    order = np.argsort(lengths, axis=1, kind="stable")
    ls = np.take_along_axis(lengths, order, axis=1)
    cs = np.take_along_axis(m.correct & m.present, order, axis=1).astype(np.int64)
    k = m.present.sum(axis=1).astype(np.int64)
    if (k == 0).any():
        raise ValueError("a question has no present runs")
    before = np.concatenate([np.zeros((n, 1), dtype=np.int64), np.cumsum(cs, axis=1)], axis=1)
    total = before[:, -1:]
    cuts = np.arange(width + 1)
    agree = cuts - 2 * before + total
    starts = np.ones((n, width + 1), dtype=bool)
    starts[:, 1:width] = ls[:, 1:] > ls[:, :-1]
    valid = (cuts < k[:, None]) & starts[:, : width + 1] | (cuts == k[:, None])
    best = np.argmax(np.where(valid, agree, -1), axis=1)
    rows = np.arange(n)
    finite = best < k
    tau = np.full(n, math.inf)
    tau[finite] = ls[rows[finite], best[finite]]
    return Estimate(tau=tau, agree=agree[rows, best], k_used=k)


@dataclass(frozen=True)
class Aggregates:
    c_bar: Fraction
    a_star: Fraction
    tau_bar_over_n: Fraction
    tau_bar_finite_mean: Fraction


def aggregates(c_stars: list[Fraction], taus) -> Aggregates:
    n = len(c_stars)
    finite = [int(t) for t in taus if math.isfinite(t)]
    return Aggregates(
        c_bar=sum(c_stars, Fraction(0)) / n,
        a_star=Fraction(len(finite), n),
        tau_bar_over_n=Fraction(sum(finite), n),
        tau_bar_finite_mean=Fraction(sum(finite), len(finite)) if finite else Fraction(0),
    )


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------


def frontier(taus, n: int) -> list[tuple[Fraction, Fraction]]:
    """Breakpoints (avg budget, accuracy): one per prefix of the sorted finite taus."""
    out: list[tuple[Fraction, Fraction]] = []
    spent = 0
    for m, tau in enumerate(sorted(int(t) for t in taus if math.isfinite(t)), start=1):
        spent += tau
        point = (Fraction(spent, n), Fraction(m, n))
        if out and out[-1][0] == point[0]:
            out[-1] = point
        else:
            out.append(point)
    return out


def frontier_problems(points, taus, n: int, tolerance: Fraction = Fraction(0)) -> list[str]:
    """Invariants any frontier must meet, whatever produced it.

    tolerance allows for points read back from a file at fixed precision.
    """
    problems = []
    budgets = [b for b, _ in points]
    accs = [a for _, a in points]
    if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
        problems.append("frontier budgets not strictly increasing")
    if any(a2 <= a1 for a1, a2 in zip(accs, accs[1:])):
        problems.append("frontier accuracies not increasing")
    finite = [int(t) for t in taus if math.isfinite(t)]
    if finite:
        last = (Fraction(sum(finite), n), Fraction(len(finite), n))
        if not points or any(abs(got - want) > tolerance for got, want in zip(points[-1], last)):
            problems.append(f"frontier last point is not (T*(A*), A*) = {last}")
    elif points:
        problems.append("frontier has points but no finite complexity")
    return problems


def alpha_at(points, budget: Fraction) -> Fraction:
    idx = bisect_right([b for b, _ in points], budget)
    return points[idx - 1][1] if idx else Fraction(0)


def alpha_star(prefix: np.ndarray, n: int, budget: Fraction) -> Fraction:
    """Accuracy of the longest prefix of sorted finite taus whose cost fits n * budget.

    prefix is the running sum of the ascending finite taus. Its entries are
    integers, so fitting n * budget is fitting its floor.
    """
    return Fraction(int(np.searchsorted(prefix, math.floor(n * budget), side="right")), n)


def t_star(prefix: np.ndarray, n: int, alpha: Fraction) -> Fraction:
    m = math.ceil(alpha * n)
    return Fraction(int(prefix[m - 1]) if m else 0, n)


# ---------------------------------------------------------------------------
# per-prompt metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromptRow:
    prompt_id: str
    accuracy: Fraction
    avg_tokens: Fraction
    predicted_accuracy: Fraction
    n_questions: int


def prompt_rows(m: Matrix, tau: np.ndarray) -> list[PromptRow]:
    out = []
    for j, pid in enumerate(m.prompt_ids):
        mask = m.present[:, j]
        count = int(mask.sum())
        lengths = m.tokens[mask, j]
        out.append(
            PromptRow(
                prompt_id=pid,
                accuracy=Fraction(int(m.correct[mask, j].sum()), count),
                avg_tokens=Fraction(int(lengths.sum()), count),
                predicted_accuracy=Fraction(int((lengths >= tau[mask]).sum()), count),
                n_questions=count,
            )
        )
    return out


def err(rows: list[PromptRow]) -> Fraction:
    scorable = [r for r in rows if r.accuracy > 0]
    return sum(
        (abs(r.accuracy - r.predicted_accuracy) / r.accuracy for r in scorable), Fraction(0)
    ) / len(scorable)


def _midranks(values: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return (starts + (counts + 1) / 2.0)[inverse]


def spearman_rows(m: Matrix, tau: np.ndarray) -> list[tuple[str, float, int]]:
    """(prompt_id, rho, pairs) per prompt over present cells of finite-tau questions."""
    finite = np.isfinite(tau)
    out = []
    for j, pid in enumerate(m.prompt_ids):
        mask = m.present[:, j] & finite
        n = int(mask.sum())
        rho = math.nan
        if n >= 2:
            rx = _midranks(m.tokens[mask, j].astype(float))
            ry = _midranks(tau[mask])
            rx -= rx.mean()
            ry -= ry.mean()
            sxx, syy = float(rx @ rx), float(ry @ ry)
            if sxx and syy:
                rho = float(rx @ ry) / math.sqrt(sxx * syy)
        out.append((pid, rho, n))
    return out


def adaptivity(m: Matrix, split_prompt: str) -> dict[str, tuple[Fraction | None, Fraction | None]]:
    s = m.col(split_prompt)
    solved = m.present[:, s] & m.correct[:, s]
    unsolved = m.present[:, s] & ~m.correct[:, s]
    out = {}
    for j, pid in enumerate(m.prompt_ids):
        if j == s:
            continue
        sides = []
        for group in (solved, unsolved):
            mask = group & m.present[:, j]
            count = int(mask.sum())
            sides.append(Fraction(int(m.tokens[mask, j].sum()), count) if count else None)
        out[pid] = (sides[0], sides[1])
    return out


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


def cascade(m: Matrix, prompts: list[str]) -> tuple[Fraction, Fraction]:
    """(accuracy, avg tokens) of running prompts in order until one is correct."""
    cols = [m.col(p) for p in prompts]
    if not m.present[:, cols].all():
        raise ValueError("cascade over absent cells")
    ok = m.correct[:, cols]
    spent = m.tokens[:, cols]
    solved = ok.any(axis=1)
    last = np.where(solved, ok.argmax(axis=1), len(cols) - 1)
    charged = np.arange(len(cols))[None, :] <= last[:, None]
    n = m.tokens.shape[0]
    return Fraction(int(solved.sum()), n), Fraction(int((spent * charged).sum()), n)


def budget_route(m: Matrix, budgets: dict[str, int], family: list[str]) -> tuple[Fraction, Fraction]:
    """(accuracy, avg tokens) of taking the longest family run within budget.

    With nothing within budget (or no budget) the shortest run is taken; ties
    go to the first prompt in family order.
    """
    cols = [m.col(p) for p in family]
    if not m.present[:, cols].all():
        raise ValueError("budget routing over absent cells")
    spent = m.tokens[:, cols]
    ok = m.correct[:, cols]
    b = np.array([budgets.get(q, 0) for q in m.question_ids], dtype=np.int64)
    fits = spent <= b[:, None]
    choice = np.where(
        fits.any(axis=1), np.where(fits, spent, -1).argmax(axis=1), spent.argmin(axis=1)
    )
    rows = np.arange(len(choice))
    n = len(choice)
    return Fraction(int(ok[rows, choice].sum()), n), Fraction(int(spent[rows, choice].sum()), n)
