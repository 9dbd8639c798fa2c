"""Per-record, per-question and per-cell loop versions of the package's code.

These are the straightforward implementations the columnar and whole-matrix
code in ``cotbudget`` replaced: one record, question or cell at a time,
exactly as the rules are stated. They are slow, and they are kept only as
reference oracles for the differential tests.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from cotbudget.complexity import INFINITE, ComplexityProfile, QuestionComplexity, is_finite
from cotbudget.errors import (
    CoverageError,
    DuplicateRecordError,
    EmptySelectionError,
    RecordParseError,
    RecordSchemaError,
)
from cotbudget.records import EvalRecord, RunMatrix
from cotbudget.routing import QuestionRoute, RoutingOutcome


def load_records_loop(path: str | Path) -> list[EvalRecord]:
    """One EvalRecord per line, each validated by its constructor."""
    path = Path(path)
    records: list[EvalRecord] = []
    seen: dict[tuple[str, str, str, str], int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordParseError(str(path), line_no, f"malformed JSON: {exc.msg}") from exc
            try:
                record = EvalRecord.from_json_dict(obj)
            except RecordSchemaError as exc:
                raise RecordSchemaError(exc.reason, path=str(path), line_no=line_no) from exc
            first = seen.get(record.key)
            if first is not None:
                raise DuplicateRecordError(record.key, f"lines {first} and {line_no} of {path}")
            seen[record.key] = line_no
            records.append(record)
    return records


def pivot_loop(records: Iterable[EvalRecord], model: str, dataset: str) -> RunMatrix:
    """Sorted ids, then one cell assignment per selected record."""
    selected = [r for r in records if r.model == model and r.dataset == dataset]
    if not selected:
        raise EmptySelectionError(f"no records for model={model!r} dataset={dataset!r}")
    question_ids = tuple(sorted({r.question_id for r in selected}))
    prompt_ids = tuple(sorted({r.prompt_id for r in selected}))
    q_index = {q: i for i, q in enumerate(question_ids)}
    p_index = {p: j for j, p in enumerate(prompt_ids)}
    n, k = len(question_ids), len(prompt_ids)
    tokens = np.zeros((n, k), dtype=np.int64)
    correct = np.zeros((n, k), dtype=bool)
    present = np.zeros((n, k), dtype=bool)
    for r in selected:
        i, j = q_index[r.question_id], p_index[r.prompt_id]
        if present[i, j]:
            raise DuplicateRecordError(r.key)
        tokens[i, j] = r.tokens
        correct[i, j] = r.correct
        present[i, j] = True
    return RunMatrix(model, dataset, question_ids, prompt_ids, tokens, correct, present)


def estimate_tau_loop(
    lengths: Sequence[int], corrects: Sequence[bool], question_id: str = ""
) -> QuestionComplexity:
    """Score every observed length as a threshold; keep the first strict best.

    Ties break toward the smallest finite threshold; INFINITE wins only when
    it strictly beats every finite candidate.
    """
    lengths = np.asarray(lengths)
    corrects = np.asarray(corrects, dtype=bool)
    k = int(lengths.size)
    best_tau: float = INFINITE
    best_acc = Fraction(int(np.count_nonzero(~corrects)), k)
    for t in sorted(set(int(v) for v in lengths)):
        acc = Fraction(int(np.count_nonzero((lengths >= t) == corrects)), k)
        if acc > best_acc or (acc == best_acc and t < best_tau):
            best_tau, best_acc = t, acc
    return QuestionComplexity(
        question_id=question_id, tau_hat=best_tau, c_star=best_acc, k_used=k
    )


def profile_loop(matrix: RunMatrix) -> ComplexityProfile:
    """estimate_tau_loop per question, then the aggregates summed entry by entry."""
    entries: list[QuestionComplexity] = []
    for i, qid in enumerate(matrix.question_ids):
        lengths, corrects = matrix.question_runs(i)
        if lengths.size == 0:
            raise CoverageError(f"question {qid!r} has no present runs")
        entries.append(estimate_tau_loop(lengths, corrects, question_id=qid))
    n = len(entries)
    finite = [int(e.tau_hat) for e in entries if e.finite]
    return ComplexityProfile(
        model=matrix.model,
        dataset=matrix.dataset,
        entries=tuple(entries),
        c_bar=sum((e.c_star for e in entries), Fraction(0)) / n,
        a_star=Fraction(len(finite), n),
        tau_bar_over_n=Fraction(sum(finite), n),
        tau_bar_finite_mean=Fraction(sum(finite), len(finite)) if finite else Fraction(0),
    )


def _cell(matrix: RunMatrix, i: int, j: int, qid: str, pid: str) -> tuple[int, bool]:
    if not matrix.present[i, j]:
        raise CoverageError(f"no recorded run for question {qid!r} under prompt {pid!r}")
    return int(matrix.tokens[i, j]), bool(matrix.correct[i, j])


def _outcome(policy_id: str, routes: list[QuestionRoute]) -> RoutingOutcome:
    n = len(routes)
    return RoutingOutcome(
        policy_id=policy_id,
        accuracy=Fraction(sum(1 for r in routes if r.correct), n),
        avg_tokens=Fraction(sum(r.tokens_spent for r in routes), n),
        per_question=tuple(routes),
    )


def verifier_cascade_loop(matrix: RunMatrix, prompts: Sequence[str]) -> RoutingOutcome:
    """Walk each question's chain cell by cell until a correct answer."""
    cols = [matrix.prompt_index(p) for p in prompts]
    routes: list[QuestionRoute] = []
    for i, qid in enumerate(matrix.question_ids):
        spent = 0
        correct = False
        path: list[str] = []
        for pid, j in zip(prompts, cols):
            tokens, ok = _cell(matrix, i, j, qid, pid)
            spent += tokens
            path.append(pid)
            if ok:
                correct = True
                break
        routes.append(QuestionRoute(qid, spent, correct, tuple(path)))
    return _outcome("verifier(" + "->".join(prompts) + ")", routes)


def budget_route_loop(
    matrix: RunMatrix, budgets: Mapping[str, int], family: Sequence[str]
) -> tuple[RoutingOutcome, int]:
    """(outcome, unknown budget ids): the longest fitting run, else the shortest."""
    cols = [matrix.prompt_index(p) for p in family]
    unknown = sum(1 for q in budgets if q not in matrix.question_ids)
    routes: list[QuestionRoute] = []
    for i, qid in enumerate(matrix.question_ids):
        cells = [(pid, *_cell(matrix, i, j, qid, pid)) for pid, j in zip(family, cols)]
        budget = budgets.get(qid, 0)
        fitting = [c for c in cells if c[1] <= budget]
        if fitting:
            choice = max(fitting, key=lambda c: c[1])
        else:
            choice = min(cells, key=lambda c: c[1])
        routes.append(QuestionRoute(qid, choice[1], choice[2], (choice[0],)))
    return _outcome("budget(" + "->".join(family) + ")", routes), unknown


def midranks_loop(values: Sequence[float]) -> np.ndarray:
    """Walk the stably sorted values, giving each run of equal values its mean position."""
    a = np.asarray(values, dtype=float)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size, dtype=float)
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def straddle_lengths_loop(
    taus: Sequence[float],
    n_prompts: int,
    infinite_proxy: int | None = None,
    shuffle_seed: int | None = None,
) -> np.ndarray:
    """The straddle length grid, one floor(factor * anchor) per cell."""
    finite = [int(t) for t in taus if is_finite(t)]
    proxy = infinite_proxy if infinite_proxy is not None else (2 * max(finite) if finite else 64)
    n_below = max(1, (n_prompts - 1) // 2)
    n_above = n_prompts - 1 - n_below
    factors = (
        [0.25 + 0.65 * b / max(1, n_below) for b in range(n_below)]
        + [1.0]
        + [1.0 + 1.0 * (a + 1) / max(1, n_above) for a in range(n_above)]
    )
    perms = None
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        perms = [rng.permutation(n_prompts) for _ in taus]
    lengths = np.empty((len(taus), n_prompts), dtype=np.int64)
    for i, tau in enumerate(taus):
        anchor = int(tau) if is_finite(tau) else proxy
        for k in range(n_prompts):
            factor = factors[k] if perms is None else factors[perms[i][k]]
            lengths[i, k] = math.floor(factor * anchor)
    return lengths


def scaled_lengths_loop(base: Sequence[int], multipliers: Sequence[float]) -> np.ndarray:
    """One Python round(base * multiplier) per cell."""
    return np.array(
        [[int(round(int(b) * float(m))) for b in base] for m in multipliers], dtype=np.int64
    ).reshape(len(multipliers), len(base))
