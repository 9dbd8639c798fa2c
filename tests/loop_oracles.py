"""Per-record, per-question and per-cell loop versions of the package's code.

These are the straightforward implementations the columnar and whole-matrix
code in ``cotbudget`` replaced: one record, question, cell or field at a
time, exactly as the rules are stated. A few (the ``*_unique`` and
``*_stable`` functions, and the Fraction-loop frontier) are the earlier array
code that a faster version replaced with the same results. They are slow, and
they are kept only as reference oracles for the differential tests.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter
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
from cotbudget.metrics import PromptResult
from cotbudget.prompts import FIXED_INSTRUCTIONS, PARAMETERIZED_FAMILIES, PromptCatalog, PromptSpec
from cotbudget.records import EvalRecord, RunMatrix
from cotbudget.routing import RoutingOutcome


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


def question_runs(matrix: RunMatrix, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Present-cell (lengths, corrects) of question row i."""
    mask = matrix.present[i]
    return matrix.tokens[i, mask], matrix.correct[i, mask]


def profile_loop(matrix: RunMatrix) -> ComplexityProfile:
    """estimate_tau_loop per question, then c_bar summed entry by entry."""
    entries: list[QuestionComplexity] = []
    for i, qid in enumerate(matrix.question_ids):
        lengths, corrects = question_runs(matrix, i)
        if lengths.size == 0:
            raise CoverageError(f"question {qid!r} has no present runs")
        entries.append(estimate_tau_loop(lengths, corrects, question_id=qid))
    return ComplexityProfile(
        model=matrix.model,
        dataset=matrix.dataset,
        question_ids=tuple(e.question_id for e in entries),
        tau=[int(e.tau_hat) if e.finite else -1 for e in entries],
        k_used=[e.k_used for e in entries],
        c_star=tuple(e.c_star for e in entries),
        c_bar=sum((e.c_star for e in entries), Fraction(0)) / len(entries),
    )


def best_thresholds_stable(
    tokens: np.ndarray, correct: np.ndarray, present: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """complexity._best_thresholds with a stable row sort, as it was written first.

    The stable sort keeps tied lengths in column order; the kernel itself
    sorts without that guarantee.
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


def frontier_loop(profile: ComplexityProfile) -> tuple[tuple[Fraction, Fraction], ...]:
    """Two Fractions per prefix sum; a zero-cost tie replaces the previous step."""
    n = profile.n_questions
    breakpoints: list[tuple[Fraction, Fraction]] = []
    last_prefix = None
    for m, prefix in enumerate(profile.tau_prefix_sums, start=1):
        point = (Fraction(prefix, n), Fraction(m, n))
        if prefix == last_prefix:
            breakpoints[-1] = point  # zero-cost tie: keep the higher accuracy
        else:
            breakpoints.append(point)
        last_prefix = prefix
    return tuple(breakpoints)


def alpha_at_loop(breakpoints: Sequence[tuple[Fraction, Fraction]], budget: Fraction) -> Fraction:
    """Accuracy of the last breakpoint whose Fraction budget is at most budget."""
    idx = bisect_right(breakpoints, Fraction(budget), key=itemgetter(0))
    return breakpoints[idx - 1][1] if idx else Fraction(0)


def profile_from_file_loop(obj: object) -> ComplexityProfile | None:
    """The profile a parsed complexity file describes, or None if a rule rejects it.

    The rules, one value at a time: model and dataset are non-empty
    strings; entries is a non-empty list of objects; each question_id is a
    non-empty string seen once; tau is null or an integer in [0, 2^63 - 1];
    k_used is an integer in [1, 2^63 - 1]; c_star is a finite number in
    [0, 1]. Booleans are not numbers here.
    """

    def text(v: object) -> bool:
        return isinstance(v, str) and v != ""

    def integer(v: object, low: int) -> bool:
        return isinstance(v, int) and not isinstance(v, bool) and low <= v < 2**63

    if not isinstance(obj, dict) or not text(obj.get("model")) or not text(obj.get("dataset")):
        return None
    entries = obj.get("entries")
    if not isinstance(entries, list) or not entries:
        return None
    ids: list[str] = []
    taus: list[int] = []
    k_used: list[int] = []
    c_stars: list[Fraction] = []
    for e in entries:
        if not isinstance(e, dict) or not {"question_id", "tau", "k_used", "c_star"} <= set(e):
            return None
        qid, tau, k, c = e["question_id"], e["tau"], e["k_used"], e["c_star"]
        if not text(qid) or qid in ids:
            return None
        if tau is not None and not integer(tau, 0):
            return None
        if not integer(k, 1):
            return None
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            return None
        if not 0 <= c <= 1 or not math.isfinite(c):
            return None
        ids.append(qid)
        taus.append(-1 if tau is None else tau)
        k_used.append(k)
        c_stars.append(Fraction(str(c)))
    return ComplexityProfile(
        obj["model"], obj["dataset"], tuple(ids), taus, k_used, tuple(c_stars),
        sum(c_stars, Fraction(0)) / len(c_stars),
    )


def catalog_from_file_loop(obj: object) -> PromptCatalog | None:
    """The catalog a parsed catalog file describes, or None if a rule rejects it.

    The rules, one spec at a time: the file is a non-empty list of objects;
    prompt_id is a non-empty string seen once, family a known family and
    instruction a string; limit (an integer, not a boolean) and limit_unit
    are given exactly for the length-limited families, the limit in its
    family's range and the unit its family's own. Missing limit and
    limit_unit count as null.
    """
    if not isinstance(obj, list) or not obj:
        return None
    specs: list[PromptSpec] = []
    for spec in obj:
        if not isinstance(spec, dict):
            return None
        pid, family, instruction = spec.get("prompt_id"), spec.get("family"), spec.get("instruction")
        limit, unit = spec.get("limit"), spec.get("limit_unit")
        if not isinstance(pid, str) or not pid or pid in [s.prompt_id for s in specs]:
            return None
        if not isinstance(instruction, str) or not isinstance(family, str):
            return None
        if family in FIXED_INSTRUCTIONS:
            if limit is not None or unit is not None:
                return None
        elif family in PARAMETERIZED_FAMILIES:
            _, want_unit, (lo, hi) = PARAMETERIZED_FAMILIES[family]
            if isinstance(limit, bool) or not isinstance(limit, int) or unit != want_unit:
                return None
            if limit < lo or (hi is not None and limit > hi):
                return None
        else:
            return None
        specs.append(PromptSpec(pid, family, instruction, limit, unit))
    return PromptCatalog(tuple(specs))


def taus_from_file_loop(obj: object) -> dict[str, int | float] | None:
    """The taus a parsed sidecar describes, or None if a rule rejects it.

    The rules, one value at a time: the file is an object whose ``taus`` is
    an object; each key is a non-empty string, and each value is null
    (infinite) or an integer in [0, 2^63 - 1]. Booleans are not integers
    here. A finite tau is returned as the int itself, an infinite one as
    INFINITE.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("taus"), dict):
        return None
    out: dict[str, int | float] = {}
    for qid, tau in obj["taus"].items():
        if not isinstance(qid, str) or qid == "":
            return None
        if tau is None:
            out[qid] = INFINITE
        elif isinstance(tau, int) and not isinstance(tau, bool) and 0 <= tau < 2**63:
            out[qid] = tau
        else:
            return None
    return out


def tau_aggregates_loop(taus: Sequence[float]) -> tuple[Fraction, Fraction, Fraction]:
    """(A*, finite-tau total over n, mean finite tau), summed tau by tau."""
    finite = [int(t) for t in taus if is_finite(t)]
    n = len(taus)
    return (
        Fraction(len(finite), n),
        Fraction(sum(finite), n),
        Fraction(sum(finite), len(finite)) if finite else Fraction(0),
    )


def _cell(matrix: RunMatrix, i: int, j: int, qid: str, pid: str) -> tuple[int, bool]:
    if not matrix.present[i, j]:
        raise CoverageError(f"no recorded run for question {qid!r} under prompt {pid!r}")
    return int(matrix.tokens[i, j]), bool(matrix.correct[i, j])


def _outcome(
    policy_id: str, routes: list[tuple[int, bool, tuple[str, ...]]]
) -> RoutingOutcome:
    """Outcome from one (tokens spent, correct, path) per question; one path entry each."""
    return RoutingOutcome(
        policy_id=policy_id,
        spent=np.array([spent for spent, _, _ in routes], dtype=np.int64),
        correct=np.array([ok for _, ok, _ in routes], dtype=bool),
        paths=tuple(path for _, _, path in routes),
        path_index=np.arange(len(routes)),
    )


def verifier_cascade_loop(matrix: RunMatrix, prompts: Sequence[str]) -> RoutingOutcome:
    """Walk each question's chain cell by cell until a correct answer."""
    cols = [matrix.prompt_index(p) for p in prompts]
    routes = []
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
        routes.append((spent, correct, tuple(path)))
    return _outcome("verifier(" + "->".join(prompts) + ")", routes)


def budget_route_loop(
    matrix: RunMatrix, budgets: Mapping[str, int], family: Sequence[str]
) -> tuple[RoutingOutcome, int]:
    """(outcome, unknown budget ids): the longest fitting run, else the shortest."""
    cols = [matrix.prompt_index(p) for p in family]
    unknown = sum(1 for q in budgets if q not in matrix.question_ids)
    routes = []
    for i, qid in enumerate(matrix.question_ids):
        cells = [(pid, *_cell(matrix, i, j, qid, pid)) for pid, j in zip(family, cols)]
        budget = budgets.get(qid, 0)
        fitting = [c for c in cells if c[1] <= budget]
        if fitting:
            choice = max(fitting, key=lambda c: c[1])
        else:
            choice = min(cells, key=lambda c: c[1])
        routes.append((choice[1], choice[2], (choice[0],)))
    return _outcome("budget(" + "->".join(family) + ")", routes), unknown


def prompt_table_loop(matrix: RunMatrix, profile: ComplexityProfile) -> list[PromptResult]:
    """One prompt, then one present cell, at a time; token totals in Python ints."""
    tau_of = dict(zip(profile.question_ids, profile.tau.tolist()))
    out = []
    for j, pid in enumerate(matrix.prompt_ids):
        rows = [i for i in range(matrix.n_questions) if matrix.present[i, j]]
        if not rows:
            raise CoverageError(f"prompt {pid!r} has no present cells")
        tokens = [int(matrix.tokens[i, j]) for i in rows]
        taus = [tau_of[matrix.question_ids[i]] for i in rows]
        hits = sum(1 for i in rows if matrix.correct[i, j])
        predicted = sum(1 for t, tau in zip(tokens, taus) if 0 <= tau <= t)
        n = len(rows)
        out.append(PromptResult(pid, Fraction(hits, n), Fraction(sum(tokens), n),
                                Fraction(predicted, n), n))
    return out


def adaptivity_split_loop(
    matrix: RunMatrix, split_prompt: str
) -> dict[str, tuple[Fraction | None, Fraction | None]]:
    """Per prompt and side of the split, the mean of a Python list of present lengths."""
    s = matrix.prompt_ids.index(split_prompt)
    out = {}
    for j, pid in enumerate(matrix.prompt_ids):
        if j == s:
            continue
        sides = []
        for solved in (True, False):
            tokens = [
                int(matrix.tokens[i, j])
                for i in range(matrix.n_questions)
                if matrix.present[i, s] and matrix.correct[i, s] == solved and matrix.present[i, j]
            ]
            sides.append(Fraction(sum(tokens), len(tokens)) if tokens else None)
        out[pid] = (sides[0], sides[1])
    return out


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


def midranks_unique(values: Sequence[float]) -> np.ndarray:
    """Midranks from np.unique's stable sort, its inverse and its run counts."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        a = a.astype(float)
    # return_index makes np.unique sort stably, which orders the NaNs.
    _, _, inverse, counts = np.unique(
        a, return_index=True, return_inverse=True, return_counts=True, equal_nan=False
    )
    first = np.cumsum(counts) - counts
    return ((2 * first + counts - 1) / 2 + 1)[inverse]


def complexity_correlations_unique(
    matrix: RunMatrix, profile: ComplexityProfile
) -> list[tuple[str, float, int]]:
    """Per prompt, midranks_unique of both masked sides, then their Pearson correlation."""
    tau_of = dict(zip(profile.question_ids, profile.tau.tolist()))
    tau = np.array([tau_of[q] for q in matrix.question_ids], dtype=np.int64)
    finite = tau >= 0
    out: list[tuple[str, float, int]] = []
    for j, pid in enumerate(matrix.prompt_ids):
        mask = matrix.present[:, j] & finite
        n = int(np.count_nonzero(mask))
        rho = float("nan")
        if n >= 2:
            rx = midranks_unique(matrix.tokens[mask, j])
            ry = midranks_unique(tau[mask])
            rx -= rx.mean()
            ry -= ry.mean()
            sxx = float(np.dot(rx, rx))
            syy = float(np.dot(ry, ry))
            if sxx != 0.0 and syy != 0.0:
                rho = float(np.dot(rx, ry)) / math.sqrt(sxx * syy)
        out.append((pid, rho, n))
    return out


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
