"""Per-record, per-question and per-cell loop versions of the package's code.

These are the straightforward implementations the columnar and whole-matrix
code in ``cotbudget`` replaced: one record, question, cell or field at a
time, exactly as the rules are stated. A few (the ``*_unique`` and
``*_stable`` functions, and the Fraction-loop frontier) are the earlier array
code that a faster version replaced with the same results, and the
``*_from_json_loop`` and ``budget_entry_loop`` checkers are the hand-written
line validators that one rule table replaced. ``profile_from_json_dict_loop``
and ``column_sums_whole`` are the per-entry loader and the whole-matrix
column sums that a one-pass loader and a row-blocked sum replaced, and
``catalog_from_json_loop`` is the catalog loader one field at a time.
``strip_wrapping_stack`` is the grader's parenthesis peel with a stack, and
``grade_choice_first_letter`` its choice rule before labels other than one
ASCII letter could match.
``HttpClientTransport`` is the ``http.client`` client that ``transport``'s
socket-level one replaced. The dataclasses ``Choice``, ``Question``,
``PromptSpec``, ``PromptCatalog``, ``SweepConfig`` and ``SweepSummary`` are
the originals of the slotted classes in ``grading``, ``collect`` and
``prompts``. They are slow, and they are kept only as reference oracles for
the differential tests.
"""
from __future__ import annotations

import io
import json
import math
import re
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

import cotbudget.grading
import cotbudget.prompts
from cotbudget.complexity import (
    _C_STAR,
    _K_USED,
    _NON_EMPTY_LIST,
    INFINITE,
    ComplexityProfile,
    QuestionComplexity,
)
from cotbudget.errors import (
    CoverageError,
    DuplicateRecordError,
    EmptySelectionError,
    GenerationError,
    RecordParseError,
    RecordSchemaError,
)
from cotbudget.grading import _QUESTION_RULES, ANSWER_PATTERN, QUESTION_FIELDS, _strip_wrapping
from cotbudget.inputs import (
    NON_EMPTY_STRING, NULL_OR_TOKENS, TOKENS_MAX, check_line, checked, read_jsonl,
)
from cotbudget.metrics import PromptResult
from cotbudget.oracle import INFINITE_SHARE, TAU_RANGE, OracleSpec
from cotbudget.prompts import FIXED_INSTRUCTIONS, PARAMETERIZED_FAMILIES
from cotbudget.records import OPTIONAL_FIELDS, REQUIRED_FIELDS, EvalRecord, RunMatrix
from cotbudget.routing import RoutingOutcome
from cotbudget import transport
from cotbudget.transport import _proxy, _request_headers, _tls_context, _Transport


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
                raise RecordParseError(f"malformed JSON: {exc.msg}", str(path), line_no) from exc
            try:
                record = record_from_json_loop(obj)
            except RecordSchemaError as exc:
                raise RecordSchemaError(exc.reason, path=str(path), line_no=line_no) from exc
            first = seen.get(record.key)
            if first is not None:
                raise DuplicateRecordError(record.key, f"lines {first} and {line_no} of {path}")
            seen[record.key] = line_no
            records.append(record)
    return records


def record_from_json_loop(obj: object) -> EvalRecord:
    """A record from a parsed JSONL object, each fault checked by hand, unknown fields kept."""
    if not isinstance(obj, dict):
        raise RecordSchemaError(f"record must be a JSON object, got {type(obj).__name__}")
    missing = [name for name in REQUIRED_FIELDS if name not in obj]
    if missing:
        raise RecordSchemaError("missing required field(s): " + ", ".join(missing))
    for name in ("model", "dataset", "question_id", "prompt_id"):
        value = obj[name]
        if not isinstance(value, str) or not value:
            raise RecordSchemaError(f"field {name!r} must be a non-empty string, got {value!r}")
    tokens, correct = obj["tokens"], obj["correct"]
    if isinstance(tokens, bool) or not isinstance(tokens, int):
        raise RecordSchemaError(f"field 'tokens' must be an integer, got {tokens!r}")
    if tokens < 0:
        raise RecordSchemaError(f"field 'tokens' must be non-negative, got {tokens}")
    if tokens > TOKENS_MAX:
        raise RecordSchemaError(
            f"field 'tokens' must fit in a signed 64-bit integer (at most {TOKENS_MAX}), "
            f"got {tokens}"
        )
    if not isinstance(correct, bool):
        raise RecordSchemaError(f"field 'correct' must be a boolean, got {correct!r}")
    known = set(REQUIRED_FIELDS) | set(OPTIONAL_FIELDS)
    return EvalRecord(
        model=obj["model"],
        dataset=obj["dataset"],
        question_id=obj["question_id"],
        prompt_id=obj["prompt_id"],
        tokens=tokens,
        correct=correct,
        response=obj.get("response"),
        extracted_answer=obj.get("extracted_answer"),
        extra={k: v for k, v in obj.items() if k not in known},
    )


def budget_entry_loop(obj: object) -> tuple[str, int]:
    """One budgets line's (question_id, budget), each fault checked by hand."""
    if not isinstance(obj, dict):
        raise RecordSchemaError(f"budget must be a JSON object, got {type(obj).__name__}")
    missing = [name for name in ("question_id", "budget") if name not in obj]
    if missing:
        raise RecordSchemaError("missing required field(s): " + ", ".join(missing))
    question_id, budget = obj["question_id"], obj["budget"]
    if not isinstance(question_id, str) or not question_id:
        raise RecordSchemaError(
            f"field 'question_id' must be a non-empty string, got {question_id!r}"
        )
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise RecordSchemaError(f"field 'budget' must be an integer, got {budget!r}")
    return question_id, budget


def question_from_json_loop(obj: object) -> cotbudget.grading.Question:
    """A question from one parsed JSONL line, each fault checked by hand.

    The choices are checked before the string fields, and the gold label last.
    """
    if not isinstance(obj, dict):
        raise RecordSchemaError(f"question must be a JSON object, got {type(obj).__name__}")
    missing = [name for name in QUESTION_FIELDS if name not in obj]
    if missing:
        raise RecordSchemaError("missing required field(s): " + ", ".join(missing))
    choices = obj.get("choices")
    if choices is not None and not (
        isinstance(choices, list)
        and all(
            isinstance(c, dict)
            and isinstance(c.get("label"), str)
            and c["label"]
            and isinstance(c.get("text"), str)
            for c in choices
        )
    ):
        raise RecordSchemaError(
            "field 'choices' must be a list of objects with a non-empty string 'label' "
            f"and a string 'text', got {choices!r}"
        )
    for name in QUESTION_FIELDS:
        value = obj[name]
        if type(value) is not str or not value:
            raise RecordSchemaError(f"field {name!r} must be a non-empty string, got {value!r}")
    if choices and obj["gold_answer"].casefold() not in {c["label"].casefold() for c in choices}:
        raise RecordSchemaError(
            f"question {obj['question_id']!r}: gold_answer {obj['gold_answer']!r} "
            "is not one of the choice labels"
        )
    return cotbudget.grading.Question(
        question_id=obj["question_id"],
        text=obj["text"],
        gold_answer=obj["gold_answer"],
        choices=(tuple(cotbudget.grading.Choice(c["label"], c["text"]) for c in choices)
                 if choices else None),
    )


def load_budgets_loop(path: str | Path) -> dict[str, int]:
    """budget_entry_loop per line; a repeated question keeps its last budget."""
    budgets: dict[str, int] = {}
    for line_no, obj in read_jsonl(path):
        try:
            question_id, budget = budget_entry_loop(obj)
        except RecordSchemaError as exc:
            raise RecordSchemaError(exc.reason, path=str(path), line_no=line_no) from exc
        budgets[question_id] = budget
    return budgets


def load_questions_loop(path: str | Path) -> list[cotbudget.grading.Question]:
    """question_from_json_loop per line, then the repeated-id check of that line."""
    out: list[cotbudget.grading.Question] = []
    first: dict[str, int] = {}
    for line_no, obj in read_jsonl(path):
        try:
            question = question_from_json_loop(obj)
        except RecordSchemaError as exc:
            raise RecordSchemaError(exc.reason, path=str(path), line_no=line_no) from exc
        if first.setdefault(question.question_id, line_no) != line_no:
            raise RecordSchemaError(
                f"duplicate question_id {question.question_id!r} "
                f"(first on line {first[question.question_id]})",
                path=str(path),
                line_no=line_no,
            )
        out.append(question)
    return out


def strip_wrapping_stack(s: str) -> str:
    """The grader's peel one layer at a time: strip the blanks, and on the right
    the periods too, then drop the outer "(" and ")" when a stack pairs them."""
    while True:
        s = s.lstrip()
        while s and (s[-1] == "." or s[-1].isspace()):
            s = s[:-1]
        if not (s.startswith("(") and s.endswith(")")):
            return s
        stack, partner = [], None
        for index, char in enumerate(s):
            if char == "(":
                stack.append(index)
            elif char == ")" and stack.pop() == 0:
                partner = index
                break
        if partner != len(s) - 1:
            return s
        s = s[1:-1]


def grade_choice_first_letter(response: str, gold_label: str) -> tuple[bool, str | None]:
    """The grader on a choice question as it was while it read only one ASCII letter: the
    answer's first character, when it is one and stands alone or before a character
    outside [A-Za-z0-9], against the gold label."""
    matches = ANSWER_PATTERN.findall(response or "")
    extracted = _strip_wrapping(matches[-1]) if matches else ""
    if not extracted:
        return False, None
    m = re.match(r"^([A-Za-z])(?:[^A-Za-z0-9].*)?$", extracted)
    return m is not None and m.group(1).casefold() == gold_label.casefold(), extracted


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


def record_json_loop(record: EvalRecord) -> dict:
    """A record's JSONL object: the required fields, the optional ones set, then extra."""
    out = {
        "model": record.model,
        "dataset": record.dataset,
        "question_id": record.question_id,
        "prompt_id": record.prompt_id,
        "tokens": record.tokens,
        "correct": record.correct,
    }
    if record.response is not None:
        out["response"] = record.response
    if record.extracted_answer is not None:
        out["extracted_answer"] = record.extracted_answer
    out.update(record.extra)
    return out


def unpivot_loop(matrix: RunMatrix) -> list[EvalRecord]:
    """One record per present cell, row-major."""
    out: list[EvalRecord] = []
    for i, qid in enumerate(matrix.question_ids):
        for j, pid in enumerate(matrix.prompt_ids):
            if matrix.present[i, j]:
                out.append(EvalRecord(matrix.model, matrix.dataset, qid, pid,
                                      int(matrix.tokens[i, j]), bool(matrix.correct[i, j])))
    return out


def save_records_loop(records: Iterable[EvalRecord], path: str | Path) -> int:
    """One json.dumps line per record; returns the count written."""
    count = 0
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record_json_loop(record), ensure_ascii=False) + "\n")
            count += 1
    return count


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


def present_cells(matrix: RunMatrix) -> set[tuple[str, str]]:
    """The (question_id, prompt_id) of every present cell, read cell by cell."""
    return {
        (q, p)
        for i, q in enumerate(matrix.question_ids)
        for j, p in enumerate(matrix.prompt_ids)
        if matrix.present[i, j]
    }


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
        tau=[-1 if e.tau_hat == INFINITE else e.tau_hat for e in entries],
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


def profile_from_json_dict_loop(obj: dict) -> ComplexityProfile:
    """ComplexityProfile.from_json_dict as four checked() calls and one Fraction per entry."""
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
    return ComplexityProfile(model, dataset, tuple(first), tau, k_used, c_star, c_bar)


def catalog_from_file_loop(obj: object) -> cotbudget.prompts.PromptCatalog | None:
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
    specs: list[cotbudget.prompts.PromptSpec] = []
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
        specs.append(cotbudget.prompts.PromptSpec(pid, family, instruction, limit, unit))
    return cotbudget.prompts.PromptCatalog(tuple(specs))


def catalog_from_json_loop(obj: object) -> cotbudget.prompts.PromptCatalog:
    """PromptCatalog.load's catalog of a parsed file, or its RecordSchemaError
    without the path, checked one spec and one field at a time.

    Each spec is checked in this order: an object; prompt_id a non-empty
    string; not a repeat of an earlier spec's prompt_id; family a non-empty
    string; instruction a string; limit null or an integer (not a boolean);
    limit_unit null or a string, with a missing limit or limit_unit read as
    null; then the rules of the dataclass PromptSpec, as ``[i]: <reason>``.
    """
    if type(obj) is not list or not obj:
        raise RecordSchemaError(f"the file must hold a non-empty JSON array, got {obj!r:.60}")
    specs: list[cotbudget.prompts.PromptSpec] = []
    for i, spec in enumerate(obj):
        where = f"[{i}]"
        if not isinstance(spec, dict):
            raise RecordSchemaError(f"{where} must be an object, got {spec!r}")
        spec = {"limit": None, "limit_unit": None, **spec}
        pid = checked(spec, "prompt_id", where, NON_EMPTY_STRING)
        earlier = [s.prompt_id for s in specs]
        if pid in earlier:
            raise RecordSchemaError(f"{where}.prompt_id {pid!r} repeats [{earlier.index(pid)}]")
        fields = (
            pid,
            checked(spec, "family", where, NON_EMPTY_STRING),
            checked(spec, "instruction", where, (lambda v: isinstance(v, str), "be a string")),
            checked(spec, "limit", where, (
                lambda v: v is None or (isinstance(v, int) and not isinstance(v, bool)),
                "be null or an integer",
            )),
            checked(spec, "limit_unit", where,
                    (lambda v: v is None or isinstance(v, str), "be null or a string")),
        )
        try:
            PromptSpec(*fields)
        except ValueError as exc:
            raise RecordSchemaError(f"{where}: {exc}") from None
        specs.append(cotbudget.prompts.PromptSpec(*fields))
    return cotbudget.prompts.PromptCatalog(tuple(specs))


def tau_aggregates_loop(taus: Sequence[float]) -> tuple[Fraction, Fraction, Fraction]:
    """(A*, finite-tau total over n, mean finite tau), summed tau by tau."""
    finite = [int(t) for t in taus if t != INFINITE]
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
    for i, pid in enumerate(prompts):
        if pid in prompts[:i]:
            raise ValueError(f"the cascade names prompt {pid!r} twice")
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


def column_sums_whole(tokens: np.ndarray, cells: np.ndarray) -> list[int]:
    """Exact masked column sums from one whole-matrix copy, split into 32-bit halves."""
    kept = np.where(cells, tokens, 0).astype("<i8", copy=False)
    halves = kept.view("<u4").reshape(*kept.shape, 2).sum(axis=0, dtype=np.int64)
    return [(h << 32) + l for l, h in halves.tolist()]


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
    taus: Sequence[int | float],
    n_prompts: int,
    shuffle_seed: int | None = None,
) -> np.ndarray:
    """The straddle length grid, one floor(factor * anchor) per cell.

    The taus pass check_taus_loop, and no finite one is past 2**53.
    """
    check_taus_loop(taus)
    finite = [t for t in taus if t != INFINITE]
    for t in finite:
        if t > 2**53:
            raise ValueError(f"straddle_lengths needs finite taus of at most 2**53, got {t}")
    proxy = 2 * max(finite) if finite else 64
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
        anchor = proxy if tau == INFINITE else tau
        for k in range(n_prompts):
            factor = factors[k] if perms is None else factors[perms[i][k]]
            lengths[i, k] = math.floor(factor * anchor)
    return lengths



def check_taus_loop(taus: Sequence[int | float]) -> None:
    """OracleSpec's rule for its taus, one tau at a time: a Python int from 1
    to 2**63 - 1, or positive infinity as a Python float."""
    for t in taus:
        if type(t) is int and 0 < t < 2**63:
            continue
        if type(t) is float and t > 0 and math.isinf(t):
            continue
        raise ValueError(f"taus must be integers in [1, {TOKENS_MAX}] or INFINITE, got {t!r}")


def random_spec_loop(
    n: int, seed: int = 0, violation_rate: float = 0.0, n_prompts: int = 31
) -> OracleSpec:
    """One generator call per question's tau, then each infinite one set by index."""
    rng = np.random.default_rng(seed)
    lo, hi = TAU_RANGE
    taus = [int(rng.integers(lo, hi + 1)) for _ in range(n)]
    n_inf = int(round(INFINITE_SHARE * n))
    if n_inf:
        for idx in rng.choice(n, size=n_inf, replace=False):
            taus[idx] = INFINITE
    return OracleSpec(
        n=n,
        prompt_lengths=straddle_lengths_loop(taus, n_prompts, shuffle_seed=seed),
        taus=tuple(taus),
        violation_rate=violation_rate,
        seed=seed,
    )


def generate_loop(spec: OracleSpec) -> tuple[np.ndarray, np.ndarray]:
    """A spec's (tokens, correct), one cell at a time.

    A length reaches a finite tau when it does as Python ints; no length
    reaches INFINITE. The flips are the one (n, K) uniform draw.
    """
    n, k = spec.n, spec.prompt_lengths.shape[1]
    flips = np.zeros((n, k), dtype=bool)
    if spec.violation_rate > 0:
        flips = np.random.default_rng(spec.seed).random((n, k)) < spec.violation_rate
    tokens = np.empty((n, k), dtype=np.int64)
    correct = np.empty((n, k), dtype=bool)
    for i, tau in enumerate(spec.taus):
        row = [int(v) for v in spec.prompt_lengths[i if len(spec.prompt_lengths) == n else 0]]
        solved = [tau != INFINITE and length >= tau for length in row]
        if tau != INFINITE and (all(solved) or not any(solved)):
            raise GenerationError(
                f"question {i} (tau={tau}) has no straddling lengths: "
                f"min={min(row)}, max={max(row)}"
            )
        for j in range(k):
            tokens[i, j] = row[j]
            correct[i, j] = solved[j] != flips[i, j]
    return tokens, correct


class _SourceDeadlineReader(io.RawIOBase):
    """A socket file's reader that gives each read the time left until a deadline."""

    def __init__(self, source: io.RawIOBase, sock, deadline: float) -> None:
        self._source, self._sock, self._deadline = source, sock, deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("timed out")
        self._sock.settimeout(left)
        return self._source.readinto(buffer)

    def close(self) -> None:
        self._source.close()
        super().close()


def _reply_by(deadline: float, sock, *args, **kwargs):
    """An http.client reply that reads sock, status line and headers included,
    through a _SourceDeadlineReader: a connection's ``response_class``."""
    from http.client import HTTPResponse

    reply = HTTPResponse(sock, *args, **kwargs)
    reply.fp = io.BufferedReader(_SourceDeadlineReader(reply.fp.detach(), sock, deadline))
    return reply


class HttpClientTransport:
    """The http.client transport: one HTTPConnection, on which post sends as
    transport._Transport.post does (see its docstring)."""

    def __init__(self, endpoint: str, timeout: float) -> None:
        import http.client
        from base64 import b64encode
        from urllib.parse import unquote, urlsplit

        url = urlsplit(endpoint)
        host, port = url.hostname, url.port or (443 if url.scheme == "https" else 80)
        self.target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self.headers = _request_headers()
        context = _tls_context() if url.scheme == "https" else None
        via = _proxy(url)
        tunnel_headers: dict[str, str] = {}
        if via:
            if via.username:
                credentials = f"{unquote(via.username)}:{unquote(via.password or '')}"
                token = b64encode(credentials.encode("utf-8")).decode("ascii")
                tunnel_headers["Proxy-Authorization"] = f"Basic {token}"
            address = (via.hostname, via.port or 80)
            if url.scheme == "http":
                self.target = f"http://{url.netloc.rpartition('@')[2]}{self.target}"
                self.headers.update(tunnel_headers)
        else:
            address = (host, port)

        if url.scheme == "http":
            self.conn = http.client.HTTPConnection(*address, timeout=timeout)
        else:
            self.conn = http.client.HTTPSConnection(*address, timeout=timeout, context=context)
            if via:
                self.conn.set_tunnel(host, port, headers=tunnel_headers)
        self.timeout = timeout

    def __enter__(self) -> HttpClientTransport:
        return self

    def __exit__(self, *exc) -> None:
        self.conn.close()

    def post(self, body: bytes) -> tuple[int, str | None, bytes]:
        conn = self.conn
        conn.response_class = partial(_reply_by, time.monotonic() + self.timeout)
        try:
            reused = conn.sock is not None
            if reused:
                conn.sock.settimeout(self.timeout)
            try:
                reply = self._exchange(conn, body)
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                reply = self._exchange(conn, body)
            data = reply.read(transport.MAX_REPLY_BYTES + 1)
            if len(data) > transport.MAX_REPLY_BYTES:
                conn.close()
            elif reply.length:
                from http.client import IncompleteRead

                raise IncompleteRead(data, reply.length)
            return reply.status, reply.getheader("Retry-After"), data
        except BaseException:
            conn.close()
            raise

    def _exchange(self, conn, body: bytes):
        conn.request("POST", self.target, body, self.headers)
        return conn.getresponse()


# The dataclasses that grading's, collect's and prompts' slotted FrozenValue
# classes replaced, so that a sweep need not import dataclasses. Each keeps the
# original's name, so that reprs compare as text.


@dataclass(frozen=True)
class Choice:
    label: str
    text: str


@dataclass(frozen=True, slots=True)
class Question:
    question_id: str
    text: str
    gold_answer: str
    choices: tuple[Choice, ...] | None = None

    def __post_init__(self) -> None:
        fields = {name: getattr(self, name) for name in QUESTION_FIELDS}
        check_line(fields, "question", (), _QUESTION_RULES)
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))
            labels = {c.label.casefold() for c in self.choices}
            if self.gold_answer.casefold() not in labels:
                raise RecordSchemaError(
                    f"question {self.question_id!r}: gold_answer {self.gold_answer!r} "
                    "is not one of the choice labels"
                )


@dataclass(frozen=True)
class PromptSpec:
    prompt_id: str
    family: str
    instruction: str
    limit: int | None = None
    limit_unit: str | None = None

    def __post_init__(self) -> None:
        for name, (test, expected) in cotbudget.prompts._SPEC_RULES.items():
            value = getattr(self, name)
            if not test(value):
                raise ValueError(f"{name} must {expected}, got {value!r}")
        parameterized = self.family in PARAMETERIZED_FAMILIES
        if not parameterized and self.family not in FIXED_INSTRUCTIONS:
            raise ValueError(f"unknown prompt family {self.family!r}")
        if parameterized:
            if self.limit is None:
                raise ValueError(f"family {self.family!r} requires a limit")
            _, unit, (lo, hi) = PARAMETERIZED_FAMILIES[self.family]
            if self.limit < lo or (hi is not None and self.limit > hi):
                upper = hi if hi is not None else "inf"
                raise ValueError(
                    f"limit {self.limit} out of range [{lo}, {upper}] for family {self.family!r}"
                )
            if self.limit_unit != unit:
                raise ValueError(f"family {self.family!r} uses limit_unit {unit!r}")
        elif self.limit is not None or self.limit_unit is not None:
            raise ValueError(f"family {self.family!r} does not take a limit")


@dataclass(frozen=True)
class PromptCatalog:
    specs: tuple[PromptSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        ids = [s.prompt_id for s in self.specs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError("duplicate prompt_id(s): " + ", ".join(dupes))


@dataclass(frozen=True)
class SweepConfig:
    endpoint: str
    model: str
    dataset: str
    catalog: PromptCatalog
    max_parallel: int = 1
    retries: int = 3
    temperature: float = 0.0
    timeout: float = 120.0

    def __post_init__(self) -> None:
        for name in ("model", "dataset"):
            value = getattr(self, name)
            if type(value) is not str or not value:
                raise ValueError(f"{name} must be a non-empty string, got {value!r}")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be a finite number")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be a finite number above 0, got {self.timeout!r}")
        _Transport(self.endpoint, self.timeout)


@dataclass
class SweepSummary:
    requested: int = 0
    skipped: int = 0
    succeeded: int = 0
    failed: int = 0
    retries: int = 0
