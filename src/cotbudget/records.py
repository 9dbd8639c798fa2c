"""Evaluation-record data model: JSONL ingestion and the question-by-prompt pivot.

A record is one chain-of-thought run of a (model, dataset, question, prompt)
cell: the output token count and whether the graded answer was correct. All
analysis consumes the pivoted RunMatrix, never loose records.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateRecordError,
    EmptySelectionError,
    RecordParseError,
    RecordSchemaError,
)

REQUIRED_FIELDS = ("model", "dataset", "question_id", "prompt_id", "tokens", "correct")
OPTIONAL_FIELDS = ("response", "extracted_answer")


@dataclass(frozen=True)
class EvalRecord:
    """One (model, dataset, question, prompt) run: token length plus correctness.

    ``extra`` holds unknown JSONL fields verbatim; they are written back on
    save and ignored by every analysis.
    """

    model: str
    dataset: str
    question_id: str
    prompt_id: str
    tokens: int
    correct: bool
    response: str | None = None
    extracted_answer: str | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("model", "dataset", "question_id", "prompt_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise RecordSchemaError(f"field {name!r} must be a non-empty string, got {value!r}")
        if isinstance(self.tokens, bool) or not isinstance(self.tokens, int):
            raise RecordSchemaError(f"field 'tokens' must be an integer, got {self.tokens!r}")
        if self.tokens < 0:
            raise RecordSchemaError(f"field 'tokens' must be non-negative, got {self.tokens}")
        if not isinstance(self.correct, bool):
            raise RecordSchemaError(f"field 'correct' must be a boolean, got {self.correct!r}")

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.model, self.dataset, self.question_id, self.prompt_id)

    @classmethod
    def from_json_dict(cls, obj: dict) -> EvalRecord:
        """Build a record from a parsed JSONL object, keeping unknown fields."""
        if not isinstance(obj, dict):
            raise RecordSchemaError(f"record must be a JSON object, got {type(obj).__name__}")
        missing = [name for name in REQUIRED_FIELDS if name not in obj]
        if missing:
            raise RecordSchemaError("missing required field(s): " + ", ".join(missing))
        known = set(REQUIRED_FIELDS) | set(OPTIONAL_FIELDS)
        extra = {k: v for k, v in obj.items() if k not in known}
        return cls(
            model=obj["model"],
            dataset=obj["dataset"],
            question_id=obj["question_id"],
            prompt_id=obj["prompt_id"],
            tokens=obj["tokens"],
            correct=obj["correct"],
            response=obj.get("response"),
            extracted_answer=obj.get("extracted_answer"),
            extra=extra,
        )

    def to_json_dict(self) -> dict:
        out = {
            "model": self.model,
            "dataset": self.dataset,
            "question_id": self.question_id,
            "prompt_id": self.prompt_id,
            "tokens": self.tokens,
            "correct": self.correct,
        }
        if self.response is not None:
            out["response"] = self.response
        if self.extracted_answer is not None:
            out["extracted_answer"] = self.extracted_answer
        out.update(self.extra)
        return out


def load_records(path: str | Path) -> list[EvalRecord]:
    """Load a JSONL record file, validating schema and key uniqueness.

    Raises RecordParseError / RecordSchemaError with 1-based line numbers and
    DuplicateRecordError naming the repeated key. Blank lines are skipped.
    """
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


def save_records(records: Iterable[EvalRecord], path: str | Path) -> int:
    """Write records as JSONL (one object per line); returns the count written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_dict(), ensure_ascii=False) + "\n")
            count += 1
    return count


@dataclass(frozen=True, eq=False)
class RunMatrix:
    """The n x K pivot of records for one (model, dataset) pair.

    ``present`` masks cells that have no record; token and correctness values
    of absent cells are padding and must never be read. ``question_pos`` and
    ``prompt_pos`` map each id to its row or column (the first one, should
    an id repeat). Instances are immutable after construction and safe to
    share across threads.
    """

    model: str
    dataset: str
    question_ids: tuple[str, ...]
    prompt_ids: tuple[str, ...]
    tokens: np.ndarray
    correct: np.ndarray
    present: np.ndarray
    question_pos: Mapping[str, int] = field(init=False, repr=False)
    prompt_pos: Mapping[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, k = len(self.question_ids), len(self.prompt_ids)
        tokens = np.array(self.tokens, dtype=np.int64)
        correct = np.array(self.correct, dtype=bool)
        present = np.array(self.present, dtype=bool)
        for name, arr in (("tokens", tokens), ("correct", correct), ("present", present)):
            if arr.shape != (n, k):
                raise ValueError(f"{name} has shape {arr.shape}, expected {(n, k)}")
            arr.setflags(write=False)
        if tokens[present].size and tokens[present].min() < 0:
            raise ValueError("token counts must be non-negative")
        object.__setattr__(self, "question_ids", tuple(self.question_ids))
        object.__setattr__(self, "prompt_ids", tuple(self.prompt_ids))
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "correct", correct)
        object.__setattr__(self, "present", present)
        object.__setattr__(self, "question_pos", _positions(self.question_ids))
        object.__setattr__(self, "prompt_pos", _positions(self.prompt_ids))

    @property
    def n_questions(self) -> int:
        return len(self.question_ids)

    @property
    def n_prompts(self) -> int:
        return len(self.prompt_ids)

    def question_index(self, question_id: str) -> int:
        try:
            return self.question_pos[question_id]
        except KeyError:
            raise ValueError(f"unknown question_id {question_id!r}") from None

    def prompt_index(self, prompt_id: str) -> int:
        try:
            return self.prompt_pos[prompt_id]
        except KeyError:
            raise ValueError(f"unknown prompt_id {prompt_id!r}") from None

    def question_runs(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Present-cell (lengths, corrects) for question row i."""
        mask = self.present[i]
        return self.tokens[i, mask], self.correct[i, mask]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunMatrix):
            return NotImplemented
        return (
            self.model == other.model
            and self.dataset == other.dataset
            and self.question_ids == other.question_ids
            and self.prompt_ids == other.prompt_ids
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.tokens[self.present], other.tokens[other.present])
            and np.array_equal(self.correct[self.present], other.correct[other.present])
        )


def _positions(ids: Sequence[str]) -> Mapping[str, int]:
    """Read-only id -> index map that keeps the first index of a repeated id."""
    positions: dict[str, int] = {}
    for index, key in enumerate(ids):
        positions.setdefault(key, index)
    return MappingProxyType(positions)


def pivot(records: Iterable[EvalRecord], model: str, dataset: str) -> RunMatrix:
    """Pivot records matching (model, dataset) into a RunMatrix.

    Question and prompt orderings are lexicographic, so the result does not
    depend on input order. Absent cells are masked out, never fabricated.
    """
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


def unpivot(matrix: RunMatrix) -> list[EvalRecord]:
    """Expand a RunMatrix back into one record per present cell (row-major)."""
    out: list[EvalRecord] = []
    for i, qid in enumerate(matrix.question_ids):
        for j, pid in enumerate(matrix.prompt_ids):
            if matrix.present[i, j]:
                out.append(
                    EvalRecord(
                        model=matrix.model,
                        dataset=matrix.dataset,
                        question_id=qid,
                        prompt_id=pid,
                        tokens=int(matrix.tokens[i, j]),
                        correct=bool(matrix.correct[i, j]),
                    )
                )
    return out


def distinct_pairs(records: Iterable[EvalRecord]) -> list[tuple[str, str]]:
    """Sorted distinct (model, dataset) pairs present in a record set."""
    return sorted({(r.model, r.dataset) for r in records})
