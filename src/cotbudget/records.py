"""Evaluation-record data model: JSONL ingestion and the question-by-prompt pivot.

A record is one chain-of-thought run of a (model, dataset, question, prompt)
cell: the output token count and whether the graded answer was correct. All
analysis consumes the pivoted RunMatrix, never loose records. Files go to and
from the matrix column by column (``read_columns``, ``save_matrix``);
``EvalRecord`` objects are built only for callers that ask for them.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateRecordError,
    EmptySelectionError,
    RecordParseError,
    RecordSchemaError,
)

REQUIRED_FIELDS = ("model", "dataset", "question_id", "prompt_id", "tokens", "correct")
OPTIONAL_FIELDS = ("response", "extracted_answer")
TOKENS_MAX = int(np.iinfo(np.int64).max)


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
        if self.tokens > TOKENS_MAX:
            raise RecordSchemaError(
                f"field 'tokens' must fit in a signed 64-bit integer (at most {TOKENS_MAX}), "
                f"got {self.tokens}"
            )
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


Key = tuple[str, str, str, str]


def _scan(path: Path) -> Iterator[tuple[Key, int, bool, dict]]:
    """Yield (key, tokens, correct, object) for each record line of a JSONL file.

    The file is read one line at a time. A line that fails the inline field
    check is handed to EvalRecord, whose error becomes the RecordSchemaError,
    so both report the same reason. Equal key strings are shared between
    lines, so a file holds each distinct id in memory once.
    """
    seen: dict[Key, int] = {}
    shared: dict[str, str] = {}
    share = shared.setdefault
    loads = json.loads
    with path.open("r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                try:
                    obj = loads(line)
                except json.JSONDecodeError as exc:
                    # A blank line never parses, so it is looked for only here.
                    if not line.strip():
                        continue
                    raise RecordParseError(str(path), line_no, f"malformed JSON: {exc.msg}") from exc
                if type(obj) is not dict:
                    raise _schema_error(obj, path, line_no)
                model = obj.get("model")
                dataset = obj.get("dataset")
                question_id = obj.get("question_id")
                prompt_id = obj.get("prompt_id")
                tokens = obj.get("tokens")
                correct = obj.get("correct")
                if not (
                    type(model) is str and model
                    and type(dataset) is str and dataset
                    and type(question_id) is str and question_id
                    and type(prompt_id) is str and prompt_id
                    and type(tokens) is int and 0 <= tokens <= TOKENS_MAX
                    and type(correct) is bool
                ):
                    raise _schema_error(obj, path, line_no)
                key = (
                    share(model, model),
                    share(dataset, dataset),
                    share(question_id, question_id),
                    share(prompt_id, prompt_id),
                )
                first = seen.setdefault(key, line_no)
                if first != line_no:
                    raise DuplicateRecordError(key, f"lines {first} and {line_no} of {path}")
                yield key, tokens, correct, obj
        except UnicodeDecodeError as exc:
            raise utf8_error(path, exc) from exc


def utf8_error(path: str | Path, exc: UnicodeDecodeError) -> RecordParseError:
    """The RecordParseError for the first line of a file that is not UTF-8.

    ``exc`` is what the text reader raised; its position counts from the
    start of a decoder chunk, not of the file, so the file's bytes are read
    again, split into lines as the text reader splits them (newline, CR-LF
    or CR), to find the line.
    """
    for line_no, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as bad:
            return RecordParseError(
                str(path),
                line_no,
                f"not UTF-8: byte {raw[bad.start]:#04x} at column {bad.start + 1} ({bad.reason})",
            )
    raise AssertionError(f"{path}: the text reader failed ({exc}) but every line decodes")


def _schema_error(obj: object, path: Path, line_no: int) -> RecordSchemaError:
    """The error EvalRecord raises for a line the inline check rejected."""
    try:
        EvalRecord.from_json_dict(obj)  # type: ignore[arg-type]
    except RecordSchemaError as exc:
        return RecordSchemaError(exc.reason, path=str(path), line_no=line_no)
    raise AssertionError(f"{path}:{line_no}: inline record check disagrees with EvalRecord")


def load_records(path: str | Path) -> list[EvalRecord]:
    """Load a JSONL record file, validating schema and key uniqueness.

    Raises RecordParseError / RecordSchemaError with 1-based line numbers and
    DuplicateRecordError naming the repeated key. Blank lines are skipped.
    """
    return [EvalRecord.from_json_dict(obj) for _, _, _, obj in _scan(Path(path))]


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """A record file's analysed fields as aligned lists, in file order.

    ``keys`` holds each record's (model, dataset, question_id, prompt_id);
    ``tokens`` and ``correct`` are aligned with it. Optional and unknown
    fields are not kept.
    """

    keys: list[Key]
    tokens: list[int]
    correct: list[bool]

    @property
    def pairs(self) -> list[tuple[str, str]]:
        """Sorted distinct (model, dataset) pairs."""
        return sorted({(model, dataset) for model, dataset, _, _ in self.keys})

    def _rows(self, model: str, dataset: str) -> list[int]:
        return [i for i, key in enumerate(self.keys) if key[0] == model and key[1] == dataset]

    def cells(self, model: str, dataset: str) -> set[tuple[str, str]]:
        """(question_id, prompt_id) cells present for a (model, dataset) pair."""
        return {(self.keys[i][2], self.keys[i][3]) for i in self._rows(model, dataset)}

    def matrix(self, model: str, dataset: str) -> RunMatrix:
        """The RunMatrix of one (model, dataset) pair; the same result as pivot."""
        rows = self._rows(model, dataset)
        keys, tokens, correct = self.keys, self.tokens, self.correct
        return _pivot(
            model,
            dataset,
            [keys[i][2] for i in rows],
            [keys[i][3] for i in rows],
            [tokens[i] for i in rows],
            [correct[i] for i in rows],
        )


def read_columns(path: str | Path) -> RecordColumns:
    """Load a JSONL record file into columns; the checks and errors of load_records."""
    keys: list[Key] = []
    tokens: list[int] = []
    correct: list[bool] = []
    for key, count, ok, _ in _scan(Path(path)):
        keys.append(key)
        tokens.append(count)
        correct.append(ok)
    return RecordColumns(keys, tokens, correct)


def save_records(records: Iterable[EvalRecord], path: str | Path) -> int:
    """Write records as JSONL (one object per line); returns the count written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_dict(), ensure_ascii=False) + "\n")
            count += 1
    return count


def save_matrix(matrix: RunMatrix, path: str | Path) -> int:
    """Write a RunMatrix as records JSONL; returns the count written.

    The file is byte-identical to ``save_records(unpivot(matrix), path)``:
    one line per present cell, row-major, ids JSON-encoded once each.
    """
    dumps = functools.partial(json.dumps, ensure_ascii=False)
    head = f'{{"model": {dumps(matrix.model)}, "dataset": {dumps(matrix.dataset)}, "question_id": '
    questions = [head + dumps(q) + ', "prompt_id": ' for q in matrix.question_ids]
    prompts = [dumps(p) + ', "tokens": ' for p in matrix.prompt_ids]
    rows, cols = np.nonzero(matrix.present)
    tokens = matrix.tokens[rows, cols].tolist()
    correct = matrix.correct[rows, cols].tolist()
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            f'{questions[i]}{prompts[j]}{t}, "correct": {"true" if c else "false"}}}\n'
            for i, j, t, c in zip(rows.tolist(), cols.tolist(), tokens, correct)
        )
    return len(tokens)


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
    return _pivot(
        model,
        dataset,
        [r.question_id for r in selected],
        [r.prompt_id for r in selected],
        [r.tokens for r in selected],
        [r.correct for r in selected],
    )


def _pivot(
    model: str,
    dataset: str,
    question_ids: list[str],
    prompt_ids: list[str],
    tokens: list[int],
    correct: list[bool],
) -> RunMatrix:
    """Place aligned per-record columns of one pair into an n x K matrix."""
    if not question_ids:
        raise EmptySelectionError(f"no records for model={model!r} dataset={dataset!r}")
    # Python sorts and dicts, not np.unique: a numpy 'U' array drops trailing
    # NULs, which would merge "q1\x00" with "q1".
    row_ids = tuple(sorted(set(question_ids)))
    col_ids = tuple(sorted(set(prompt_ids)))
    row_of = {q: i for i, q in enumerate(row_ids)}
    col_of = {p: j for j, p in enumerate(col_ids)}
    count, n, k = len(question_ids), len(row_ids), len(col_ids)
    cells = np.fromiter(map(row_of.__getitem__, question_ids), np.intp, count) * k
    cells += np.fromiter(map(col_of.__getitem__, prompt_ids), np.intp, count)
    present = np.zeros(n * k, dtype=bool)
    present[cells] = True
    if np.count_nonzero(present) != count:
        filled: set[int] = set()
        for index, cell in enumerate(cells.tolist()):
            if cell in filled:
                raise DuplicateRecordError((model, dataset, question_ids[index], prompt_ids[index]))
            filled.add(cell)
    values = np.zeros(present.shape, dtype=np.int64)
    values[cells] = np.array(tokens, dtype=np.int64)
    hits = np.zeros(present.shape, dtype=bool)
    hits[cells] = np.array(correct, dtype=bool)
    return RunMatrix(
        model,
        dataset,
        row_ids,
        col_ids,
        values.reshape(n, k),
        hits.reshape(n, k),
        present.reshape(n, k),
    )


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
