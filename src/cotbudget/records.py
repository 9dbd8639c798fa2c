"""Evaluation-record data model: the record object, and the question-by-prompt pivot.

A record is one chain-of-thought run of a (model, dataset, question, prompt)
cell: the output token count and whether the graded answer was correct. All
analysis consumes the pivoted RunMatrix, never loose records. A records file
becomes matrices through ``read_matrices``, which keeps the matrices of each
file it parsed in a content-addressed cache (``cotbudget.cache``), and a
matrix becomes a file through ``save_matrix``, a block of rows at a time.

Record lines are read only by ``inputs.record_cells``, which needs no
numpy, so ``collect --resume`` reads a prior file through the same checks
without loading this module. ``inputs.PairRecords.add`` codes the keys of
a file and of ``pivot`` alike: it keeps each record's two int codes and
line, and a bitmask of prompts per question, so a file's repeated key
raises on its second line, naming both. ``_parse``, the cache's one
parser, adds each record's tokens and correctness, holding no object per
record (about 25 bytes a record). ``_place`` only places one pair's records
into the n x K matrix. ``EvalRecord`` objects are built only for
``load_records``.
"""
from __future__ import annotations

import functools
import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, Sequence

import numpy as np

from .errors import DuplicateRecordError, EmptySelectionError, utf8_bytes
from .inputs import RECORD_RULES, REQUIRED_FIELDS, PairRecords, check_line, check_pair, record_cells

# Cells per block of rows that save_matrix formats at once. The numpy kernels
# block by complexity.BLOCK_ROWS rows, a few bytes a cell; here each cell
# becomes Python ints and a line (about 100 B), and K differs from file to
# file, so the block is sized in cells: about 1 MB of objects at any K.
SAVE_CELLS = 1 << 13

OPTIONAL_FIELDS = ("response", "extracted_answer")


@dataclass(frozen=True)
class EvalRecord:
    """One (model, dataset, question, prompt) run: token length plus correctness.

    ``extra`` keeps unknown JSONL fields verbatim; every analysis ignores them.
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
        check_line(self.__dict__, "record", (), RECORD_RULES)

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.model, self.dataset, self.question_id, self.prompt_id)


def load_records(path: str | Path) -> list[EvalRecord]:
    """Load a JSONL record file, validating schema and key uniqueness.

    Raises RecordParseError / RecordSchemaError with 1-based line numbers and
    DuplicateRecordError naming the repeated key. Blank lines are skipped.
    The records of a file share one string object per distinct id.
    """
    known = set(REQUIRED_FIELDS) | set(OPTIONAL_FIELDS)
    share = {}.setdefault  # a pair's model and dataset are shared already
    return [
        EvalRecord(
            pair.model,
            pair.dataset,
            share(obj["question_id"], obj["question_id"]),
            share(obj["prompt_id"], obj["prompt_id"]),
            tokens,
            correct,
            obj.get("response"),
            obj.get("extracted_answer"),
            {k: v for k, v in obj.items() if k not in known},
        )
        for pair, tokens, correct, obj in record_cells(Path(path))
    ]


def read_matrices(path: str | Path) -> dict[tuple[str, str], RunMatrix]:
    """Every (model, dataset) pair's RunMatrix of a JSONL record file, pairs sorted.

    Each matrix equals ``pivot(load_records(path), model, dataset)``, and a
    bad file raises the error load_records raises. A regular file is parsed
    once: its matrices are cached under a hash of its bytes (see
    cotbudget.cache), and later calls on the same bytes load them from there.
    """
    from . import cache  # imported here, so commands that read no records skip it

    return cache.read(Path(path))


def _parse(path: Path, source: BinaryIO) -> dict[tuple[str, str], RunMatrix]:
    """A records file's matrices, pairs sorted, from one pass of inputs.record_cells.

    Each pair's PairRecords (codes, and each record's row and column) is kept
    with its records' token counts and correctness, in line order. A pair's
    columns are dropped once _place has built its matrix, so none is alive
    when the cache writes its entry.
    """
    groups: dict[PairRecords, tuple[array, bytearray]] = {}  # by object: one lookup a record
    for pair, tokens, correct, _ in record_cells(path, source):
        columns = groups.get(pair)
        if columns is None:
            columns = groups[pair] = (array("q"), bytearray())
        columns[0].append(tokens)
        columns[1].append(correct)
    named = {(pair.model, pair.dataset): (pair, *groups.pop(pair)) for pair in list(groups)}
    return {key: _place(*named.pop(key)) for key in sorted(named)}


def save_matrix(matrix: RunMatrix, path: str | Path) -> int:
    """Write a RunMatrix as records JSONL; returns the count written.

    One line per present cell, row-major, ids JSON-encoded once each; the
    fields of a line are model, dataset, question_id, prompt_id, tokens and
    correct, in that order, as ``json.dumps(..., ensure_ascii=False)`` writes them.
    An id UTF-8 cannot encode is a CotBudgetError raised before the file is
    opened, so a file already at path is left as it was. Lines are formatted
    a block of rows (about SAVE_CELLS cells) at a time, so the Python values
    alive at once do not grow with the matrix.
    """
    dumps = functools.partial(json.dumps, ensure_ascii=False)
    head = f'{{"model": {dumps(matrix.model)}, "dataset": {dumps(matrix.dataset)}, "question_id": '
    questions = [head + dumps(q) + ', "prompt_id": ' for q in matrix.question_ids]
    prompts = [dumps(p) + ', "tokens": ' for p in matrix.prompt_ids]
    utf8_bytes(path, "".join([head, *questions, *prompts]))
    step = max(1, SAVE_CELLS // matrix.n_prompts)
    count = 0
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, matrix.n_questions, step):
            block = slice(start, start + step)
            rows, cols = np.nonzero(matrix.present[block])
            tokens = matrix.tokens[block][rows, cols].tolist()
            correct = matrix.correct[block][rows, cols].tolist()
            lines = questions[block]
            fh.writelines(
                f'{lines[i]}{prompts[j]}{t}, "correct": {"true" if c else "false"}}}\n'
                for i, j, t, c in zip(rows.tolist(), cols.tolist(), tokens, correct)
            )
            count += len(tokens)
    return count


class Ids(tuple):
    """Ids checked when built, by pickle and copy too: a ValueError, naming them
    ``name``, if one repeats, is empty or is not a string. An Ids is returned as it is."""

    __slots__ = ()

    def __new__(cls, ids: Iterable[str], name: str = "ids") -> Ids:
        if type(ids) is cls:
            return ids
        ids = super().__new__(cls, ids)
        distinct = dict.fromkeys(ids)  # smaller than a set of 20k ids
        if len(distinct) != len(ids):
            seen: set[str] = set()
            repeat = next(key for key in ids if key in seen or seen.add(key))
            raise ValueError(f"{name} repeat {repeat!r}")
        if "" in distinct:
            raise ValueError(f"{name} hold an empty id")
        for key in distinct:
            if not isinstance(key, str):
                raise ValueError(f"{name} hold a non-string id {key!r}")
        return ids

    def __reduce__(self):
        return Ids, (tuple(self),)


@dataclass(frozen=True, eq=False)
class RunMatrix:
    """The n x K pivot of records for one (model, dataset) pair.

    ``present`` masks cells that have no record; every absent cell holds 0
    tokens and False in the copies the constructor makes, so kernels may read
    all cells. What the records and profile formats refuse is a ValueError: an
    empty or non-string model or dataset, an axis with no ids, and a repeated,
    empty or non-string id. The ids are kept as Ids, and an Ids given as it is.
    Instances are immutable after construction and safe to share across
    threads.
    """

    model: str
    dataset: str
    question_ids: Ids
    prompt_ids: Ids
    tokens: np.ndarray
    correct: np.ndarray
    present: np.ndarray

    def __post_init__(self) -> None:
        check_pair(self.model, self.dataset)
        for name in ("question_ids", "prompt_ids"):
            ids = Ids(getattr(self, name), name)
            if not ids:
                raise ValueError(f"{name} must hold at least one id")
            object.__setattr__(self, name, ids)
        n, k = len(self.question_ids), len(self.prompt_ids)
        tokens = np.array(self.tokens, dtype=np.int64, order="C")
        correct = np.array(self.correct, dtype=bool, order="C")
        present = np.array(self.present, dtype=bool, order="C")
        arrays = {"tokens": tokens, "correct": correct, "present": present}
        for name, arr in arrays.items():
            if arr.shape != (n, k):
                raise ValueError(f"{name} has shape {arr.shape}, expected {(n, k)}")
        tokens *= present
        correct &= present
        if np.any(tokens < 0):
            raise ValueError("token counts must be non-negative")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_questions(self) -> int:
        return len(self.question_ids)

    @property
    def n_prompts(self) -> int:
        return len(self.prompt_ids)

    def prompt_index(self, prompt_id: str) -> int:
        try:
            return self.prompt_ids.index(prompt_id)
        except ValueError:
            raise ValueError(f"unknown prompt_id {prompt_id!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunMatrix):
            return NotImplemented
        return (
            self.model == other.model
            and self.dataset == other.dataset
            and self.question_ids == other.question_ids
            and self.prompt_ids == other.prompt_ids
            and np.array_equal(self.present, other.present)
            and np.array_equal(self.tokens, other.tokens)
            and np.array_equal(self.correct, other.correct)
        )


def pivot(records: Iterable[EvalRecord], model: str, dataset: str) -> RunMatrix:
    """Pivot records matching (model, dataset) into a RunMatrix.

    Question and prompt orderings are lexicographic, so the result does not
    depend on input order. Absent cells are masked out, never fabricated.
    """
    pair = PairRecords(model, dataset)
    tokens, correct = array("q"), bytearray()
    for position, r in enumerate(records):
        if r.model == model and r.dataset == dataset:
            if pair.add(r.question_id, r.prompt_id, position) is not None:
                raise DuplicateRecordError(r.key)
            tokens.append(r.tokens)
            correct.append(r.correct)
    if not tokens:
        raise EmptySelectionError(f"no records for model={model!r} dataset={dataset!r}")
    return _place(pair, tokens, correct)


def _place(pair: PairRecords, tokens: Sequence[int], correct: Sequence[bool]) -> RunMatrix:
    """One pair's n x K matrix, ids sorted: record i, the one ``pair`` kept i-th,
    fills its cell (rows[i], cols[i]) in code order with tokens[i] and correct[i]."""
    # Python sorts and dicts, not np.unique: a numpy 'U' array drops trailing
    # NULs, which would merge "q1\x00" with "q1".
    row_ids, row_of = _ranks(pair.cells.question_codes)
    col_ids, col_of = _ranks(pair.cells.prompt_codes)
    n, k = len(row_ids), len(col_ids)
    cells = row_of[np.asarray(pair.rows)]
    cells *= k
    cells += col_of[np.asarray(pair.cols)]
    present = np.zeros(n * k, dtype=bool)
    present[cells] = True
    values = np.zeros(present.shape, dtype=np.int64)
    values[cells] = np.asarray(tokens, dtype=np.int64)
    hits = np.zeros(present.shape, dtype=bool)
    hits[cells] = np.asarray(correct, dtype=bool)
    del cells  # a record's index is no longer needed when RunMatrix copies the arrays
    return RunMatrix(pair.model, pair.dataset, row_ids, col_ids,
                     values.reshape(n, k), hits.reshape(n, k), present.reshape(n, k))


def _ranks(codes: Mapping[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids in sorted order, and each code's position in that order (indexed by code)."""
    ids = tuple(sorted(codes))
    rank = np.empty(len(ids), dtype=np.intp)
    rank[np.fromiter(map(codes.__getitem__, ids), np.intp, len(ids))] = np.arange(len(ids))
    return ids, rank
