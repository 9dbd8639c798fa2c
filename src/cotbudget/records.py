"""Evaluation-record data model: the records line, and the question-by-prompt pivot.

A record is one chain-of-thought run of a (model, dataset, question, prompt)
cell: the output token count and whether the graded answer was correct. All
analysis consumes the pivoted RunMatrix, never loose records. A records file
becomes matrices through ``read_matrices``, which keeps the matrices of each
file it parsed in a content-addressed cache (``cotbudget.cache``), and a
matrix becomes a file through ``save_matrix``. ``EvalRecord`` objects are
built only for callers that ask for them (``load_records``). Lines are read
by ``inputs.read_jsonl`` and a record line is checked against
``RECORD_RULES``; reading and checking every other input file is left to
``cotbudget.inputs``, which needs no numpy.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DuplicateRecordError, EmptySelectionError, RecordSchemaError, utf8_bytes
from .inputs import INTEGER, NON_EMPTY_STRING, TOKENS_MAX, check_line, read_jsonl

REQUIRED_FIELDS = ("model", "dataset", "question_id", "prompt_id", "tokens", "correct")
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


Key = tuple[str, str, str, str]


RECORD_RULES = (
    ("model", NON_EMPTY_STRING),
    ("dataset", NON_EMPTY_STRING),
    ("question_id", NON_EMPTY_STRING),
    ("prompt_id", NON_EMPTY_STRING),
    ("tokens", INTEGER),
    ("tokens", (lambda v: v >= 0, "be non-negative")),
    ("tokens", (lambda v: v <= TOKENS_MAX,
                f"fit in a signed 64-bit integer (at most {TOKENS_MAX})")),
    ("correct", (lambda v: type(v) is bool, "be a boolean")),
)


def _scan(path: Path, source: BinaryIO | None = None) -> Iterator[tuple[Key, int, bool, dict]]:
    """Yield (key, tokens, correct, object) for each record line of a JSONL file.

    A line that fails the inline field check is handed to check_line, whose
    error becomes the RecordSchemaError, so EvalRecord and this scan report
    the same reason. Equal key strings are shared between lines, so a file
    holds each distinct id in memory once. ``source`` is as for read_jsonl.
    """
    seen: dict[Key, int] = {}
    shared: dict[str, str] = {}
    share = shared.setdefault
    for line_no, obj in read_jsonl(path, source):
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


def _schema_error(obj: object, path: Path, line_no: int) -> RecordSchemaError:
    """The error check_line raises for a line the inline check rejected."""
    try:
        check_line(obj, "record", REQUIRED_FIELDS, RECORD_RULES)
    except RecordSchemaError as exc:
        return RecordSchemaError(exc.reason, path=str(path), line_no=line_no)
    raise AssertionError(f"{path}:{line_no}: inline record check disagrees with RECORD_RULES")


def load_records(path: str | Path) -> list[EvalRecord]:
    """Load a JSONL record file, validating schema and key uniqueness.

    Raises RecordParseError / RecordSchemaError with 1-based line numbers and
    DuplicateRecordError naming the repeated key. Blank lines are skipped.
    The records of a file share one string object per distinct id.
    """
    known = set(REQUIRED_FIELDS) | set(OPTIONAL_FIELDS)
    return [
        EvalRecord(
            *key,
            tokens,
            correct,
            obj.get("response"),
            obj.get("extracted_answer"),
            {k: v for k, v in obj.items() if k not in known},
        )
        for key, tokens, correct, obj in _scan(Path(path))
    ]


def read_matrices(path: str | Path) -> dict[tuple[str, str], RunMatrix]:
    """Every (model, dataset) pair's RunMatrix of a JSONL record file, pairs sorted.

    Each matrix equals ``pivot(load_records(path), model, dataset)``, and a
    bad file raises the error load_records raises. A regular file is parsed
    once: its matrices are cached under a hash of its bytes (see
    cotbudget.cache), and later calls on the same bytes load them from there.
    """
    from . import cache  # imported here, so commands that read no records skip it

    path = Path(path)
    with path.open("rb", buffering=0) as raw:
        source = raw
        store = cache.open_cache(raw)
        if store is not None:
            found = store.load(cache.content_digest(raw))
            if found is not None:
                return {(fields[0], fields[1]): RunMatrix(*fields) for fields in found}
            raw.seek(0)
            # The key comes from the bytes the parser reads, so a file that
            # changes while it is read is stored under what was parsed.
            source = cache.HashingReader(raw)
        groups = _pair_columns(path, source)
    # Each pair's columns are dropped once its matrix is built, so none is
    # alive when the entry is written.
    matrices = {
        pair: _pivot(*pair, [k[2] for k in keys], [k[3] for k in keys], tokens, correct)
        for pair in sorted(groups)
        for keys, tokens, correct in [groups.pop(pair)]
    }
    if store is not None:
        store.save(source.digest(), list(matrices.values()))
    return matrices


def _pair_columns(
    path: Path, source: BinaryIO
) -> dict[tuple[str, str], tuple[list[Key], list[int], list[bool]]]:
    """A record file's (keys, tokens, correct) columns, split by pair in one pass."""
    groups: dict[tuple[str, str], tuple[list[Key], list[int], list[bool]]] = {}
    for key, count, ok, _ in _scan(path, source):
        group = groups.get(key[:2])
        if group is None:
            group = groups[key[:2]] = ([], [], [])
        group[0].append(key)
        group[1].append(count)
        group[2].append(ok)
    return groups


def save_matrix(matrix: RunMatrix, path: str | Path) -> int:
    """Write a RunMatrix as records JSONL; returns the count written.

    One line per present cell, row-major, ids JSON-encoded once each; the
    fields of a line are model, dataset, question_id, prompt_id, tokens and
    correct, in that order, as ``json.dumps(..., ensure_ascii=False)`` writes them.
    An id UTF-8 cannot encode is a CotBudgetError raised before the file is
    opened, so a file already at path is left as it was.
    """
    dumps = functools.partial(json.dumps, ensure_ascii=False)
    head = f'{{"model": {dumps(matrix.model)}, "dataset": {dumps(matrix.dataset)}, "question_id": '
    questions = [head + dumps(q) + ', "prompt_id": ' for q in matrix.question_ids]
    prompts = [dumps(p) + ', "tokens": ' for p in matrix.prompt_ids]
    utf8_bytes(path, "".join([head, *questions, *prompts]))
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

    def cells(self) -> set[tuple[str, str]]:
        """The (question_id, prompt_id) of every present cell."""
        rows, cols = np.nonzero(self.present)
        q, p = self.question_ids, self.prompt_ids
        return {(q[i], p[j]) for i, j in zip(rows.tolist(), cols.tolist())}

    def prompt_index(self, prompt_id: str) -> int:
        try:
            return self.prompt_pos[prompt_id]
        except KeyError:
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

