"""Evaluation-record data model: the record object, and the question-by-prompt pivot.

A record is one chain-of-thought run of a (model, dataset, question, prompt)
cell: the output token count and whether the graded answer was correct. All
analysis consumes the pivoted RunMatrix, never loose records. A records file
becomes matrices through ``read_matrices``, which keeps the matrices of each
file it parsed in a content-addressed cache (``cotbudget.cache``), and a
matrix becomes a file through ``save_matrix``, a block of rows at a time.

A miss (``_pair_columns``) holds no object per record: each pair codes its
question and prompt ids to ints on first sight, and a record adds two codes,
its token count, its correctness and its line number to flat arrays (about
25 bytes a record). Each question keeps one bitmask of its prompts, so a
repeated key raises on its second line, as the file is read, and its error
names both lines. ``_place`` turns one pair's codes into the n x K matrix,
for ``read_matrices`` and for ``pivot`` alike; for ``pivot`` it also finds
a repeated key. ``EvalRecord`` objects are built only for callers that ask
for them (``load_records``).

Record lines are read and checked by ``inputs._record_lines``, against
``inputs.RECORD_RULES``, and ``load_records`` reads them through
``inputs._scan``, which also finds a repeated key. Both live in
``cotbudget.inputs``, which needs no numpy, so ``collect --resume`` reads a
prior file through the same checks without loading this module.
"""
from __future__ import annotations

import functools
import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, Iterable, Mapping, Sequence

import numpy as np

from .errors import DuplicateRecordError, EmptySelectionError, utf8_bytes
from .inputs import RECORD_RULES, REQUIRED_FIELDS, _record_lines, _scan, check_line

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
    matrices = {}
    for pair in sorted(groups):
        group = groups[pair]
        matrices[pair] = _place(*pair, group.question_codes, group.prompt_codes,
                                group.rows, group.cols, group.tokens, group.hits)
        # Each pair's columns are dropped once its matrix is built, so none is
        # alive when the entry is written.
        del groups[pair], group
    if store is not None:
        store.save(source.digest(), list(matrices.values()))
    return matrices


class _PairColumns:
    """One pair's records as parsed: int codes and counts, no object per record.

    An id's code is the order in which the pair first saw it. ``rows`` and
    ``cols`` hold each record's question and prompt code, ``tokens`` and
    ``hits`` its count and correctness, and ``lines`` its line number, which
    only a duplicate's error reads. ``masks`` holds, per question code, one
    bit per prompt code it has a record for.
    """

    __slots__ = ("question_codes", "prompt_codes", "rows", "cols", "tokens", "hits", "lines",
                 "masks")

    def __init__(self) -> None:
        self.question_codes: dict[str, int] = {}
        self.prompt_codes: dict[str, int] = {}
        self.rows = array("i")  # an append past 2**31 - 1 raises, so no code wraps
        self.cols = array("i")
        self.tokens = array("q")
        self.hits = bytearray()
        self.lines = array("q")
        self.masks: list[int] = []


def _pair_columns(path: Path, source: BinaryIO) -> dict[tuple[str, str], _PairColumns]:
    """A record file's columns, split by pair in one pass.

    The lines are _record_lines's, and a repeated key raises on its second
    line, as in _scan, so the first bad line of the file raises _scan's error.
    """
    groups: dict[tuple[str, str], _PairColumns] = {}
    lines = _record_lines(path, source)
    for line_no, model, dataset, question_id, prompt_id, tokens, correct, _ in lines:
        group = groups.get((model, dataset))
        if group is None:
            group = groups[model, dataset] = _PairColumns()
        codes, masks = group.question_codes, group.masks
        row = codes.get(question_id)
        if row is None:
            row = codes[question_id] = len(masks)
            masks.append(0)
        codes = group.prompt_codes
        col = codes.setdefault(prompt_id, len(codes))
        mask, bit = masks[row], 1 << col
        if mask & bit:
            first = next(line for r, c, line in zip(group.rows, group.cols, group.lines)
                         if r == row and c == col)
            raise DuplicateRecordError((model, dataset, question_id, prompt_id),
                                       f"lines {first} and {line_no} of {path}")
        masks[row] = mask | bit
        group.rows.append(row)
        group.cols.append(col)
        group.tokens.append(tokens)
        group.hits.append(correct)
        group.lines.append(line_no)
    return groups


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
    step = max(1, SAVE_CELLS // max(1, matrix.n_prompts))
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
        if np.any((tokens < 0) & present):  # two bool masks, no copy of the counts
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
    question_codes: dict[str, int] = {}
    prompt_codes: dict[str, int] = {}
    return _place(
        model,
        dataset,
        question_codes,
        prompt_codes,
        [question_codes.setdefault(r.question_id, len(question_codes)) for r in selected],
        [prompt_codes.setdefault(r.prompt_id, len(prompt_codes)) for r in selected],
        [r.tokens for r in selected],
        [r.correct for r in selected],
    )


def _place(
    model: str,
    dataset: str,
    question_codes: Mapping[str, int],
    prompt_codes: Mapping[str, int],
    rows: Sequence[int],
    cols: Sequence[int],
    tokens: Sequence[int],
    correct: Sequence[bool],
) -> RunMatrix:
    """Place one pair's coded records into an n x K matrix.

    ``question_codes`` and ``prompt_codes`` map each distinct id to a code
    in [0, count); record i has codes rows[i] and cols[i]. A cell given
    twice is a DuplicateRecordError naming the first record to repeat one.
    """
    if not len(rows):
        raise EmptySelectionError(f"no records for model={model!r} dataset={dataset!r}")
    # Python sorts and dicts, not np.unique: a numpy 'U' array drops trailing
    # NULs, which would merge "q1\x00" with "q1".
    row_ids, row_of = _ranks(question_codes)
    col_ids, col_of = _ranks(prompt_codes)
    n, k = len(row_ids), len(col_ids)
    cells = row_of[np.asarray(rows)]
    cells *= k
    cells += col_of[np.asarray(cols)]
    present = np.zeros(n * k, dtype=bool)
    present[cells] = True
    if np.count_nonzero(present) != cells.size:
        novel = np.zeros(cells.size, dtype=bool)
        novel[np.unique(cells, return_index=True)[1]] = True  # where each value is first
        row, col = divmod(int(cells[np.argmin(novel)]), k)
        raise DuplicateRecordError((model, dataset, row_ids[row], col_ids[col]))
    values = np.zeros(present.shape, dtype=np.int64)
    values[cells] = np.asarray(tokens, dtype=np.int64)
    hits = np.zeros(present.shape, dtype=bool)
    hits[cells] = np.asarray(correct, dtype=bool)
    return RunMatrix(
        model,
        dataset,
        row_ids,
        col_ids,
        values.reshape(n, k),
        hits.reshape(n, k),
        present.reshape(n, k),
    )


def _ranks(codes: Mapping[str, int]) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids in sorted order, and each code's position in that order (indexed by code)."""
    ids = tuple(sorted(codes))
    rank = np.empty(len(ids), dtype=np.intp)
    rank[np.fromiter(map(codes.__getitem__, ids), np.intp, len(ids))] = np.arange(len(ids))
    return ids, rank
