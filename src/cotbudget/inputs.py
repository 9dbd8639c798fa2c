"""Reading and checking the package's JSON input files, without numpy.

Every input file is read once, through ``read_jsonl`` or ``read_json``,
which check UTF-8 line by line as they read, so the first bad line of a
file is the one named and a pipe gives a regular file's error. A parsed
value is checked by ``check_line`` (a JSONL line) or ``checked`` (a
whole-file field) against rules such as ``NON_EMPTY_STRING``, so each
fault's message is written once.

Record lines are read only by ``record_cells``, which checks each against
``RECORD_RULES``, codes each pair's ids and raises a repeated key on its
second line. ``records`` builds its matrices and ``EvalRecord`` objects
from what it yields, and ``collect --resume`` keeps the PairCells it
builds, so the three agree on every error and resumes load no numpy.
"""
from __future__ import annotations

import io
import json
from array import array
from collections.abc import Set
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from .errors import DuplicateRecordError, RecordParseError, RecordSchemaError

TOKENS_MAX = 2**63 - 1  # the largest int64, so every count fits a matrix column
TOO_DEEP = "JSON nested too deeply to parse"


def read_jsonl(
    path: str | Path, source: BinaryIO | None = None
) -> Iterator[tuple[int, object]]:
    """Yield (1-based line number, parsed value) for each non-blank line of a JSONL file.

    A line that is not JSON, not UTF-8 or nested too deeply for the parser's
    recursion limit is a RecordParseError naming it. Each line is checked as
    it is read, before it is parsed, so the first bad line of the file is
    the one named, and a pipe is read once.
    ``source``, when given, is the file's open raw binary stream, read
    instead of opening ``path`` and closed at the end.
    """
    loads = json.loads
    raw = open(path, "rb", buffering=0) if source is None else source
    with io.TextIOWrapper(io.BufferedReader(raw, 1 << 16), "utf-8", "surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                _check_utf8(path, line, line_no)
            try:
                value = loads(line)
            except json.JSONDecodeError as exc:
                # A blank line never parses, so it is looked for only here.
                if not line.strip():
                    continue
                raise RecordParseError(str(path), line_no, f"malformed JSON: {exc.msg}") from exc
            except RecursionError as exc:
                raise RecordParseError(str(path), line_no, TOO_DEEP) from exc
            yield line_no, value


def read_json(path: str | Path) -> object:
    """A whole-file JSON input; bad JSON or UTF-8 is a RecordParseError naming its line.

    The file is read once, so a pipe works. JSON nested too deeply to parse
    is a RecordParseError naming the file.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    if not text.isascii():
        _check_utf8(path, text)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordParseError(str(path), exc.lineno, f"malformed JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise RecordParseError(str(path), None, TOO_DEEP) from exc


def _check_utf8(path: str | Path, text: str, first_line: int = 1) -> None:
    """Raise a RecordParseError naming the first line of text that was not UTF-8.

    ``text`` was read with universal newlines and errors="surrogateescape",
    so its lines end in "\n" and a lone surrogate is a byte that did not
    decode. The reason is what decoding that line's own bytes reports.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        start = text.rfind("\n", 0, exc.start) + 1
        end = text.find("\n", exc.start)
        line = text[start:] if end < 0 else text[start:end]
        raw = line.encode("utf-8", "surrogateescape")
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as bad:
            raise RecordParseError(
                str(path),
                first_line + text.count("\n", 0, start),
                f"not UTF-8: byte {raw[bad.start]:#04x} at column {bad.start + 1} ({bad.reason})",
            ) from None


# Field rules of every input, as (test, what a valid value must do); a rule's
# test runs only once the rules before it on the same field have passed.
NON_EMPTY_STRING = (lambda v: type(v) is str and v != "", "be a non-empty string")
INTEGER = (lambda v: type(v) is int, "be an integer")
NULL_OR_TOKENS = (
    lambda v: v is None or (type(v) is int and 0 <= v <= TOKENS_MAX),
    f"be null or an integer in [0, {TOKENS_MAX}]",
)


def checked(obj: dict, key: str, where: str, rule: tuple) -> object:
    """obj[key] if it passes the rule; else a RecordSchemaError naming where.key."""
    test, expected = rule
    if key in obj and test(value := obj[key]):
        return value
    location = f"{where}.{key}" if where else key
    if key not in obj:
        raise RecordSchemaError(f"{location} is missing")
    raise RecordSchemaError(f"{location} must {expected}, got {value!r}")


def check_line(
    obj: object, what: str, required: Sequence[str], rules: Sequence[tuple[str, tuple]]
) -> dict:
    """obj if it is a dict with every required field and passes each (field, rule) in order.

    Else a RecordSchemaError for the first fault: not a dict, then missing
    fields (all named), then a rule, which sees None for an absent field.
    """
    if type(obj) is not dict:
        raise RecordSchemaError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [name for name in required if name not in obj]
    if missing:
        raise RecordSchemaError("missing required field(s): " + ", ".join(missing))
    for name, (test, expected) in rules:
        value = obj.get(name)
        if not test(value):
            raise RecordSchemaError(f"field {name!r} must {expected}, got {value!r}")
    return obj


REQUIRED_FIELDS = ("model", "dataset", "question_id", "prompt_id", "tokens", "correct")

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


class PairCells(Set):
    """The (question_id, prompt_id) cells of one (model, dataset) pair, a bit a cell.

    An id's code is the order in which the pair first saw it. ``masks``
    holds, per question code, one Python int with the bit of each prompt
    code it has a record for, so a mask grows past a machine word as prompts
    are added. Nothing is held per record.
    """

    __slots__ = ("question_codes", "prompt_codes", "masks")

    def __init__(self) -> None:
        self.question_codes: dict[str, int] = {}
        self.prompt_codes: dict[str, int] = {}
        self.masks: list[int] = []

    def __contains__(self, cell: object) -> bool:
        if not isinstance(cell, tuple) or len(cell) != 2:
            return False
        row = self.question_codes.get(cell[0])
        col = self.prompt_codes.get(cell[1])
        return row is not None and col is not None and bool(self.masks[row] >> col & 1)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        prompts = list(self.prompt_codes)
        for question_id, mask in zip(self.question_codes, self.masks):
            while mask:
                low = mask & -mask
                yield question_id, prompts[low.bit_length() - 1]
                mask ^= low

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.masks))


class PairRecords:
    """One pair's records as read: its cells, and each record's row, column and line.

    ``rows`` and ``cols`` hold each record's question and prompt code, and
    ``lines`` its line number, which only a repeated key's error reads.
    """

    __slots__ = ("model", "dataset", "cells", "rows", "cols", "lines")

    def __init__(self, model: str, dataset: str) -> None:
        self.model = model
        self.dataset = dataset
        self.cells = PairCells()
        self.rows = array("i")  # an append past 2**31 - 1 raises, so no code wraps
        self.cols = array("i")
        self.lines = array("q")


def record_cells(
    path: Path, source: BinaryIO | None = None
) -> Iterator[tuple[PairRecords, int, bool, dict]]:
    """Yield (pair, tokens, correct, object) for each record line of a JSONL file.

    ``pair`` is the PairRecords of the line's (model, dataset), the same
    object for every line of that pair, with the line's record already
    added. A line that fails the inline field check is handed to check_line,
    whose error becomes the RecordSchemaError, so EvalRecord and every
    reader of records report the same reason. A repeated key raises on its
    second line, naming both lines. ``source`` is as for read_jsonl.
    """
    pairs: dict[tuple[str, str], PairRecords] = {}
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
        pair = pairs.get((model, dataset))
        if pair is None:
            pair = pairs[model, dataset] = PairRecords(model, dataset)
        cells = pair.cells
        codes, masks = cells.question_codes, cells.masks
        row = codes.get(question_id)
        if row is None:
            row = codes[question_id] = len(masks)
            masks.append(0)
        codes = cells.prompt_codes
        col = codes.setdefault(prompt_id, len(codes))
        mask, bit = masks[row], 1 << col
        if mask & bit:
            first = next(line for r, c, line in zip(pair.rows, pair.cols, pair.lines)
                         if r == row and c == col)
            raise DuplicateRecordError((model, dataset, question_id, prompt_id),
                                       f"lines {first} and {line_no} of {path}")
        masks[row] = mask | bit
        pair.rows.append(row)
        pair.cols.append(col)
        pair.lines.append(line_no)
        yield pair, tokens, correct, obj


def _schema_error(obj: object, path: Path, line_no: int) -> RecordSchemaError:
    """The error check_line raises for a line the inline check rejected."""
    try:
        check_line(obj, "record", REQUIRED_FIELDS, RECORD_RULES)
    except RecordSchemaError as exc:
        return RecordSchemaError(exc.reason, path=str(path), line_no=line_no)
    raise AssertionError(f"{path}:{line_no}: inline record check disagrees with RECORD_RULES")
