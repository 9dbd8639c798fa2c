"""Reading and checking the package's JSON input files, without numpy.

Every input file is read once, through ``read_jsonl`` or ``read_json``,
which check UTF-8 line by line as they read, so the first bad line of a
file is the one named and a pipe gives a regular file's error. A parsed
value is checked by ``check_line`` (a JSONL line) or ``checked`` (a
whole-file field) against rules such as ``NON_EMPTY_STRING``, so each
fault's message is written once.

A records line is checked here too, against ``RECORD_RULES``:
``_record_lines`` yields each checked line's fields, and ``_scan`` adds the
duplicate-key check. ``records`` builds its matrices and ``EvalRecord``
objects from them, and ``collect --resume`` takes the cells a prior records
file holds with ``_record_lines``, so resumes load no numpy.
"""
from __future__ import annotations

import io
import json
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

Key = tuple[str, str, str, str]


def _record_lines(
    path: Path, source: BinaryIO | None = None
) -> Iterator[tuple[int, str, str, str, str, int, bool, dict]]:
    """Yield (line_no, model, dataset, question_id, prompt_id, tokens, correct, object)
    for each record line of a JSONL file.

    A line that fails the inline field check is handed to check_line, whose
    error becomes the RecordSchemaError, so EvalRecord and every reader of
    records report the same reason. ``source`` is as for read_jsonl.
    """
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
        yield line_no, model, dataset, question_id, prompt_id, tokens, correct, obj


def _scan(path: Path) -> Iterator[tuple[Key, int, bool, dict]]:
    """Yield (key, tokens, correct, object) for each record line of a JSONL file.

    The lines are _record_lines's. A repeated key raises on its second line.
    Equal key strings are shared between lines, so a file holds each
    distinct id in memory once.
    """
    seen: dict[Key, int] = {}
    shared: dict[str, str] = {}
    share = shared.setdefault
    lines = _record_lines(path)
    for line_no, model, dataset, question_id, prompt_id, tokens, correct, obj in lines:
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
