"""Questions and their grading: ``grade`` sets the ``correct`` of every cell a sweep collects.

``load_questions`` checks a whole questions file before any request is
sent. ``grade`` of a stored ``response`` gives that record's verdict again.
The module loads no socket, thread or transport code.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, repeat
from pathlib import Path

from .errors import RecordSchemaError
from .inputs import NON_EMPTY_STRING, FrozenValue, check_line, read_jsonl, set_fields

ANSWER_PATTERN = re.compile(r"(?i)\banswer\s*:\s*([^\n]*)")
# The interpreter's default int-string digit limit; see _as_rational.
EXPONENT_MAX = 4300
_DEPTH = {"(": 1, ")": -1}  # what each character adds to the parenthesis depth
QUESTION_FIELDS = ("question_id", "text", "gold_answer")


class Choice(FrozenValue):
    """One labeled option of a multiple-choice question."""

    __slots__ = ("label", "text")

    def __init__(self, label: str, text: str) -> None:
        set_fields(self, (label, text))


class Question(FrozenValue):
    """One benchmark item: body text, gold answer, optional labeled choices."""

    __slots__ = ("question_id", "text", "gold_answer", "choices")

    def __init__(self, question_id: str, text: str, gold_answer: str,
                 choices: tuple[Choice, ...] | None = None) -> None:
        fields = dict(zip(QUESTION_FIELDS, (question_id, text, gold_answer)))
        check_line(fields, "question", (), _QUESTION_RULES)
        if choices is not None:
            choices = tuple(choices)
            labels = {c.label.casefold() for c in choices}
            if gold_answer.casefold() not in labels:
                raise RecordSchemaError(
                    f"question {question_id!r}: gold_answer {gold_answer!r} "
                    "is not one of the choice labels"
                )
        set_fields(self, (question_id, text, gold_answer, choices))

    @classmethod
    def from_json_dict(cls, obj: object) -> Question:
        """Build a question from one parsed JSONL line; RecordSchemaError if it does not fit."""
        entry = check_line(obj, "question", QUESTION_FIELDS, (("choices", _CHOICES),))
        choices = entry.get("choices")
        return cls(
            entry["question_id"], entry["text"], entry["gold_answer"],
            tuple(Choice(c["label"], c["text"]) for c in choices) if choices else None,
        )


# A question's field rules; from_json_dict checks choices before them.
_QUESTION_RULES = tuple((name, NON_EMPTY_STRING) for name in QUESTION_FIELDS)
_CHOICES = (
    lambda v: v is None or type(v) is list and all(
        type(c) is dict and type(c.get("label")) is str and c["label"] != ""
        and type(c.get("text")) is str for c in v
    ),
    "be a list of objects with a non-empty string 'label' and a string 'text'",
)


def load_questions(path: str | Path) -> list[Question]:
    """Read a JSONL questions file, checking every line before any request is sent.

    A bad line raises RecordParseError (malformed JSON, a byte that is not
    UTF-8) or RecordSchemaError (see Question.from_json_dict, or a
    question_id already used on an earlier line), naming its 1-based line.
    Blank lines are skipped.
    """
    out = []
    first_line: dict[str, int] = {}
    for line_no, obj in read_jsonl(path):
        try:
            question = Question.from_json_dict(obj)
        except RecordSchemaError as exc:
            raise RecordSchemaError(exc.reason, path=str(path), line_no=line_no) from exc
        first = first_line.setdefault(question.question_id, line_no)
        if first != line_no:
            raise RecordSchemaError(
                f"duplicate question_id {question.question_id!r} (first on line {first})",
                path=str(path),
                line_no=line_no,
            )
        out.append(question)
    return out


def _strip_wrapping(s: str) -> str:
    # Peels the outer parentheses that pair with each other, with the blanks
    # of each layer and the periods after it. The r-th of the leading "(" pairs
    # with the r-th of the trailing ")" when the text between the two runs
    # balances and its depth, from the leading run's, never falls below r.
    # Bounds move inward and accumulate walks the middle: linear time, no table.
    i, j, opens, closes = 0, len(s), 0, 0
    while i < j and (s[i] == "(" or s[i].isspace()):
        opens, i = opens + (s[i] == "("), i + 1
    while j > i and (s[j - 1] in ")." or s[j - 1].isspace()):
        closes, j = closes + (s[j - 1] == ")"), j - 1
    layers = 0
    if opens and closes and opens + s.count("(", i, j) - s.count(")", i, j) == closes:
        layers = max(0, min(accumulate(map(_DEPTH.get, s[i:j], repeat(0)), initial=opens)))
    opens = closes = layers
    i, j = 0, len(s)
    while i < j and (s[i].isspace() or s[i] == "(" and opens):
        opens, i = opens - (s[i] == "("), i + 1
    while j > i and (s[j - 1] == "." or s[j - 1].isspace() or s[j - 1] == ")" and closes):
        closes, j = closes - (s[j - 1] == ")"), j - 1
    return s[i:j]


_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")
# A comma or a space in a number: a thousands separator only between groups of
# three digits after a first group of one to three, the same one throughout.
_THOUSANDS = re.compile(r"(?<![\d.])\d{1,3}([, ])\d{3}(?:\1\d{3})*(?!\d)")


def _as_rational(s: str) -> Fraction | None:
    """s as an exact rational, or None.

    A comma or a space is read only as a thousands separator (``12,345``,
    ``1 000``), or as spacing around a slash or after a sign (``3 / 4``), so
    ``2, 3`` is no number, rather than 23.
    Fraction computes 10**exponent while holding the GIL, so an exponent
    past EXPONENT_MAX is refused before it is built: that value is compared
    as text only. A longer mantissa already fails int()'s digit limit.
    """
    s = _THOUSANDS.sub(lambda m: m[0].replace(m[1], ""), s)
    # The other spaces a number may hold: around a fraction's slash, after a
    # sign. Dropped with str methods, not a regex search, so a long run of
    # spaces costs time linear in its length.
    s = "/".join(part.strip() for part in s.split("/"))
    if s[:1] in ("-", "+"):
        s = s[0] + s[1:].lstrip()
    exponent = _EXPONENT.search(s)
    try:
        if exponent and abs(int(exponent[1])) > EXPONENT_MAX:
            return None
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        return None


_ALNUM = re.compile(r"[A-Za-z0-9]")


def _names_label(extracted: str, label: str) -> bool:
    # The label, case-folded, alone or before a character outside [A-Za-z0-9].
    extracted, label = extracted.casefold(), label.casefold()
    return extracted.startswith(label) and not _ALNUM.match(extracted, len(label))


def grade(response: str, question: Question) -> tuple[bool, str | None]:
    """Score a response against the gold answer.

    Takes the last 'Answer:' line and strips the outer parentheses that pair
    with each other, and the blanks and trailing periods of every layer. A
    choice answer matches when, case-folded, it is the gold label or starts
    with it before a character outside [A-Za-z0-9]. A free-form answer is
    compared case-insensitively with the gold, stripped alike; it also
    matches when both sides parse to the same exact rational (see
    _as_rational). Ungradable responses are (False, None), never an error.
    """
    matches = ANSWER_PATTERN.findall(response or "")
    if not matches:
        return False, None
    extracted = _strip_wrapping(matches[-1])
    if not extracted:
        return False, None
    if question.choices is not None:
        return _names_label(extracted, question.gold_answer), extracted
    gold = _strip_wrapping(question.gold_answer)
    if extracted.casefold() == gold.casefold():
        return True, extracted
    ours, theirs = _as_rational(extracted), _as_rational(gold)
    return ours is not None and theirs is not None and ours == theirs, extracted
