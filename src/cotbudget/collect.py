"""Record collection: sweep a prompt catalog over questions against an endpoint.

This module holds the questions and their grading, the sweep's settings
(``SweepConfig``), the JSONL writer and the sweep itself; ``sweepfiles``
opens, locks and resumes the files the sweep writes. Each worker of a
sweep takes cells one at a time and posts each through its own
``transport._Transport``, the HTTP/1.1 client, which keeps one connection
alive for all the worker's cells. Token counts are taken from the
endpoint's reported completion-token usage, never recomputed locally;
cells that still fail after retries land in a failures sidecar instead of
the record file. A resume skips the cells that ``sweepfiles.prior_cells``
reads from the prior records file, keeping a bit per cell. ``ssl`` is
imported only when an https:// sweep is configured, and
``urllib.request`` only when a proxy could apply (see
``transport._proxy_for``), so importing this module does not pay for them.
Nor does it load ``dataclasses``: its records are ``inputs.FrozenValue``
classes.
"""
from __future__ import annotations

import json
import logging
import math
import re
import threading
from collections.abc import Set
from fractions import Fraction
from itertools import accumulate, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import EndpointError, RecordSchemaError
from .inputs import (
    NON_EMPTY_STRING, TOKENS_MAX, FrozenValue, check_line, check_pair, read_jsonl, set_fields,
)
from .prompts import PromptCatalog, PromptSpec, render
from .transport import _post_with_retries, _Transport, shown_url

log = logging.getLogger(__name__)

ANSWER_PATTERN = re.compile(r"(?i)\banswer\s*:\s*([^\n]*)")
# The interpreter's default int-string digit limit; see _as_rational.
EXPONENT_MAX = 4300
_DEPTH = {"(": 1, ")": -1}  # what each character adds to the parenthesis depth
QUESTION_FIELDS = ("question_id", "text", "gold_answer")
SURROGATE = re.compile(r"[\ud800-\udfff]")


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


def format_question(question: Question) -> str:
    """Question body as shown to the model: text plus any lettered choices."""
    if not question.choices:
        return question.text
    lines = [question.text]
    lines.extend(f"{c.label}) {c.text}" for c in question.choices)
    return "\n".join(lines)


class SweepConfig(FrozenValue):
    """Endpoint, catalog, and decoding settings for one collection sweep."""

    __slots__ = ("endpoint", "model", "dataset", "catalog", "max_parallel", "retries",
                 "temperature", "timeout")

    def __init__(self, endpoint: str, model: str, dataset: str, catalog: PromptCatalog,
                 max_parallel: int = 1, retries: int = 3, temperature: float = 0.0,
                 timeout: float = 120.0) -> None:
        check_pair(model, dataset)
        if max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if not math.isfinite(temperature):
            raise ValueError("temperature must be a finite number")
        if not 0 < timeout < math.inf:  # NaN fails both comparisons
            raise ValueError(f"timeout must be a finite number above 0, got {timeout!r}")
        set_fields(self, (endpoint, model, dataset, catalog, max_parallel, retries, temperature,
                          timeout))
        # The route, with what the environment adds to it, is checked before a file is opened.
        _Transport(endpoint, timeout)


class SweepSummary:
    """A sweep's cell counts, added to as its cells finish."""

    __slots__ = ("requested", "skipped", "succeeded", "failed", "retries")
    # Compared, shown and pickled field by field as a FrozenValue is, but mutable, so unhashable.
    __eq__, __repr__ = FrozenValue.__eq__, FrozenValue.__repr__
    __getstate__, __setstate__ = FrozenValue.__getstate__, FrozenValue.__setstate__

    def __init__(self, requested: int = 0, skipped: int = 0, succeeded: int = 0,
                 failed: int = 0, retries: int = 0) -> None:
        self.requested = requested
        self.skipped = skipped
        self.succeeded = succeeded
        self.failed = failed
        self.retries = retries


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


def _choice_label(extracted: str) -> str | None:
    m = re.match(r"^([A-Za-z])(?:[^A-Za-z0-9].*)?$", extracted)
    return m.group(1) if m else None


def grade(response: str, question: Question) -> tuple[bool, str | None]:
    """Score a response against the gold answer.

    Takes the last 'Answer:' line, strips the outer parentheses that pair
    with each other, and the blanks and trailing periods of every layer, from
    it and from the gold alike, and compares case-insensitively;
    free-form answers also match when both sides parse to the same exact
    rational (see _as_rational). Ungradable responses are (False, None),
    never an error.
    """
    matches = ANSWER_PATTERN.findall(response or "")
    if not matches:
        return False, None
    extracted = _strip_wrapping(matches[-1])
    if not extracted:
        return False, None
    if question.choices is not None:
        label = _choice_label(extracted)
        return (
            label is not None and label.casefold() == question.gold_answer.casefold(),
            extracted,
        )
    gold = _strip_wrapping(question.gold_answer)
    if extracted.casefold() == gold.casefold():
        return True, extracted
    ours, theirs = _as_rational(extracted), _as_rational(gold)
    return ours is not None and theirs is not None and ours == theirs, extracted


class JsonlWriter:
    """Append-style JSONL sink; the lock is the sweep's single serialization point.

    A line is ``json.dumps(obj, ensure_ascii=False)`` in UTF-8, except that a
    lone surrogate, which a reply's content can hold and UTF-8 cannot encode,
    is written as its JSON escape (``\\ud83d``), so the line still parses.
    """

    def __init__(self, path: str | Path, append: bool = False) -> None:
        self.path = Path(path)
        self._fh = self.path.open(
            "a" if append else "w", encoding="utf-8", errors="backslashreplace", newline="\n"
        )
        self._lock = threading.Lock()

    def write(self, obj: dict) -> None:
        line = json.dumps(obj, ensure_ascii=False)
        with self._lock:
            # Two writes, so the line is not copied to add its newline. A kill
            # between them leaves a final line that parses; a resume keeps it.
            self._fh.write(line)
            self._fh.write("\n")
            self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> JsonlWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _run_cell(
    config: SweepConfig, question: Question, spec: PromptSpec, transport: _Transport
) -> tuple[dict | None, str | None, int]:
    prompt_text = render(spec, format_question(question))
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt_text}],
        "temperature": config.temperature,
    }
    obj, error, retries_used = _post_with_retries(config.retries, transport, payload)
    if obj is None:
        return None, error, retries_used
    try:
        content = obj["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        return None, "response missing choices[0].message.content", retries_used
    if not isinstance(content, str):
        kind = type(content).__name__
        return None, f"response content must be a string, got {kind}", retries_used
    # A CESU-8 body decodes to surrogate pairs, each of which the records file
    # would read back as one character; join them, so what is graded is stored.
    if SURROGATE.search(content):
        content = content.encode("utf-16", "surrogatepass").decode("utf-16", "surrogatepass")
    usage = obj.get("usage")
    if usage is None:
        usage = {}
    elif not isinstance(usage, dict):
        kind = type(usage).__name__
        return None, f"response usage must be an object, got {kind}", retries_used
    tokens = usage.get("completion_tokens")
    if tokens is None:
        return None, "response missing usage.completion_tokens", retries_used
    elif type(tokens) is not int or not 0 <= tokens <= TOKENS_MAX:
        return (
            None,
            f"response usage.completion_tokens must be an integer in [0, {TOKENS_MAX}], "
            f"got {tokens!r}",
            retries_used,
        )
    correct, extracted = grade(content, question)
    # The required fields in save_matrix's order, then response and
    # extracted_answer; the ids were checked up front.
    record = {
        "model": config.model,
        "dataset": config.dataset,
        "question_id": question.question_id,
        "prompt_id": spec.prompt_id,
        "tokens": tokens,
        "correct": correct,
        "response": content,
    }
    if extracted is not None:
        record["extracted_answer"] = extracted
    return record, None, retries_used


def sweep(
    questions: Sequence[Question],
    config: SweepConfig,
    writer: JsonlWriter,
    failures: JsonlWriter | None = None,
    skip: Iterable[tuple[str, str]] = (),
) -> SweepSummary:
    """Issue one request per (question, prompt) cell, writing records as they finish.

    ``skip`` holds (question_id, prompt_id) cells already collected (resume);
    they are never re-issued. A ``collections.abc.Set``, such as the
    PairCells a resume reads, is used as it is; any other iterable is copied
    into a set. Cells that fail after retries go to the failures sidecar and
    are not fabricated as records. With no cell left nothing is sent;
    otherwise min(max_parallel, cells left) workers, the calling thread
    among them, take the cells one at a time in question x catalog order
    from one generator, so nothing is held per cell beyond the cells in
    hand. Each worker sends on its own _Transport, all built (so a bad
    route raises) before any worker starts. An exception out of a cell (a
    writer's, say) or a worker that would not start stops the sweep: the
    other workers finish the cell in hand and take no new one, and the
    first exception is raised. So is an EndpointError when the first cell
    to finish failed without any of its attempts opening a connection.
    """
    skip_set = skip if isinstance(skip, Set) else set(skip)
    lock = threading.Lock()
    stopped: list[BaseException] = []

    def cells() -> Iterator[tuple[Question, PromptSpec]]:
        for question in questions:
            for spec in config.catalog:
                if (question.question_id, spec.prompt_id) not in skip_set:
                    yield question, spec

    left = sum(1 for _ in cells())
    summary = SweepSummary(requested=len(questions) * len(config.catalog))
    summary.skipped = summary.requested - left
    if not left:
        return summary
    pending = cells()
    transports = [_Transport(config.endpoint, config.timeout)
                  for _ in range(min(config.max_parallel, left))]

    def run_job(transport: _Transport, question: Question, spec: PromptSpec) -> None:
        record, error, retries_used = _run_cell(config, question, spec, transport)
        with lock:
            unreached = record is None and not (
                transport.opened or summary.succeeded or summary.failed)
            summary.retries += retries_used
            if record is not None:
                summary.succeeded += 1
            else:
                summary.failed += 1
        if record is not None:
            writer.write(record)
        else:
            log.warning(
                "cell (%s, %s) failed: %s", question.question_id, spec.prompt_id, error
            )
            if failures is not None:
                failures.write({"question_id": question.question_id,
                                "prompt_id": spec.prompt_id, "error": error})
        if unreached:
            raise EndpointError(f"cannot connect to {shown_url(config.endpoint)}: {error}")

    def work(transport: _Transport) -> None:
        with transport:
            try:
                while True:
                    with lock:
                        cell = None if stopped else next(pending, None)
                    if cell is None:
                        return
                    run_job(transport, *cell)
            except BaseException as exc:
                with lock:
                    stopped.append(exc)

    workers = []
    try:
        for transport in transports[1:]:
            worker = threading.Thread(target=work, args=(transport,))
            worker.start()
            workers.append(worker)
    except BaseException as exc:  # a worker that would not start
        with lock:
            stopped.append(exc)
    try:
        work(transports[0])  # takes no cell after a start failure
        for worker in workers:
            worker.join()
    except BaseException as exc:  # an interrupted join
        with lock:
            stopped.append(exc)
        raise
    if stopped:
        raise stopped[0]
    return summary
