"""Record collection: sweep a prompt catalog over questions against an endpoint.

Talks plain chat-completions JSON over HTTP. Token counts are taken from the
endpoint's reported completion-token usage, never recomputed locally; cells
that still fail after retries land in a failures sidecar instead of the
record file. ``requests`` is imported by the first request, so importing
this module (and the analysis CLI) does not pay for it.
"""
from __future__ import annotations

import json
import logging
import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .prompts import PromptCatalog, PromptSpec, render
from .records import TOKENS_MAX, EvalRecord

log = logging.getLogger(__name__)

API_KEY_ENV = "COTBUDGET_API_KEY"
ANSWER_PATTERN = re.compile(r"(?i)\banswer\s*:\s*([^\n]*)")
BACKOFF_BASE_SECONDS = 0.25
BACKOFF_CAP_SECONDS = 8.0
TAIL_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class Choice:
    label: str
    text: str


@dataclass(frozen=True)
class Question:
    """One benchmark item: body text, gold answer, optional labeled choices."""

    question_id: str
    text: str
    gold_answer: str
    choices: tuple[Choice, ...] | None = None

    def __post_init__(self) -> None:
        if not self.gold_answer:
            raise ValueError(f"question {self.question_id!r} has an empty gold_answer")
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))
            labels = {c.label.casefold() for c in self.choices}
            if self.gold_answer.casefold() not in labels:
                raise ValueError(
                    f"question {self.question_id!r}: gold_answer {self.gold_answer!r} "
                    "is not one of the choice labels"
                )

    @classmethod
    def from_json_dict(cls, obj: dict) -> Question:
        choices = obj.get("choices")
        return cls(
            question_id=obj["question_id"],
            text=obj["text"],
            gold_answer=obj["gold_answer"],
            choices=tuple(Choice(c["label"], c["text"]) for c in choices)
            if choices
            else None,
        )


def load_questions(path: str | Path) -> list[Question]:
    """Read a JSONL questions file; question_ids must be unique."""
    out = []
    seen: set[str] = set()
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            question = Question.from_json_dict(json.loads(line))
            if question.question_id in seen:
                raise ValueError(f"duplicate question_id {question.question_id!r} in {path}")
            seen.add(question.question_id)
            out.append(question)
    return out


def format_question(question: Question) -> str:
    """Question body as shown to the model: text plus any lettered choices."""
    if not question.choices:
        return question.text
    lines = [question.text]
    lines.extend(f"{c.label}) {c.text}" for c in question.choices)
    return "\n".join(lines)


@dataclass(frozen=True)
class SweepConfig:
    """Endpoint, catalog, and decoding settings for one collection sweep."""

    endpoint: str
    model: str
    dataset: str
    catalog: PromptCatalog
    max_parallel: int = 1
    retries: int = 3
    temperature: float = 0.0
    timeout: float = 120.0
    estimate_missing_usage: bool = False

    def __post_init__(self) -> None:
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


@dataclass
class SweepSummary:
    requested: int = 0
    skipped: int = 0
    succeeded: int = 0
    failed: int = 0
    retries: int = 0


def _strip_wrapping(s: str) -> str:
    s = s.strip()
    while len(s) >= 2 and s[0] == "(" and s[-1] == ")":
        s = s[1:-1].strip()
    return s.rstrip(".").strip()


def _as_rational(s: str) -> Fraction | None:
    try:
        return Fraction(s.replace(",", "").replace(" ", ""))
    except (ValueError, ZeroDivisionError):
        return None


def _choice_label(extracted: str) -> str | None:
    m = re.match(r"^([A-Za-z])(?:[^A-Za-z0-9].*)?$", extracted)
    return m.group(1) if m else None


def grade(response: str, question: Question) -> tuple[bool, str | None]:
    """Score a response against the gold answer.

    Takes the last 'Answer:' line, strips wrapping parentheses and trailing
    periods, and compares case-insensitively; free-form answers also match
    when both sides parse to the same exact rational. Ungradable responses
    are (False, None), never an error.
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
    gold = question.gold_answer.strip()
    if extracted.casefold() == gold.casefold():
        return True, extracted
    ours, theirs = _as_rational(extracted), _as_rational(gold)
    return ours is not None and theirs is not None and ours == theirs, extracted


class JsonlWriter:
    """Append-style JSONL sink; the lock is the sweep's single serialization point."""

    def __init__(self, path: str | Path, append: bool = False) -> None:
        self.path = Path(path)
        self._fh = self.path.open("a" if append else "w", encoding="utf-8", newline="\n")
        self._lock = threading.Lock()
        self.count = 0

    def write(self, obj: dict) -> None:
        line = json.dumps(obj, ensure_ascii=False)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
            self.count += 1

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> JsonlWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _auth_headers() -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(API_KEY_ENV, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    return headers


def _post_with_retries(
    config: SweepConfig, payload: dict, headers: dict[str, str]
) -> tuple[dict | None, str | None, int]:
    """Returns (response JSON, error, retries used). Retries transport errors, 429 and 5xx."""
    import requests

    last_error = "no attempt made"
    retries_used = 0
    for attempt in range(config.retries + 1):
        if attempt:
            time.sleep(min(BACKOFF_BASE_SECONDS * 2 ** (attempt - 1), BACKOFF_CAP_SECONDS))
            retries_used += 1
        try:
            resp = requests.post(
                config.endpoint, json=payload, headers=headers, timeout=config.timeout
            )
        except requests.RequestException as exc:
            last_error = f"transport: {exc}"
            continue
        if resp.status_code == 429 or resp.status_code >= 500:
            last_error = f"HTTP {resp.status_code}"
            continue
        if resp.status_code != 200:
            return None, f"HTTP {resp.status_code}", retries_used
        try:
            return resp.json(), None, retries_used
        except ValueError:
            return None, "unparseable response body", retries_used
    return None, last_error, retries_used


def _run_cell(
    config: SweepConfig, question: Question, spec: PromptSpec, headers: dict[str, str]
) -> tuple[EvalRecord | None, str | None, int]:
    prompt_text = render(spec, format_question(question))
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt_text}],
        "temperature": config.temperature,
    }
    obj, error, retries_used = _post_with_retries(config, payload, headers)
    if obj is None:
        return None, error, retries_used
    try:
        content = obj["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        return None, "response missing choices[0].message.content", retries_used
    if not isinstance(content, str):
        kind = type(content).__name__
        return None, f"response content must be a string, got {kind}", retries_used
    usage = obj.get("usage")
    if usage is None:
        usage = {}
    elif not isinstance(usage, dict):
        kind = type(usage).__name__
        return None, f"response usage must be an object, got {kind}", retries_used
    tokens = usage.get("completion_tokens")
    extra: dict = {}
    if tokens is None:
        if not config.estimate_missing_usage:
            return None, "response missing usage.completion_tokens", retries_used
        tokens = math.ceil(len(content) / 4)
        extra["tokens_estimated"] = True
    elif type(tokens) is not int or not 0 <= tokens <= TOKENS_MAX:
        return (
            None,
            f"response usage.completion_tokens must be an integer in [0, {TOKENS_MAX}], "
            f"got {tokens!r}",
            retries_used,
        )
    correct, extracted = grade(content, question)
    record = EvalRecord(
        model=config.model,
        dataset=config.dataset,
        question_id=question.question_id,
        prompt_id=spec.prompt_id,
        tokens=tokens,
        correct=correct,
        response=content,
        extracted_answer=extracted,
        extra=extra,
    )
    return record, None, retries_used


def sweep(
    questions: Sequence[Question],
    config: SweepConfig,
    writer: JsonlWriter,
    failures: JsonlWriter | None = None,
    skip: Iterable[tuple[str, str]] = (),
) -> SweepSummary:
    """Issue one request per (question, prompt) cell, writing records as they finish.

    ``skip`` lists (question_id, prompt_id) cells already collected (resume);
    they are never re-issued. Cells that fail after retries go to the
    failures sidecar and are not fabricated as records.
    """
    skip_set = set(skip)
    summary = SweepSummary()
    jobs: list[tuple[Question, PromptSpec]] = []
    for question in questions:
        for spec in config.catalog:
            summary.requested += 1
            if (question.question_id, spec.prompt_id) in skip_set:
                summary.skipped += 1
            else:
                jobs.append((question, spec))
    headers = _auth_headers()
    lock = threading.Lock()

    def run_job(job: tuple[Question, PromptSpec]) -> None:
        question, spec = job
        record, error, retries_used = _run_cell(config, question, spec, headers)
        with lock:
            summary.retries += retries_used
            if record is not None:
                summary.succeeded += 1
            else:
                summary.failed += 1
        if record is not None:
            writer.write(record.to_json_dict())
        else:
            log.warning(
                "cell (%s, %s) failed: %s", question.question_id, spec.prompt_id, error
            )
            if failures is not None:
                failures.write(
                    {
                        "question_id": question.question_id,
                        "prompt_id": spec.prompt_id,
                        "error": error,
                    }
                )

    if config.max_parallel == 1:
        for job in jobs:
            run_job(job)
    else:
        with ThreadPoolExecutor(max_workers=config.max_parallel) as pool:
            list(pool.map(run_job, jobs))
    return summary


def drop_torn_tail(path: str | Path) -> int:
    """Make a records file safe to append to; returns the number of bytes cut.

    A final line without a newline that is not UTF-8 JSON is what a crash in
    the middle of a write leaves behind: it is logged and cut off, so its
    cell is requested again. A final line that parses but lacks its newline
    gets one. Lines before the last are left for the loader to judge.
    """
    with Path(path).open("r+b") as fh:
        start, tail = fh.seek(0, os.SEEK_END), b""
        while start > 0:
            step = min(TAIL_BLOCK_BYTES, start)
            fh.seek(start - step)
            block = fh.read(step)
            newline = block.rfind(b"\n")
            if newline >= 0:
                start -= step - newline - 1
                tail = block[newline + 1 :] + tail
                break
            start -= step
            tail = block + tail
        if not tail:
            return 0
        try:
            json.loads(tail.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError and JSONDecodeError alike
            fh.truncate(start)
            log.warning(
                "%s: cut off a torn final line (%d bytes, no newline) at byte %d; "
                "its cell will be requested again",
                path,
                len(tail),
                start,
            )
            return len(tail)
        fh.seek(0, os.SEEK_END)
        fh.write(b"\n")
        return 0


def existing_cells(
    records: Iterable[EvalRecord], model: str, dataset: str
) -> set[tuple[str, str]]:
    """(question_id, prompt_id) cells already present for a (model, dataset) pair."""
    return {
        (r.question_id, r.prompt_id)
        for r in records
        if r.model == model and r.dataset == dataset
    }
