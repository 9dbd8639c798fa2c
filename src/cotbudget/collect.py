"""Record collection: sweep a prompt catalog over questions against an endpoint.

Talks plain chat-completions JSON over HTTP/1.1 with the standard library:
each worker of a sweep keeps one connection alive for all its cells. Token
counts are taken from the endpoint's reported completion-token usage, never
recomputed locally; cells that still fail after retries land in a failures
sidecar instead of the record file. ``http.client``, ``ssl`` and
``urllib.request`` are imported when a sweep starts, so importing this module
(and the analysis CLI) does not pay for them.
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
from urllib.parse import urlsplit

from .errors import EndpointError, RecordParseError, RecordSchemaError
from .prompts import PromptCatalog, PromptSpec, render
from .records import TOKENS_MAX, EvalRecord, utf8_error

log = logging.getLogger(__name__)

API_KEY_ENV = "COTBUDGET_API_KEY"
ANSWER_PATTERN = re.compile(r"(?i)\banswer\s*:\s*([^\n]*)")
BACKOFF_BASE_SECONDS = 0.25
BACKOFF_CAP_SECONDS = 8.0
RETRY_AFTER_MAX_SECONDS = 60
QUESTION_FIELDS = ("question_id", "text", "gold_answer")
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
    def from_json_dict(cls, obj: object) -> Question:
        """Build a question from one parsed JSONL line; RecordSchemaError if it does not fit."""
        if not isinstance(obj, dict):
            raise RecordSchemaError(f"question must be a JSON object, got {type(obj).__name__}")
        missing = [name for name in QUESTION_FIELDS if name not in obj]
        if missing:
            raise RecordSchemaError("missing required field(s): " + ", ".join(missing))
        for name in QUESTION_FIELDS:
            value = obj[name]
            if not isinstance(value, str) or not value:
                raise RecordSchemaError(f"field {name!r} must be a non-empty string, got {value!r}")
        choices = obj.get("choices")
        if choices is not None and not (
            isinstance(choices, list)
            and all(
                isinstance(c, dict)
                and isinstance(c.get("label"), str)
                and c["label"]
                and isinstance(c.get("text"), str)
                for c in choices
            )
        ):
            raise RecordSchemaError(
                "field 'choices' must be a list of objects with a non-empty string 'label' "
                f"and a string 'text', got {choices!r}"
            )
        try:
            return cls(
                question_id=obj["question_id"],
                text=obj["text"],
                gold_answer=obj["gold_answer"],
                choices=tuple(Choice(c["label"], c["text"]) for c in choices)
                if choices
                else None,
            )
        except ValueError as exc:
            raise RecordSchemaError(str(exc)) from exc


def load_questions(path: str | Path) -> list[Question]:
    """Read a JSONL questions file, checking every line before any request is sent.

    A bad line raises RecordParseError (malformed JSON, a byte that is not
    UTF-8) or RecordSchemaError (see Question.from_json_dict, or a
    question_id already used on an earlier line), naming its 1-based line.
    Blank lines are skipped.
    """
    out = []
    first_line: dict[str, int] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    question = Question.from_json_dict(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise RecordParseError(str(path), line_no, f"malformed JSON: {exc.msg}") from exc
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
        except UnicodeDecodeError as exc:
            raise utf8_error(path, exc) from exc
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
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be a finite number")
        url = urlsplit(self.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname or url.port == 0:
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {self.endpoint!r}")


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


def _request_headers() -> dict[str, str]:
    from . import __version__

    headers = {
        "Content-Type": "application/json",
        "User-Agent": f"cotbudget/{__version__}",
        "Accept-Encoding": "identity",
    }
    key = os.environ.get(API_KEY_ENV, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    return headers


def _tls_context():
    """The default TLS context, trusting REQUESTS_CA_BUNDLE or CURL_CA_BUNDLE when set."""
    import ssl

    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    try:
        if bundle and os.path.isdir(bundle):
            return ssl.create_default_context(capath=bundle)
        return ssl.create_default_context(cafile=bundle or None)
    except OSError as exc:  # ssl.SSLError included
        raise EndpointError(f"cannot load the CA bundle {bundle}: {exc}") from exc


class _Transport:
    """Where one sweep's requests go, worked out once, and its open connections.

    The endpoint's host, port and path, the proxy (HTTP_PROXY, HTTPS_PROXY,
    ALL_PROXY and NO_PROXY, as urllib.request reads them), the TLS context
    and the headers are fixed when the sweep starts. ``max_parallel``
    connections are made then but open their sockets on first use; a worker
    takes one for each request, so no two workers share one, and keeps it
    alive between cells. close() closes them all.
    """

    def __init__(self, config: SweepConfig) -> None:
        import http.client
        import queue
        import urllib.request
        from base64 import b64encode
        from urllib.parse import unquote

        url = urlsplit(config.endpoint)
        host, port = url.hostname, url.port or (443 if url.scheme == "https" else 80)
        self.target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self.headers = _request_headers()
        context = _tls_context() if url.scheme == "https" else None
        proxies = urllib.request.getproxies()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        if proxy and urllib.request.proxy_bypass(host):
            proxy = None
        tunnel_headers: dict[str, str] = {}
        if proxy:
            via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if via.scheme != "http" or not via.hostname:
                raise ValueError(f"only http:// proxies are supported, got {proxy!r}")
            if via.username:
                credentials = f"{unquote(via.username)}:{unquote(via.password or '')}"
                token = b64encode(credentials.encode("utf-8")).decode("ascii")
                tunnel_headers["Proxy-Authorization"] = f"Basic {token}"
            address = (via.hostname, via.port or 80)
            if url.scheme == "http":
                # The proxy takes the absolute URL as the request target.
                self.target = f"http://{url.netloc.rpartition('@')[2]}{self.target}"
                self.headers.update(tunnel_headers)
        else:
            address = (host, port)

        def connection() -> http.client.HTTPConnection:
            if url.scheme == "http":
                return http.client.HTTPConnection(*address, timeout=config.timeout)
            conn = http.client.HTTPSConnection(*address, timeout=config.timeout, context=context)
            if proxy:
                conn.set_tunnel(host, port, headers=tunnel_headers)
            return conn

        self._connections = [connection() for _ in range(config.max_parallel)]
        self._idle: queue.SimpleQueue = queue.SimpleQueue()
        for conn in self._connections:
            self._idle.put(conn)

    def post(self, body: bytes) -> tuple[int, str | None, bytes]:
        """POST body on an idle connection; returns (status, Retry-After, reply body).

        The reply body is read in full, whatever the status, so the
        connection can carry the next request. A kept-alive connection that
        the server closed while idle fails before any reply arrives; the
        request is then sent once more on a new connection. Any other
        failure closes the connection and propagates.
        """
        conn = self._idle.get()
        try:
            reused = conn.sock is not None
            try:
                conn.request("POST", self.target, body, self.headers)
                reply = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self.target, body, self.headers)
                reply = conn.getresponse()
            return reply.status, reply.getheader("Retry-After"), reply.read()
        except BaseException:
            conn.close()
            raise
        finally:
            self._idle.put(conn)

    def close(self) -> None:
        for conn in self._connections:
            conn.close()


def _retry_after_seconds(value: str | None) -> int:
    """A delta-seconds Retry-After value; 0 for none, an HTTP-date, junk or above the cap."""
    value = (value or "").strip()
    if value.isascii() and value.isdigit() and int(value) <= RETRY_AFTER_MAX_SECONDS:
        return int(value)
    return 0


def _post_with_retries(
    config: SweepConfig, transport: _Transport, payload: dict
) -> tuple[dict | None, str | None, int]:
    """Returns (response JSON, error, retries used). Retries transport errors, 429 and 5xx.

    The wait before a retry is the exponential backoff, or the reply's
    Retry-After when a 429 or 503 asks for longer.
    """
    from http.client import HTTPException

    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    last_error = "no attempt made"
    retries_used = 0
    retry_after = 0
    for attempt in range(config.retries + 1):
        if attempt:
            backoff = min(BACKOFF_BASE_SECONDS * 2 ** (attempt - 1), BACKOFF_CAP_SECONDS)
            time.sleep(max(backoff, retry_after))
            retries_used += 1
        retry_after = 0
        try:
            status, retry_after_header, data = transport.post(body)
        except (OSError, HTTPException) as exc:
            last_error = f"transport: {str(exc) or type(exc).__name__}"
            continue
        if status == 429 or status >= 500:
            last_error = f"HTTP {status}"
            if status in (429, 503):
                retry_after = _retry_after_seconds(retry_after_header)
            continue
        if status != 200:
            return None, f"HTTP {status}", retries_used
        try:
            return json.loads(data), None, retries_used
        except ValueError:
            return None, "unparseable response body", retries_used
    return None, last_error, retries_used


def _run_cell(
    config: SweepConfig, question: Question, spec: PromptSpec, transport: _Transport
) -> tuple[EvalRecord | None, str | None, int]:
    prompt_text = render(spec, format_question(question))
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt_text}],
        "temperature": config.temperature,
    }
    obj, error, retries_used = _post_with_retries(config, transport, payload)
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
    transport = _Transport(config)
    lock = threading.Lock()

    def run_job(job: tuple[Question, PromptSpec]) -> None:
        question, spec = job
        record, error, retries_used = _run_cell(config, question, spec, transport)
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

    try:
        if config.max_parallel == 1:
            for job in jobs:
                run_job(job)
        else:
            with ThreadPoolExecutor(max_workers=config.max_parallel) as pool:
                list(pool.map(run_job, jobs))
    finally:
        transport.close()
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
