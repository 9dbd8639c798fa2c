"""Record collection: sweep a prompt catalog over questions against an endpoint.

Talks plain chat-completions JSON over HTTP/1.1 with the standard library:
each worker of a sweep keeps one connection alive for all its cells, and a
reply, status line and headers included, must arrive within the sweep's
timeout of its request. Token counts are taken from the endpoint's reported
completion-token usage, never recomputed locally; cells that still fail
after retries land in a failures sidecar instead of the record file. A
resume skips the cells ``prior_cells`` reads from the prior records file
through ``inputs.record_cells``, the reader of every analysis command,
keeping a bit per cell. ``http.client`` and ``ssl`` are imported when a
sweep starts, and ``urllib.request`` only when a proxy could apply (see
_proxy_for), so importing this module does not pay for them.
"""
from __future__ import annotations

import io
import json
import logging
import math
import os
import re
import sys
import threading
import time
from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, Sequence
from urllib.parse import urlsplit

from .errors import EndpointError, RecordSchemaError
from .inputs import (
    NON_EMPTY_STRING, TOKENS_MAX, PairCells, check_line, read_jsonl, record_cells,
)
from .prompts import PromptCatalog, PromptSpec, render

log = logging.getLogger(__name__)

API_KEY_ENV = "COTBUDGET_API_KEY"
ANSWER_PATTERN = re.compile(r"(?i)\banswer\s*:\s*([^\n]*)")
BACKOFF_BASE_SECONDS = 0.25
BACKOFF_CAP_SECONDS = 8.0
# The interpreter's default int-string digit limit; see _as_rational.
EXPONENT_MAX = 4300
# The largest reply body read. A 32k-token completion is about 128 KB; a
# larger body is a failed cell, not a record every later command must parse.
MAX_REPLY_BYTES = 8 << 20
RETRY_AFTER_MAX_SECONDS = 60
QUESTION_FIELDS = ("question_id", "text", "gold_answer")
TAIL_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class Choice:
    label: str
    text: str


@dataclass(frozen=True, slots=True)
class Question:
    """One benchmark item: body text, gold answer, optional labeled choices."""

    question_id: str
    text: str
    gold_answer: str
    choices: tuple[Choice, ...] | None = None

    def __post_init__(self) -> None:
        fields = {name: getattr(self, name) for name in QUESTION_FIELDS}
        check_line(fields, "question", (), _QUESTION_RULES)
        if self.choices is not None:
            object.__setattr__(self, "choices", tuple(self.choices))
            labels = {c.label.casefold() for c in self.choices}
            if self.gold_answer.casefold() not in labels:
                raise RecordSchemaError(
                    f"question {self.question_id!r}: gold_answer {self.gold_answer!r} "
                    "is not one of the choice labels"
                )

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
        for name in ("model", "dataset"):
            value = getattr(self, name)
            if type(value) is not str or not value:
                raise ValueError(f"{name} must be a non-empty string, got {value!r}")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be a finite number")
        if not 0 < self.timeout < math.inf:  # NaN fails both comparisons
            raise ValueError(f"timeout must be a finite number above 0, got {self.timeout!r}")
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


_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def _as_rational(s: str) -> Fraction | None:
    """s as an exact rational, or None.

    Fraction computes 10**exponent while holding the GIL, so an exponent
    past EXPONENT_MAX is refused before it is built: that value is compared
    as text only. A longer mantissa already fails int()'s digit limit.
    """
    s = s.replace(",", "").replace(" ", "")
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
            self._fh.write(line + "\n")
            self._fh.flush()

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


def _proxy_for(scheme: str, host: str) -> str | None:
    """The proxy urllib.request would use for scheme://host, or None.

    On Linux getproxies() reads only variables named {scheme}_proxy or
    all_proxy, in any letter case, so without one there is no proxy and
    urllib.request, which loads hashlib and tempfile, is not imported. On
    macOS and Windows it also reads the system's settings, so it always runs.
    """
    names = (f"{scheme}_proxy", "all_proxy")
    if sys.platform != "darwin" and os.name != "nt" and not any(
        name.lower() in names for name in os.environ
    ):
        return None
    import urllib.request

    proxies = urllib.request.getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if proxy and urllib.request.proxy_bypass(host):
        return None
    return proxy


class _DeadlineReader(io.RawIOBase):
    """A socket's reader that gives each read the time left until a deadline.

    Past the deadline a read raises TimeoutError("timed out"), as the
    socket's own timeout reads, so a reply that trickles in ends there
    however small its pieces.
    """

    def __init__(self, source: io.RawIOBase, sock, deadline: float) -> None:
        self._source, self._sock, self._deadline = source, sock, deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("timed out")
        self._sock.settimeout(left)
        return self._source.readinto(buffer)

    def close(self) -> None:
        self._source.close()
        super().close()


def _reply_by(deadline: float, sock, *args, **kwargs):
    """An http.client reply that reads sock, status line and headers included,
    through a _DeadlineReader: a connection's ``response_class``."""
    from http.client import HTTPResponse

    reply = HTTPResponse(sock, *args, **kwargs)
    reply.fp = io.BufferedReader(_DeadlineReader(reply.fp.detach(), sock, deadline))
    return reply


class _Transport:
    """Where one sweep's requests go, worked out once, and its open connections.

    The endpoint's host, port and path, the proxy (HTTP_PROXY, HTTPS_PROXY,
    ALL_PROXY and NO_PROXY, as urllib.request reads them; see _proxy_for),
    the TLS context and the headers are fixed when the sweep starts.
    ``max_parallel`` connections are made then but open their sockets on
    first use; a worker takes one for each request, so no two workers share
    one, and keeps it alive between cells. close() closes them all.
    """

    def __init__(self, config: SweepConfig) -> None:
        import http.client
        import queue
        from base64 import b64encode
        from urllib.parse import unquote

        url = urlsplit(config.endpoint)
        host, port = url.hostname, url.port or (443 if url.scheme == "https" else 80)
        self.target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self.headers = _request_headers()
        context = _tls_context() if url.scheme == "https" else None
        proxy = _proxy_for(url.scheme, host)
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

        self.timeout = config.timeout
        self._connections = [connection() for _ in range(config.max_parallel)]
        self._idle: queue.SimpleQueue = queue.SimpleQueue()
        for conn in self._connections:
            self._idle.put(conn)

    def post(self, body: bytes) -> tuple[int, str | None, bytes]:
        """POST body on an idle connection; returns (status, Retry-After, reply body).

        The reply body is read in full, whatever the status, so the
        connection can carry the next request. A body longer than
        MAX_REPLY_BYTES is not: its first MAX_REPLY_BYTES + 1 bytes are
        returned and the connection is closed. Every read of the reply,
        status line and headers included, is given the time left of
        ``timeout`` counted from the request (see _reply_by), so a reply that
        trickles in past it is a TimeoutError. A kept-alive connection that
        the server closed while idle fails before any reply arrives; the
        request is then sent once more on a new connection. Any other
        failure closes the connection and propagates.
        """
        conn = self._idle.get()
        conn.response_class = partial(_reply_by, time.monotonic() + self.timeout)
        try:
            reused = conn.sock is not None
            if reused:
                conn.sock.settimeout(self.timeout)  # a reply read left it shorter
            try:
                reply = self._exchange(conn, body)
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                reply = self._exchange(conn, body)
            chunks, size = [], 0
            while size <= MAX_REPLY_BYTES:
                chunk = reply.read1(MAX_REPLY_BYTES + 1 - size)
                if not chunk:
                    break
                chunks.append(chunk)
                size += len(chunk)
            data = b"".join(chunks)
            if size > MAX_REPLY_BYTES:
                conn.close()  # the rest of the body is never read
            elif reply.length:  # the body ended before its Content-Length, as read() raises
                from http.client import IncompleteRead

                raise IncompleteRead(data, reply.length)
            reply.close()  # read1 leaves a body that ended at its Content-Length open
            return reply.status, reply.getheader("Retry-After"), data
        except BaseException:
            conn.close()
            raise
        finally:
            self._idle.put(conn)

    def _exchange(self, conn, body: bytes):
        """Send body on conn; returns the reply."""
        conn.request("POST", self.target, body, self.headers)
        return conn.getresponse()

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
        if len(data) > MAX_REPLY_BYTES:
            return None, f"reply body longer than {MAX_REPLY_BYTES} bytes", retries_used
        if status == 429 or status >= 500:
            last_error = f"HTTP {status}"
            if status in (429, 503):
                retry_after = _retry_after_seconds(retry_after_header)
            continue
        if status != 200:
            return None, f"HTTP {status}", retries_used
        try:
            return json.loads(data), None, retries_used
        except (ValueError, RecursionError):  # RecursionError: nested too deeply
            return None, "unparseable response body", retries_used
    return None, last_error, retries_used


def _run_cell(
    config: SweepConfig, question: Question, spec: PromptSpec, transport: _Transport
) -> tuple[dict | None, str | None, int]:
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
    # A CESU-8 body decodes to surrogate pairs, each of which the records file
    # would read back as one character; join them, so what is graded is stored.
    content = content.encode("utf-16", "surrogatepass").decode("utf-16", "surrogatepass")
    usage = obj.get("usage")
    if usage is None:
        usage = {}
    elif not isinstance(usage, dict):
        kind = type(usage).__name__
        return None, f"response usage must be an object, got {kind}", retries_used
    tokens = usage.get("completion_tokens")
    estimated = tokens is None and config.estimate_missing_usage
    if estimated:
        tokens = math.ceil(len(content) / 4)
    elif tokens is None:
        return None, "response missing usage.completion_tokens", retries_used
    elif type(tokens) is not int or not 0 <= tokens <= TOKENS_MAX:
        return (
            None,
            f"response usage.completion_tokens must be an integer in [0, {TOKENS_MAX}], "
            f"got {tokens!r}",
            retries_used,
        )
    correct, extracted = grade(content, question)
    # The required fields in save_matrix's order, then response, extracted_answer
    # and the estimate flag; the ids were checked up front.
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
    if estimated:
        record["tokens_estimated"] = True
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
    PairCells of prior_cells, is used as it is; any other iterable is copied
    into a set. Cells that fail after retries go to the failures sidecar and
    are not fabricated as records. ``max_parallel`` workers, the calling thread
    among them, take the cells one at a time in question x catalog order
    from one generator, so nothing is held per cell beyond the cells in
    hand. An exception out of a cell, such as from a writer, stops the
    sweep: the other workers finish the cell in hand and take no new one,
    and the first exception is raised.
    """
    skip_set = skip if isinstance(skip, Set) else set(skip)
    summary = SweepSummary()
    lock = threading.Lock()
    stopped: list[BaseException] = []

    def cells() -> Iterator[tuple[Question, PromptSpec]]:
        for question in questions:
            for spec in config.catalog:
                summary.requested += 1
                if (question.question_id, spec.prompt_id) in skip_set:
                    summary.skipped += 1
                else:
                    yield question, spec

    pending = cells()
    transport = _Transport(config)

    def run_job(question: Question, spec: PromptSpec) -> None:
        record, error, retries_used = _run_cell(config, question, spec, transport)
        with lock:
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
                failures.write(
                    {
                        "question_id": question.question_id,
                        "prompt_id": spec.prompt_id,
                        "error": error,
                    }
                )

    def work() -> None:
        try:
            while True:
                with lock:
                    cell = None if stopped else next(pending, None)
                if cell is None:
                    return
                run_job(*cell)
        except BaseException as exc:
            with lock:
                stopped.append(exc)

    workers = [threading.Thread(target=work) for _ in range(config.max_parallel - 1)]
    try:
        for worker in workers:
            worker.start()
        work()
        for worker in workers:
            worker.join()
    except BaseException as exc:  # a worker that would not start, or an interrupted join
        with lock:
            stopped.append(exc)
        raise
    finally:
        transport.close()
    if stopped:
        raise stopped[0]
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
        except (ValueError, RecursionError):  # UnicodeDecodeError, JSONDecodeError, too deep
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


def prior_cells(path: str | Path, model: str, dataset: str) -> PairCells:
    """The (question_id, prompt_id) cells of (model, dataset) a records file already holds.

    One pass reads the file through inputs.record_cells, the reader of
    ``records.read_matrices``, so a bad line or a repeated key raises the
    error read_matrices raises for it. Only the pair's PairCells is kept, so
    a resume holds a bit per prior cell once the file is read.
    """
    found = PairCells()
    for pair, _, _, _ in record_cells(Path(path)):
        if pair.cells is not found and pair.model == model and pair.dataset == dataset:
            found = pair.cells
    return found


def drop_settled_failures(
    path: str | Path, questions: Sequence[Question], catalog: PromptCatalog, prior: Set
) -> None:
    """Rewrite a resume's failures sidecar without the cells the resume settles.

    A line stays only when its cell is outside the questions x catalog grid,
    which this run requests again or skips, and not in ``prior``, the cells
    ``--out`` holds. A line that is not a {question_id, prompt_id, ...}
    object is kept as it is. The lines kept go to a new file beside the
    sidecar, never to one that exists, with the sidecar's permissions; it
    then replaces the sidecar, so a kill leaves either the old sidecar or
    the new.
    """
    import tempfile

    path = Path(path)
    question_ids = {question.question_id for question in questions}
    prompt_ids = {spec.prompt_id for spec in catalog}
    fd, scratch = tempfile.mkstemp(suffix=".tmp", prefix=path.name + ".", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as kept, path.open("rb") as lines:
            os.chmod(scratch, os.stat(lines.fileno()).st_mode & 0o777)
            for line in lines:
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError):  # not UTF-8, not JSON, or too deep
                    obj = None
                if type(obj) is dict:
                    cell = obj.get("question_id"), obj.get("prompt_id")
                    if type(cell[0]) is str and type(cell[1]) is str and (
                        cell in prior or cell[0] in question_ids and cell[1] in prompt_ids
                    ):
                        continue
                kept.write(line)
        os.replace(scratch, path)
    except BaseException:
        os.unlink(scratch)
        raise
