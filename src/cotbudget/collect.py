"""Record collection: sweep a prompt catalog over questions against an endpoint.

This module holds the sweep's settings (``SweepConfig``) and the sweep
itself; ``grading`` reads the questions and grades each reply, and
``sweepfiles`` opens, locks and resumes the files the sweep writes. Each
worker of a sweep takes cells one at a time and posts each through its own
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

import logging
import math
import re
import threading
from collections.abc import Set
from typing import Iterable, Iterator, Sequence

from .errors import EndpointError
# load_questions and JsonlWriter are bound here too, for callers that find them on collect.
from .grading import Question, grade, load_questions
from .inputs import TOKENS_MAX, FrozenValue, check_pair, set_fields
from .prompts import PromptCatalog, PromptSpec, render
from .sweepfiles import JsonlWriter
from .transport import _post_with_retries, _Transport, shown_url

log = logging.getLogger(__name__)

SURROGATE = re.compile(r"[\ud800-\udfff]")


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
