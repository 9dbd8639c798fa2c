from __future__ import annotations

import base64
import contextlib
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from collections.abc import Set
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget.collect import (
    JsonlWriter,
    Choice,
    Question,
    SweepConfig,
    _run_cell,
    drop_settled_failures,
    drop_torn_tail,
    format_question,
    grade,
    load_questions,
    prior_cells,
    sweep,
)
from cotbudget.errors import (
    DuplicateRecordError, EndpointError, RecordParseError, RecordSchemaError,
)
from cotbudget.inputs import PairCells
from cotbudget.mockserver import MockChatEndpoint, default_reply
from cotbudget.prompts import (
    QUESTION_TEMPLATE,
    PromptCatalog,
    PromptSpec,
    default_catalog,
    fixed_spec,
    render,
)
from cotbudget.records import EvalRecord, load_records, read_matrices

from loop_oracles import record_json_loop

SRC = Path(__file__).resolve().parent.parent / "src"
MC_QUESTION = Question(
    question_id="mc1",
    text="What is the order of Z18?",
    gold_answer="G",
    choices=(Choice("F", "17"), Choice("G", "18"), Choice("H", "19")),
)
FREE_QUESTION = Question(question_id="f1", text="Half of one?", gold_answer="1/2")


def small_catalog() -> PromptCatalog:
    return PromptCatalog(
        specs=(fixed_spec("NoCoT"), fixed_spec("BeConcise"), fixed_spec("DefaultCoT"))
    )


def config_for(url: str, **kw) -> SweepConfig:
    defaults = dict(
        endpoint=url,
        model="mock-model",
        dataset="mock-ds",
        catalog=small_catalog(),
        max_parallel=1,
        retries=3,
        temperature=0.0,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


HUGE_EXPONENTS = """
from fractions import Fraction
from cotbudget.collect import Question, _as_rational, grade
for answer in ("1e999999999", "1E-999999999", "2.5e+4301"):
    assert grade("Answer: " + answer, Question("q", "t", "1000")) == (False, answer)
    assert grade("Answer: 1000", Question("q", "t", answer)) == (False, "1000")
    assert grade("Answer: " + answer, Question("q", "t", answer)) == (True, answer)
assert _as_rational("1e4301") is None and _as_rational("1e-4_301") is None
assert _as_rational("1e4300") == 10**4300
assert _as_rational("1e-4300") == Fraction(1, 10**4300)
"""


class TestGrade:
    def test_parenthesized_choice_letter(self):
        correct, extracted = grade("The order is 18.\nAnswer: (G)", MC_QUESTION)
        assert correct is True
        assert extracted == "G"

    def test_no_answer_line(self):
        correct, extracted = grade("I have no idea.", MC_QUESTION)
        assert correct is False
        assert extracted is None

    def test_exponent_in_range_is_rational(self):
        assert grade("Answer: 1e3", Question("q", "t", "1000")) == (True, "1e3")
        assert grade("Answer: 1000", Question("q", "t", "1E+3")) == (True, "1000")

    def test_huge_exponent_is_compared_as_text(self):
        """Fraction would compute 10**exponent holding the GIL, stalling every worker."""
        done = subprocess.run([sys.executable, "-c", HUGE_EXPONENTS], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=10)
        assert done.returncode == 0, done.stderr

    def test_rational_equivalence(self):
        correct, extracted = grade("Answer: 0.50", FREE_QUESTION)
        assert correct is True
        assert extracted == "0.50"

    def test_last_answer_line_wins(self):
        response = "Answer: F is tempting.\nBut no.\nAnswer: G"
        correct, extracted = grade(response, MC_QUESTION)
        assert correct is True
        assert extracted == "G"

    def test_case_insensitive_pattern_and_comparison(self):
        correct, _ = grade("answer: g", MC_QUESTION)
        assert correct is True

    def test_wrong_choice(self):
        correct, extracted = grade("Answer: (F)", MC_QUESTION)
        assert correct is False
        assert extracted == "F"

    def test_trailing_period_stripped(self):
        correct, extracted = grade("Answer: 0.5.", FREE_QUESTION)
        assert correct is True
        assert extracted == "0.5"

    def test_free_form_string_match(self):
        q = Question(question_id="s", text="Color?", gold_answer="blue")
        assert grade("Answer: Blue", q) == (True, "Blue")

    def test_mid_line_answer(self):
        # the answer marker is not always on its own line
        correct, extracted = grade("|Z18| = 18. Answer: (G)", MC_QUESTION)
        assert correct is True
        assert extracted == "G"


class TestQuestionModel:
    def test_gold_must_be_choice_label(self):
        with pytest.raises(ValueError):
            Question(
                question_id="bad",
                text="t",
                gold_answer="Z",
                choices=(Choice("A", "1"),),
            )

    def test_format_question_includes_choices(self):
        body = format_question(MC_QUESTION)
        assert body.startswith("What is the order of Z18?")
        assert "G) 18" in body

    def test_duplicate_question_ids_rejected(self, tmp_path):
        path = tmp_path / "q.jsonl"
        row = json.dumps({"question_id": "q1", "text": "t", "gold_answer": "1"})
        path.write_text(row + "\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_questions(path)

    def test_load_questions(self, tmp_path):
        path = tmp_path / "q.jsonl"
        path.write_text(
            json.dumps(
                {
                    "question_id": "mc1",
                    "text": "t",
                    "gold_answer": "A",
                    "choices": [{"label": "A", "text": "1"}],
                }
            )
            + "\n"
            + json.dumps({"question_id": "f1", "text": "t2", "gold_answer": "7"})
            + "\n",
            encoding="utf-8",
        )
        questions = load_questions(path)
        assert len(questions) == 2
        assert questions[0].choices is not None
        assert questions[1].choices is None


class TestSweep:
    def test_two_by_three_sweep(self, tmp_path):
        questions = [
            Question(question_id="q1", text="One plus one?", gold_answer="2"),
            Question(question_id="q2", text="Two plus two?", gold_answer="5"),
        ]
        answers = {"One plus one?": "2", "Two plus two?": "4"}
        out = tmp_path / "records.jsonl"
        with MockChatEndpoint(answers=answers) as mock:
            with JsonlWriter(out) as writer:
                summary = sweep(questions, config_for(mock.url), writer)
        assert summary.succeeded == 6
        assert summary.failed == 0
        records = load_records(out)
        assert len(records) == 6
        assert {r.key for r in records} == {
            ("mock-model", "mock-ds", q, p)
            for q in ("q1", "q2")
            for p in ("NoCoT", "BeConcise", "DefaultCoT")
        }
        # token counts come from the endpoint's reported usage, verbatim
        expected_tokens = {
            "q1": default_reply("One plus one?", "2")[1],
            "q2": default_reply("Two plus two?", "4")[1],
        }
        for r in records:
            assert r.tokens == expected_tokens[r.question_id]
        # q1 graded correct (mock echoes the gold), q2 incorrect
        assert all(r.correct for r in records if r.question_id == "q1")
        assert not any(r.correct for r in records if r.question_id == "q2")

    def test_request_bodies_use_rendered_template(self, tmp_path):
        questions = [Question(question_id="q1", text="One plus one?", gold_answer="2")]
        out = tmp_path / "records.jsonl"
        with MockChatEndpoint() as mock:
            with JsonlWriter(out) as writer:
                sweep(questions, config_for(mock.url), writer)
            bodies = list(mock.requests)
        assert len(bodies) == 3
        for body in bodies:
            content = body["messages"][0]["content"]
            assert content.startswith(QUESTION_TEMPLATE.partition("{prompt}")[0])
            assert "Question: One plus one?" in content
            assert body["model"] == "mock-model"
            assert body["temperature"] == 0.0

    def test_retry_after_500s(self, tmp_path):
        questions = [Question(question_id="q1", text="One plus one?", gold_answer="2")]
        catalog = PromptCatalog(specs=(fixed_spec("NoCoT"),))
        out = tmp_path / "records.jsonl"
        with MockChatEndpoint(fail_first=2) as mock:
            with JsonlWriter(out) as writer:
                summary = sweep(
                    questions, config_for(mock.url, catalog=catalog, retries=3), writer
                )
        assert summary.succeeded == 1
        assert summary.retries == 2
        assert len(load_records(out)) == 1

    def test_exhausted_retries_go_to_sidecar(self, tmp_path):
        questions = [Question(question_id="q1", text="One plus one?", gold_answer="2")]
        catalog = PromptCatalog(specs=(fixed_spec("NoCoT"),))
        out = tmp_path / "records.jsonl"
        fail_path = tmp_path / "failures.jsonl"
        with MockChatEndpoint(fail_first=99) as mock:
            with JsonlWriter(out) as writer, JsonlWriter(fail_path) as failures:
                summary = sweep(
                    questions,
                    config_for(mock.url, catalog=catalog, retries=1),
                    writer,
                    failures,
                )
        assert summary.succeeded == 0
        assert summary.failed == 1
        assert load_records(out) == []
        sidecar = [json.loads(line) for line in fail_path.read_text().splitlines()]
        assert sidecar[0]["question_id"] == "q1"
        assert sidecar[0]["prompt_id"] == "NoCoT"
        assert "500" in sidecar[0]["error"]

    def test_missing_usage_without_fallback_fails(self, tmp_path):
        questions = [Question(question_id="q1", text="One plus one?", gold_answer="2")]
        catalog = PromptCatalog(specs=(fixed_spec("NoCoT"),))
        out = tmp_path / "records.jsonl"
        fail_path = tmp_path / "failures.jsonl"
        with MockChatEndpoint(omit_usage=True) as mock:
            with JsonlWriter(out) as writer, JsonlWriter(fail_path) as failures:
                summary = sweep(
                    questions, config_for(mock.url, catalog=catalog), writer, failures
                )
        assert summary.failed == 1
        sidecar = [json.loads(line) for line in fail_path.read_text().splitlines()]
        assert "usage" in sidecar[0]["error"]

    def test_missing_usage_with_fallback_estimates(self, tmp_path):
        questions = [Question(question_id="q1", text="One plus one?", gold_answer="2")]
        catalog = PromptCatalog(specs=(fixed_spec("NoCoT"),))
        out = tmp_path / "records.jsonl"
        with MockChatEndpoint(omit_usage=True) as mock:
            with JsonlWriter(out) as writer:
                summary = sweep(
                    questions,
                    config_for(mock.url, catalog=catalog, estimate_missing_usage=True),
                    writer,
                )
        assert summary.succeeded == 1
        record = load_records(out)[0]
        content = default_reply("One plus one?", "42")[0]
        assert record.tokens == -(-len(content) // 4)
        assert record.extra["tokens_estimated"] is True

    def test_resume_skips_existing_cells(self, tmp_path):
        questions = [
            Question(question_id="q1", text="One plus one?", gold_answer="2"),
            Question(question_id="q2", text="Two plus two?", gold_answer="4"),
        ]
        out = tmp_path / "records.jsonl"
        with MockChatEndpoint() as mock:
            with JsonlWriter(out) as writer:
                sweep([questions[0]], config_for(mock.url), writer)
            first_requests = mock.request_count
            skip = read_matrices(out)["mock-model", "mock-ds"].cells()
            with JsonlWriter(out, append=True) as writer:
                summary = sweep(questions, config_for(mock.url), writer, skip=skip)
        assert first_requests == 3
        assert mock.request_count == 6  # only q2's cells re-issued
        assert summary.skipped == 3
        assert len(load_records(out)) == 6  # no duplicate keys (load would raise)

    def test_parallel_sweep_collects_everything(self, tmp_path):
        questions = [
            Question(question_id=f"q{i}", text=f"Q number {i}?", gold_answer="1")
            for i in range(6)
        ]
        out = tmp_path / "records.jsonl"
        with MockChatEndpoint() as mock:
            with JsonlWriter(out) as writer:
                summary = sweep(
                    questions, config_for(mock.url, max_parallel=4), writer
                )
        assert summary.succeeded == 18
        assert len(load_records(out)) == 18


def _usage(value):
    def rewrite(response):
        response["usage"]["completion_tokens"] = value
        return response
    return rewrite


def _content(value):
    def rewrite(response):
        response["choices"][0]["message"]["content"] = value
        return response
    return rewrite


MALFORMED_REPLIES = [
    (_usage(-3), "usage.completion_tokens must be an integer in [0, 9223372036854775807], got -3"),
    (_usage(True), "got True"),
    (_usage(12.0), "got 12.0"),
    (_usage("12"), "got '12'"),
    (_usage(2**63), "got 9223372036854775808"),
    (lambda r: {**r, "usage": [5]}, "response usage must be an object, got list"),
    (_content(None), "response content must be a string, got NoneType"),
    (_content({"text": "Answer: bad"}), "response content must be a string, got dict"),
    (lambda r: [r], "response missing choices[0].message.content"),
]


def test_malformed_replies_go_to_sidecar(tmp_path):
    """Each kind of malformed reply fails its own cells; the sweep finishes the rest."""
    questions = [Question(question_id="good", text="One plus one?", gold_answer="2")]
    answers = {}
    for index in range(len(MALFORMED_REPLIES)):
        questions.append(Question(question_id=f"bad{index}", text=f"Q{index}?", gold_answer="1"))
        answers[f"Q{index}?"] = f"bad{index}"

    def rewrite(response):
        answer = response["choices"][0]["message"]["content"].rsplit("Answer: ", 1)[1]
        if answer.startswith("bad"):
            return MALFORMED_REPLIES[int(answer[3:])][0](response)
        return response

    out = tmp_path / "records.jsonl"
    fail_path = tmp_path / "failures.jsonl"
    with MockChatEndpoint(answers=answers, rewrite=rewrite) as mock:
        with JsonlWriter(out) as writer, JsonlWriter(fail_path) as failures:
            summary = sweep(questions, config_for(mock.url, max_parallel=3), writer, failures)
    bad_cells = 3 * len(MALFORMED_REPLIES)
    assert (summary.succeeded, summary.failed, summary.retries) == (3, bad_cells, 0)
    assert {r.question_id for r in load_records(out)} == {"good"}
    sidecar = [json.loads(line) for line in fail_path.read_text().splitlines()]
    assert len(sidecar) == bad_cells
    for entry in sidecar:
        assert MALFORMED_REPLIES[int(entry["question_id"][3:])][1] in entry["error"]


@pytest.mark.parametrize("block", [4, 7, 1 << 16])
@pytest.mark.parametrize(
    "before, after, cut",
    [
        (b"", b"", 0),
        (b'{"a": 1}\n', b'{"a": 1}\n', 0),
        (b'{"a": 1}', b'{"a": 1}\n', 0),
        (b'{"a": 1}\n{"b": [1, 2', b'{"a": 1}\n', 11),
        (b'{"b": [1, 2', b"", 11),
        (b'{"a": 1}\n{"b": "\xc3', b'{"a": 1}\n', 8),
        (b'{"a": 1\n{"b": 2}', b'{"a": 1\n{"b": 2}\n', 0),
        (b'{"a": 1}\n\n  ', b'{"a": 1}\n\n', 2),
        (b'{"a": 1}\n' + b"[" * 5000 + b"]" * 5000, b'{"a": 1}\n', 10000),
    ],
)
def test_drop_torn_tail(tmp_path, monkeypatch, block, before, after, cut):
    monkeypatch.setattr("cotbudget.collect.TAIL_BLOCK_BYTES", block)
    path = tmp_path / "records.jsonl"
    path.write_bytes(before)
    assert drop_torn_tail(path) == cut
    assert path.read_bytes() == after


def _questions(count: int) -> list[Question]:
    return [
        Question(question_id=f"q{i}", text=f"Q number {i}?", gold_answer="42")
        for i in range(count)
    ]


ONE_PROMPT = PromptCatalog(specs=(fixed_spec("NoCoT"),))


def _sweep(tmp_path, mock, questions, **kw):
    """Sweep into fresh records and failures files; returns (summary, sidecar entries)."""
    with JsonlWriter(tmp_path / "records.jsonl") as writer:
        with JsonlWriter(tmp_path / "failures.jsonl") as failures:
            summary = sweep(questions, config_for(mock.url, **kw), writer, failures)
    sidecar = (tmp_path / "failures.jsonl").read_text().splitlines()
    return summary, [json.loads(line) for line in sidecar]


@contextlib.contextmanager
def _raw_endpoint(attempts, reply):
    """An endpoint on a bare socket: each of `attempts` connections gets one
    request read, then reply(conn) writes what comes back, then it is closed.
    Yields an object with the url, as _sweep takes a mock."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        def serve() -> None:
            for _ in range(attempts):
                conn, _ = server.accept()
                with conn, conn.makefile("rb") as request:
                    length = 0
                    while (line := request.readline()) != b"\r\n":
                        name, _, value = line.partition(b":")
                        if name.lower() == b"content-length":
                            length = int(value)
                    request.read(length)  # unread bytes would make close() reset
                    try:
                        reply(conn)
                    except OSError:
                        pass  # the client gave up on the reply

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield type("Url", (), {"url": f"http://127.0.0.1:{server.getsockname()[1]}/v1"})
        thread.join(10)


@pytest.fixture
def waits(monkeypatch):
    """The retry waits a sweep asks for, recorded instead of slept."""
    recorded: list[float] = []
    monkeypatch.setattr("cotbudget.collect.time.sleep", recorded.append)
    return recorded


class TestRetryAfter:
    @pytest.mark.parametrize(
        "status, retry_after, expected",
        [
            (429, "3", [3, 3]),
            (503, "3", [3, 3]),
            (429, "0", [0.25, 0.5]),
            (503, "60", [60, 60]),
            (429, "61", [0.25, 0.5]),
            (429, "Wed, 21 Oct 2026 07:28:00 GMT", [0.25, 0.5]),
            (429, "soon", [0.25, 0.5]),
            (429, "1.5", [0.25, 0.5]),
            (429, "-2", [0.25, 0.5]),
            (429, None, [0.25, 0.5]),
            (500, "3", [0.25, 0.5]),
            (502, "3", [0.25, 0.5]),
        ],
    )
    def test_wait_is_larger_of_backoff_and_retry_after(
        self, tmp_path, waits, status, retry_after, expected
    ):
        with MockChatEndpoint(fail_first=2, fail_status=status, retry_after=retry_after) as mock:
            summary, _ = _sweep(tmp_path, mock, _questions(1), catalog=ONE_PROMPT)
        assert (summary.succeeded, summary.retries) == (1, 2)
        assert waits == expected

    def test_last_attempt_does_not_wait(self, tmp_path, waits):
        with MockChatEndpoint(fail_first=99, fail_status=429, retry_after="5") as mock:
            summary, sidecar = _sweep(tmp_path, mock, _questions(1), catalog=ONE_PROMPT, retries=1)
        assert (summary.failed, summary.retries) == (1, 1)
        assert waits == [5]
        assert sidecar[0]["error"] == "HTTP 429"


class TestConnections:
    def test_dropped_replies_spend_retries_then_succeed(self, tmp_path, waits):
        with MockChatEndpoint(drop_first=2) as mock:
            summary, _ = _sweep(tmp_path, mock, _questions(1), catalog=ONE_PROMPT)
        assert (summary.succeeded, summary.retries) == (1, 2)
        assert mock.request_count == 3
        assert mock.connection_count == 3
        assert waits == [0.25, 0.5]

    def test_dropped_replies_end_in_sidecar(self, tmp_path, waits):
        # Each attempt opens a new connection, so no drop is resent for free.
        with MockChatEndpoint(drop_first=99) as mock:
            summary, sidecar = _sweep(tmp_path, mock, _questions(1), catalog=ONE_PROMPT, retries=1)
        assert (summary.failed, summary.retries, mock.request_count) == (1, 1, 2)
        assert sidecar[0]["error"].startswith("transport: ")

    def test_connection_closed_while_idle_is_reopened_without_a_retry(self, tmp_path, waits):
        with MockChatEndpoint(close_after=1) as mock:
            summary, sidecar = _sweep(tmp_path, mock, _questions(3), retries=0)
        assert (summary.succeeded, summary.failed, summary.retries) == (9, 0, 0)
        assert sidecar == []
        assert waits == []
        assert mock.request_count == 9
        assert mock.connection_count == 9

    def test_parallel_workers_keep_one_connection_each(self, tmp_path):
        with MockChatEndpoint() as mock:
            summary, _ = _sweep(tmp_path, mock, _questions(20), max_parallel=2,
                                catalog=PromptCatalog(specs=(fixed_spec("NoCoT"),
                                                             fixed_spec("BeConcise"))))
        assert summary.succeeded == 40
        assert mock.request_count == 40
        assert 1 <= mock.connection_count <= 2

    def test_error_replies_are_read_so_the_connection_is_reused(self, tmp_path, waits):
        with MockChatEndpoint(fail_first=2) as mock:
            summary, _ = _sweep(tmp_path, mock, _questions(2))
        assert (summary.succeeded, summary.retries) == (6, 2)
        assert mock.connection_count == 1
        with MockChatEndpoint(fail_first=1, fail_status=404) as mock:
            summary, sidecar = _sweep(tmp_path, mock, _questions(2))
        assert (summary.succeeded, summary.failed, summary.retries) == (5, 1, 0)
        assert sidecar[0]["error"] == "HTTP 404"
        assert mock.connection_count == 1

    def test_redirect_is_a_failure_not_followed_or_retried(self, tmp_path, waits):
        with MockChatEndpoint(fail_first=1, fail_status=307) as mock:
            summary, sidecar = _sweep(tmp_path, mock, _questions(1), catalog=ONE_PROMPT)
        assert (summary.failed, summary.retries, mock.request_count) == (1, 0, 1)
        assert sidecar[0]["error"] == "HTTP 307"

    def test_a_reply_over_the_cap_fails_its_cell_once(self, tmp_path, waits, monkeypatch):
        """One request, one sidecar line naming the cap; the next cell reconnects."""
        monkeypatch.setattr("cotbudget.collect.MAX_REPLY_BYTES", 4096)

        def oversized(response):
            message = response["choices"][0]["message"]
            if message["content"].endswith("Answer: big"):
                message["content"] = "x" * 8192
            return response

        questions = [Question("big", "Big?", "1"), Question("small", "Small?", "1")]
        with MockChatEndpoint(answers={"Big?": "big"}, rewrite=oversized) as mock:
            summary, sidecar = _sweep(tmp_path, mock, questions, catalog=ONE_PROMPT)
        assert (summary.succeeded, summary.failed, summary.retries) == (1, 1, 0)
        assert (mock.request_count, mock.connection_count) == (2, 2)
        assert sidecar == [{"question_id": "big", "prompt_id": "NoCoT",
                            "error": "reply body longer than 4096 bytes"}]
        assert [r.question_id for r in load_records(tmp_path / "records.jsonl")] == ["small"]
        assert waits == []

    def test_a_body_shorter_than_its_length_is_a_transport_error(self, tmp_path, waits):
        """As reading the whole body raised: the attempt is retried on a new connection."""
        def short(conn):
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{}")

        with _raw_endpoint(2, short) as endpoint:
            summary, sidecar = _sweep(tmp_path, endpoint, _questions(1), catalog=ONE_PROMPT,
                                      retries=1)
        assert (summary.failed, summary.retries) == (1, 1)
        assert sidecar[0]["error"] == "transport: IncompleteRead(2 bytes read, 98 more expected)"

    def test_a_trickled_reply_fails_at_the_timeout(self, tmp_path, waits):
        """One byte every 0.4 s of a 12-byte body: the attempt ends at timeout, not at 4.8 s."""
        stop = threading.Event()

        def trickle(conn):
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n")
            for byte in b'{"x": "abc"}':
                if stop.wait(0.4):
                    return
                conn.sendall(bytes([byte]))

        with _raw_endpoint(1, trickle) as endpoint:
            start = time.monotonic()
            summary, sidecar = _sweep(tmp_path, endpoint, _questions(1), catalog=ONE_PROMPT,
                                      retries=0, timeout=1.0)
            elapsed = time.monotonic() - start
            stop.set()
        assert elapsed < 2 * 1.0
        assert (summary.failed, summary.retries) == (1, 0)
        assert sidecar == [{"question_id": "q0", "prompt_id": "NoCoT",
                            "error": "transport: timed out"}]

    @pytest.mark.parametrize("head", [b"HTTP/1.1 200 OK\r\n", b""],
                             ids=["header-trickle", "status-trickle"])
    def test_a_trickled_head_fails_at_the_timeout(self, tmp_path, waits, head):
        """The status line, or then a header, one byte every 0.4 s: the attempt ends at
        timeout, as a trickled body does, not when the last byte comes."""
        stop = threading.Event()
        rest = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"[len(head):]

        def trickle(conn):
            conn.sendall(head)
            for byte in rest:
                if stop.wait(0.4):
                    return
                conn.sendall(bytes([byte]))

        with _raw_endpoint(1, trickle) as endpoint:
            start = time.monotonic()
            summary, sidecar = _sweep(tmp_path, endpoint, _questions(1), catalog=ONE_PROMPT,
                                      retries=0, timeout=1.0)
            elapsed = time.monotonic() - start
            stop.set()
        assert elapsed < 2 * 1.0
        assert (summary.failed, summary.retries) == (1, 0)
        assert sidecar == [{"question_id": "q0", "prompt_id": "NoCoT",
                            "error": "transport: timed out"}]

    def test_a_head_in_pieces_within_the_timeout_keeps_its_bytes(self, tmp_path):
        content = "Headers in pieces. Answer: 42"
        body = json.dumps({"choices": [{"message": {"content": content}}],
                           "usage": {"completion_tokens": 9}}).encode()
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)

        def pieces(conn):
            for start in range(0, len(reply), 8):
                time.sleep(0.01)
                conn.sendall(reply[start:start + 8])

        with _raw_endpoint(1, pieces) as endpoint:
            summary, _ = _sweep(tmp_path, endpoint, _questions(1), catalog=ONE_PROMPT,
                                retries=0, timeout=5.0)
        assert (summary.succeeded, summary.failed) == (1, 0)
        [record] = load_records(tmp_path / "records.jsonl")
        assert (record.response, record.tokens, record.correct) == (content, 9, True)

    def test_a_reply_in_pieces_within_the_timeout_keeps_its_bytes(self, tmp_path):
        content = "Thinking in pieces. Answer: 42"
        body = json.dumps({"choices": [{"message": {"content": content}}],
                           "usage": {"completion_tokens": 7}}).encode()

        def pieces(conn):
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body))
            for start in range(0, len(body), 16):
                time.sleep(0.02)
                conn.sendall(body[start:start + 16])

        with _raw_endpoint(1, pieces) as endpoint:
            summary, _ = _sweep(tmp_path, endpoint, _questions(1), catalog=ONE_PROMPT,
                                retries=0, timeout=5.0)
        assert (summary.succeeded, summary.failed) == (1, 0)
        [record] = load_records(tmp_path / "records.jsonl")
        assert (record.response, record.tokens, record.correct) == (content, 7, True)

    def test_a_kept_alive_connection_gets_the_whole_timeout_again(self, tmp_path):
        """A body read shortens the socket's timeout; the next request starts with all of it."""
        def slow(question_text, body):
            time.sleep(1.2)
            return default_reply(question_text, "42")

        with MockChatEndpoint(reply_fn=slow) as mock:
            summary, _ = _sweep(tmp_path, mock, _questions(2), catalog=ONE_PROMPT, retries=0,
                                timeout=2.0)
        assert (summary.succeeded, summary.failed) == (2, 0)
        assert mock.connection_count == 1

    def test_workers_never_share_a_connection_under_stress(self, tmp_path):
        """More workers than cores, switching threads often: a shared connection
        would interleave two requests and fail or cross their replies."""
        questions = _questions(40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with MockChatEndpoint(answers={q.text: q.question_id for q in questions}) as mock:
                summary, _ = _sweep(tmp_path, mock, questions, max_parallel=8, retries=0)
        finally:
            sys.setswitchinterval(interval)
        assert (summary.succeeded, summary.failed) == (120, 0)
        assert mock.connection_count <= 8
        records = load_records(tmp_path / "records.jsonl")
        assert len(records) == 120
        assert all(r.extracted_answer == r.question_id for r in records)

    def test_connections_are_closed_when_the_sweep_returns(self, tmp_path):
        with MockChatEndpoint() as mock:
            _sweep(tmp_path, mock, _questions(4), max_parallel=2)
            deadline = time.monotonic() + 5
            while mock.open_sockets and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not mock.open_sockets

    def test_sequential_cells_do_not_stall(self, tmp_path):
        """Guards against Nagle's algorithm meeting delayed ACKs: about 40 ms a cell."""
        catalog = PromptCatalog(specs=tuple(fixed_spec(p) for p in ("NoCoT", "BeConcise")))
        with MockChatEndpoint() as mock:
            start = time.perf_counter()
            summary, _ = _sweep(tmp_path, mock, _questions(50), catalog=catalog)
            elapsed = time.perf_counter() - start
        assert summary.succeeded == 100
        assert elapsed < 2.0


class _ConnectRefusingProxy(BaseHTTPRequestHandler):
    """Records each CONNECT target and refuses it, so no TLS is needed."""

    targets: list[str] = []

    def do_CONNECT(self) -> None:  # noqa: N802 (http.server API)
        self.targets.append(self.path)
        self.send_error(403)

    def log_message(self, fmt, *args) -> None:
        pass


@pytest.fixture
def connect_proxy():
    """A proxy URL whose server refuses CONNECT; yields (url, targets)."""
    handler = type("Handler", (_ConnectRefusingProxy,), {"targets": []})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", handler.targets
    finally:
        server.shutdown()
        server.server_close()


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestTransportParity:
    def test_bodies_are_compact_ascii_json(self, tmp_path, clean_env):
        questions = [Question(question_id="u", text="Größe von π?", gold_answer="1")]
        with MockChatEndpoint() as mock:
            _sweep(tmp_path, mock, questions, catalog=ONE_PROMPT, temperature=0.7)
        [(target, _, raw)] = mock.raw_requests
        assert target == "/v1/chat/completions"
        # The encoding requests used for json=: json.dumps defaults, NaN refused.
        assert raw == json.dumps(mock.requests[0], allow_nan=False).encode("utf-8")
        assert raw.isascii()
        assert b'"temperature": 0.7' in raw

    def test_bodies_match_what_requests_sent(self, tmp_path, clean_env):
        requests = pytest.importorskip("requests")
        questions = [Question(question_id="u", text="Größe von π?", gold_answer="1")]
        with MockChatEndpoint() as mock:
            _sweep(tmp_path, mock, questions, temperature=0.7)
        for (_, _, raw), body in zip(mock.raw_requests, mock.requests):
            assert raw == requests.Request("POST", mock.url, json=body).prepare().body

    def test_non_finite_temperature_is_refused_before_any_request(self):
        with pytest.raises(ValueError, match="temperature"):
            config_for("http://127.0.0.1:9/", temperature=float("nan"))

    @pytest.mark.parametrize("timeout", [0, 0.0, -1, float("nan"), float("inf")])
    def test_a_timeout_that_cannot_work_is_refused(self, timeout):
        """0 failed every cell at the socket, -1 and NaN raised out of sweep after it had
        made its files, and inf overflowed."""
        with pytest.raises(ValueError, match="timeout must be a finite number above 0"):
            config_for("http://127.0.0.1:9/", timeout=timeout)

    def test_a_small_timeout_is_accepted(self):
        assert config_for("http://127.0.0.1:9/", timeout=1e-3).timeout == 1e-3

    @pytest.mark.parametrize("key", [None, "sk-test"])
    def test_headers(self, tmp_path, clean_env, key):
        import cotbudget

        if key is not None:
            clean_env.setenv("COTBUDGET_API_KEY", key)
        with MockChatEndpoint() as mock:
            _sweep(tmp_path, mock, _questions(1), catalog=ONE_PROMPT)
        headers = {k.lower(): v for k, v in mock.raw_requests[0][1].items()}
        assert headers["content-type"] == "application/json"
        assert headers["user-agent"] == f"cotbudget/{cotbudget.__version__}"
        assert headers["accept-encoding"] == "identity"
        assert headers.get("authorization") == (None if key is None else f"Bearer {key}")

    @pytest.mark.parametrize(
        "variable, userinfo, authorization",
        [
            ("HTTP_PROXY", "", None),
            ("ALL_PROXY", "", None),
            ("HTTP_PROXY", "ann:p%40ss@", "Basic " + base64.b64encode(b"ann:p@ss").decode()),
        ],
    )
    def test_http_proxy_carries_requests_to_an_unreachable_host(
        self, tmp_path, clean_env, variable, userinfo, authorization
    ):
        endpoint = f"http://127.0.0.1:{_closed_port()}/v1/chat/completions?x=1"
        with MockChatEndpoint() as proxy:
            clean_env.setenv(variable, proxy.url.rsplit("/v1/", 1)[0].replace("//", "//" + userinfo))
            summary, _ = _sweep(tmp_path, proxy, _questions(2), endpoint=endpoint, retries=0)
        assert summary.succeeded == 6
        assert {target for target, _, _ in proxy.raw_requests} == {endpoint}
        assert {headers.get("Proxy-Authorization") for _, headers, _ in proxy.raw_requests} == {
            authorization
        }
        assert proxy.connection_count == 1

    def test_no_proxy_connects_directly(self, tmp_path, clean_env):
        endpoint = f"http://127.0.0.1:{_closed_port()}/v1/chat/completions"
        with MockChatEndpoint() as proxy:
            clean_env.setenv("HTTP_PROXY", proxy.url.rsplit("/v1/", 1)[0])
            clean_env.setenv("NO_PROXY", "localhost,127.0.0.1")
            summary, sidecar = _sweep(tmp_path, proxy, _questions(1), catalog=ONE_PROMPT,
                                      endpoint=endpoint, retries=0)
        assert summary.failed == 1
        assert "refused" in sidecar[0]["error"]
        assert proxy.request_count == 0

    def test_https_goes_through_a_connect_tunnel(self, tmp_path, clean_env, connect_proxy):
        url, targets = connect_proxy
        clean_env.setenv("HTTPS_PROXY", url)
        with MockChatEndpoint() as mock:  # only for its URL in _sweep's config
            summary, sidecar = _sweep(tmp_path, mock, _questions(1), catalog=ONE_PROMPT,
                                      endpoint="https://api.example.test/v1/chat", retries=0)
        assert summary.failed == 1
        assert targets == ["api.example.test:443"]
        assert "403" in sidecar[0]["error"]

    @pytest.mark.parametrize(
        "variable, kind",
        [("REQUESTS_CA_BUNDLE", "cafile"), ("CURL_CA_BUNDLE", "cafile"),
         ("REQUESTS_CA_BUNDLE", "capath")],
    )
    def test_ca_bundle_variables_are_trusted(self, tmp_path, clean_env, connect_proxy,
                                             variable, kind):
        import ssl

        create = ssl.create_default_context
        calls = []

        def recording(**kwargs):
            calls.append(kwargs)
            return create()

        clean_env.setattr(ssl, "create_default_context", recording)
        bundle = tmp_path / "certs"
        if kind == "capath":
            bundle.mkdir()
        else:
            bundle.write_text("")
        clean_env.setenv(variable, str(bundle))
        clean_env.setenv("HTTPS_PROXY", connect_proxy[0])
        with MockChatEndpoint() as mock:
            _sweep(tmp_path, mock, _questions(1), catalog=ONE_PROMPT,
                   endpoint="https://api.example.test/v1/chat", retries=0)
        assert calls == [{kind: str(bundle)}]

    def test_missing_ca_bundle_is_an_endpoint_error(self, tmp_path, clean_env):
        clean_env.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "missing.pem"))
        with MockChatEndpoint() as mock, pytest.raises(EndpointError, match="CA bundle"):
            _sweep(tmp_path, mock, _questions(1), endpoint="https://api.example.test/v1")
        assert mock.request_count == 0

    @pytest.mark.parametrize(
        "endpoint, error",
        [
            ("ftp://host/v1", "must be an http:// or https:// URL"),
            ("127.0.0.1:8080/v1", "must be an http:// or https:// URL"),
            ("http:///v1", "must be an http:// or https:// URL"),
            ("http://host:0/v1", "must be an http:// or https:// URL"),
            ("http://host:port/v1", "Port could not be cast"),
        ],
    )
    def test_endpoint_must_be_an_http_url(self, endpoint, error):
        with pytest.raises(ValueError, match=error):
            config_for(endpoint)


BAD_QUESTION_LINES = [
    ('{"question_id": "q2", "text": "t"', RecordParseError, "malformed JSON"),
    ('["q2", "t", "1"]', RecordSchemaError, "question must be a JSON object, got list"),
    ('{"text": "t", "gold_answer": "1"}', RecordSchemaError, "missing required field(s): question_id"),
    ('{"question_id": "q2", "text": "t"}', RecordSchemaError, "missing required field(s): gold_answer"),
    ('{"question_id": "", "text": "t", "gold_answer": "1"}', RecordSchemaError,
     "field 'question_id' must be a non-empty string, got ''"),
    ('{"question_id": 2, "text": "t", "gold_answer": "1"}', RecordSchemaError,
     "field 'question_id' must be a non-empty string, got 2"),
    ('{"question_id": "q2", "text": "", "gold_answer": "1"}', RecordSchemaError,
     "field 'text' must be a non-empty string"),
    ('{"question_id": "q2", "text": null, "gold_answer": "1"}', RecordSchemaError,
     "field 'text' must be a non-empty string, got None"),
    ('{"question_id": "q2", "text": "t", "gold_answer": ""}', RecordSchemaError,
     "field 'gold_answer' must be a non-empty string"),
    ('{"question_id": "q2", "text": "t", "gold_answer": 7}', RecordSchemaError,
     "field 'gold_answer' must be a non-empty string, got 7"),
    ('{"question_id": "q2", "text": "t", "gold_answer": "A", "choices": "AB"}',
     RecordSchemaError, "field 'choices' must be a list of objects"),
    ('{"question_id": "q2", "text": "t", "gold_answer": "A", "choices": [{"label": "A"}]}',
     RecordSchemaError, "field 'choices' must be a list of objects"),
    ('{"question_id": "q2", "text": "t", "gold_answer": "A", "choices": [{"label": 1, "text": "x"}]}',
     RecordSchemaError, "field 'choices' must be a list of objects"),
    ('{"question_id": "q2", "text": "t", "gold_answer": "Z", "choices": [{"label": "A", "text": "x"}]}',
     RecordSchemaError, "gold_answer 'Z' is not one of the choice labels"),
    ('{"question_id": "q1", "text": "t", "gold_answer": "1"}', RecordSchemaError,
     "duplicate question_id 'q1' (first on line 1)"),
]


@pytest.mark.parametrize("line, error, reason", BAD_QUESTION_LINES)
def test_bad_question_line_names_path_and_line(tmp_path, line, error, reason):
    path = tmp_path / "q.jsonl"
    first = json.dumps({"question_id": "q1", "text": "t", "gold_answer": "1"})
    path.write_text(first + "\n\n" + line + "\n", encoding="utf-8")
    with pytest.raises(error) as exc:
        load_questions(path)
    assert exc.value.line_no == 3
    assert str(exc.value).startswith(f"{path}:3: ")
    assert reason in str(exc.value)


def test_question_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "q.jsonl"
    good = json.dumps({"question_id": "q1", "text": "t", "gold_answer": "1"}).encode()
    path.write_bytes(good + b"\n" + b'{"question_id": "q2", "text": "\xff"}\n')
    with pytest.raises(RecordParseError) as exc:
        load_questions(path)
    assert str(exc.value) == (
        f"{path}:2: not UTF-8: byte 0xff at column 32 (invalid start byte)"
    )


class _OneReply:
    """Stands in for a sweep's transport: every POST gets the same 200 reply."""

    def __init__(self, reply: dict) -> None:
        self.body = json.dumps(reply).encode("utf-8")

    def post(self, body: bytes) -> tuple[int, None, bytes]:
        return 200, None, self.body


def test_reply_nested_too_deeply_is_unparseable():
    spec = fixed_spec("NoCoT")
    config = SweepConfig(endpoint="http://127.0.0.1:9/v1", model="m", dataset="d",
                         catalog=PromptCatalog((spec,)))
    transport = _OneReply({})
    transport.body = b"[" * 5000 + b"]" * 5000
    assert _run_cell(config, FREE_QUESTION, spec, transport) == (None, "unparseable response body", 0)


IDS = st.text(min_size=1, max_size=6)
CONTENT = st.text(max_size=30) | st.builds(
    "{}\nAnswer: {}".format, st.text(max_size=10), st.text(min_size=1, max_size=6)
)


@settings(max_examples=200, deadline=None)
@given(model=IDS, dataset=IDS, question_id=IDS, prompt_id=IDS, gold=IDS, content=CONTENT,
       tokens=st.none() | st.integers(0, 2**63 - 1))
def test_collected_record_has_the_bytes_of_an_eval_record(
    model, dataset, question_id, prompt_id, gold, content, tokens
):
    """A collected cell serialises as the per-record writer writes it, estimate flag included."""
    spec = PromptSpec(prompt_id=prompt_id, family="NoCoT", instruction="Only give the final answer.")
    config = SweepConfig(endpoint="http://127.0.0.1:9/v1", model=model, dataset=dataset,
                         catalog=PromptCatalog((spec,)), estimate_missing_usage=True)
    question = Question(question_id=question_id, text="t", gold_answer=gold)
    reply = {"choices": [{"message": {"content": content}}]}
    if tokens is not None:
        reply["usage"] = {"completion_tokens": tokens}
    record, error, _ = _run_cell(config, question, spec, _OneReply(reply))
    assert error is None
    correct, extracted = grade(content, question)
    estimated = tokens is None
    want = EvalRecord(
        model, dataset, question_id, prompt_id,
        -(-len(content) // 4) if estimated else tokens,
        correct,
        response=content,
        extracted_answer=extracted,
        extra={"tokens_estimated": True} if estimated else {},
    )
    want_line = json.dumps(record_json_loop(want), ensure_ascii=False)
    assert json.dumps(record, ensure_ascii=False) == want_line
    assert ("extracted_answer" in record) == (extracted is not None)
    assert ("tokens_estimated" in record) == estimated


def test_one_worker_requests_cells_in_question_by_catalog_order(tmp_path):
    questions = [Question(f"q{i}", f"Question {i}?", "1") for i in range(4)]
    out = tmp_path / "records.jsonl"
    with MockChatEndpoint() as mock:
        with JsonlWriter(out) as writer:
            sweep(questions, config_for(mock.url, max_parallel=1), writer)
        contents = [body["messages"][0]["content"] for body in mock.requests]
    cells = [(q, spec) for q in questions for spec in small_catalog()]
    assert contents == [render(spec, format_question(q)) for q, spec in cells]
    assert [r.key[2:] for r in load_records(out)] == [(q.question_id, s.prompt_id) for q, s in cells]


def _slow_reply(question_text, body):
    time.sleep(0.02)
    return default_reply(question_text, "1")


class _FailingWriter:
    def write(self, obj: dict) -> None:
        raise OSError("disk full")


@pytest.mark.parametrize("max_parallel", [1, 3])
def test_a_writer_that_raises_stops_the_sweep(max_parallel):
    """The other workers finish the cell in hand and take no new one."""
    questions = [Question(f"q{i}", f"Question {i}?", "1") for i in range(20)]
    with MockChatEndpoint(reply_fn=_slow_reply) as mock:
        config = config_for(mock.url, max_parallel=max_parallel)
        with pytest.raises(OSError, match="disk full"):
            sweep(questions, config, _FailingWriter())
        assert 1 <= mock.request_count <= 2 * max_parallel


class _ThreadRecordingWriter:
    def __init__(self) -> None:
        self.threads: list[int] = []

    def write(self, obj: dict) -> None:
        self.threads.append(threading.get_ident())


def test_one_worker_is_the_calling_thread():
    writer = _ThreadRecordingWriter()
    with MockChatEndpoint() as mock:
        sweep(_questions(4), config_for(mock.url, max_parallel=1), writer)
    assert writer.threads == [threading.get_ident()] * 12


class _OneThreadFailingWriter:
    """Raises on a write from the calling thread, or from any other thread."""

    def __init__(self, calling: bool) -> None:
        self.caller, self.calling = threading.get_ident(), calling

    def write(self, obj: dict) -> None:
        if (threading.get_ident() == self.caller) is self.calling:
            raise OSError("disk full")


@pytest.mark.parametrize("calling", [True, False], ids=["calling thread", "worker thread"])
def test_a_cell_that_raises_in_either_thread_stops_the_sweep(calling):
    questions = [Question(f"q{i}", f"Question {i}?", "1") for i in range(20)]
    with MockChatEndpoint(reply_fn=_slow_reply) as mock:
        with pytest.raises(OSError, match="disk full"):
            sweep(questions, config_for(mock.url, max_parallel=3), _OneThreadFailingWriter(calling))
        assert 1 <= mock.request_count <= 6


# Spawns the sweep child and prints its exit status and peak RSS in KiB.
# Linux charges a child's ru_maxrss with its spawner's RSS, so the child is
# spawned from this small process, not from the test process.
LAUNCH = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(status, usage.ru_maxrss)
"""
SWEEP = """
import sys
from cotbudget.collect import JsonlWriter, Question, SweepConfig, sweep
from cotbudget.prompts import default_catalog
url, n, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
questions = [Question(f"q{i}", f"Question {i}?", "42") for i in range(n)]
with JsonlWriter(out) as writer:
    summary = sweep(questions, SweepConfig(url, "m", "d", default_catalog(), max_parallel=2), writer)
assert summary.succeeded == 31 * n, summary
"""


def test_sweep_memory_is_flat_in_the_number_of_cells(tmp_path):
    """217 and 2,170 cells peak alike; a Future per cell grew the larger by about 4 MB."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    peaks = []
    with MockChatEndpoint() as mock:
        for n in (7, 70):
            argv = [sys.executable, "-c", LAUNCH, SWEEP, mock.url, str(n), str(tmp_path / f"{n}.jsonl")]
            done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
            status, kib = map(int, done.stdout.split())
            assert status == 0, done.stderr
            peaks.append(kib / 1024)
    assert abs(peaks[1] - peaks[0]) < 1.0, peaks


class TestIdsAreCheckedBeforeAnyRequest:
    """Every id a collected record carries is refused when the sweep's inputs are built."""

    @pytest.mark.parametrize("field", ["model", "dataset"])
    @pytest.mark.parametrize("value", ["", None, 7])
    def test_config_ids(self, field, value):
        with MockChatEndpoint() as mock:
            with pytest.raises(ValueError, match=f"{field} must be a non-empty string"):
                config_for(mock.url, **{field: value})
            assert mock.request_count == 0

    @pytest.mark.parametrize("value", ["", None, 7])
    def test_prompt_id(self, value):
        with MockChatEndpoint() as mock:
            with pytest.raises(ValueError, match="prompt_id must be a non-empty string"):
                PromptSpec(prompt_id=value, family="NoCoT", instruction="Only give the final answer.")
            assert mock.request_count == 0

    @pytest.mark.parametrize("value", ["", None])
    def test_question_id(self, value):
        with MockChatEndpoint() as mock:
            with pytest.raises(ValueError, match="field 'question_id' must be a non-empty string"):
                Question(question_id=value, text="t", gold_answer="1")
            assert mock.request_count == 0


# Question ids with non-ASCII and NUL characters; prompt ids from a pool of
# 100, so a question's mask often passes one machine word.
CELL_QUESTION_IDS = st.sampled_from(["q1", "q2", "é", "问题", "q1\x00"]) | st.text(min_size=1,
                                                                                  max_size=2)
CELL_PROMPT_IDS = st.integers(0, 99).map(lambda i: f"п{i}")


def _write_cells(path, cells, model="m"):
    """A records file with one line per (question_id, prompt_id) cell, in order."""
    with path.open("a", encoding="utf-8") as fh:
        for question_id, prompt_id in cells:
            fh.write(json.dumps({"model": model, "dataset": "d", "question_id": question_id,
                                 "prompt_id": prompt_id, "tokens": 1, "correct": True}) + "\n")
    return path


class TestPairCells:
    """The skip set a resume reads: a records file's cells of one pair."""

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.tuples(CELL_QUESTION_IDS, CELL_PROMPT_IDS), max_size=300),
           probes=st.lists(st.tuples(CELL_QUESTION_IDS, CELL_PROMPT_IDS | st.text(max_size=2))))
    def test_matches_a_python_set(self, tmp_path_factory, cells, probes):
        folder = tmp_path_factory.mktemp("cells")
        want = set(cells)
        # Another pair's lines between the pair's own: they are not its cells.
        path = folder / "unique.jsonl"
        path.touch()
        for cell in dict.fromkeys(cells):
            _write_cells(path, [cell])
            _write_cells(path, [cell[::-1]], model="m2")
        got = prior_cells(path, "m", "d")
        assert len(got) == len(want)
        assert len(list(got)) == len(want)
        assert set(got) == want
        assert got == want and want == got
        for probe in probes:
            assert (probe in got) is (probe in want)
        first = {}
        for line_no, cell in enumerate(cells, start=1):
            if first.setdefault(cell, line_no) != line_no:
                path = _write_cells(folder / "repeats.jsonl", cells)
                with pytest.raises(DuplicateRecordError) as caught:
                    prior_cells(path, "m", "d")
                assert str(caught.value) == (f"duplicate record key {('m', 'd', *cell)!r} "
                                             f"(lines {first[cell]} and {line_no} of {path})")
                break

    def test_masks_past_one_machine_word(self, tmp_path):
        prompts = [f"p{i}" for i in range(130)]
        path = _write_cells(tmp_path / "r.jsonl", [("q", p) for p in prompts[::-1]])
        cells = prior_cells(path, "m", "d")
        assert ("q", "p0") in cells and ("q", "p130") not in cells
        assert sorted(cells) == sorted(("q", p) for p in prompts)
        assert len(cells) == 130
        _write_cells(path, [("q", "p129")])
        with pytest.raises(DuplicateRecordError, match=r"\(lines 1 and 131 of "):
            prior_cells(path, "m", "d")

    @pytest.mark.parametrize("probe", ["qp", ("q",), ("q", "p", "x"), ["q", "p"], None])
    def test_anything_but_a_pair_is_absent(self, tmp_path, probe):
        cells = prior_cells(_write_cells(tmp_path / "r.jsonl", [("q", "p")]), "m", "d")
        assert ("q", "p") in cells
        assert probe not in cells


def _prior_records(path):
    """27,600 records of one pair, with a response each, as a resume reads them."""
    with path.open("w", encoding="utf-8") as fh:
        for q in range(920):
            for p in range(30):
                fh.write(json.dumps({
                    "model": "m", "dataset": "d", "question_id": f"question-{q}",
                    "prompt_id": f"prompt-{p}", "tokens": q + p, "correct": q % 3 == 0,
                    "response": f"Thinking about question {q} under prompt {p}. Answer: {q}",
                }) + "\n")
    return path


def test_prior_cells_hold_a_bit_per_cell_once_read(tmp_path):
    """What stays alive after the read: the pair's ids and masks, no per-record column."""
    path = _prior_records(tmp_path / "records.jsonl")
    tracemalloc.start()
    try:
        cells = prior_cells(path, "m", "d")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(cells) == 27_600
    assert held <= 256 << 10


def test_prior_cells_peak_stays_below_one_mib(tmp_path):
    """27,600 prior records: a bit each, not a tuple and a dict entry each."""
    path = tmp_path / "records.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for q in range(920):
            for p in range(30):
                fh.write(json.dumps({
                    "model": "m", "dataset": "d", "question_id": f"question-{q}",
                    "prompt_id": f"prompt-{p}", "tokens": q + p, "correct": q % 3 == 0,
                    "response": f"Thinking about question {q} under prompt {p}. Answer: {q}",
                }) + "\n")
    tracemalloc.start()
    try:
        cells = prior_cells(path, "m", "d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cells) == 27_600
    assert peak <= 2**20


class _UncopyableCells(Set):
    def __init__(self, cells):
        self._cells = frozenset(cells)

    def __contains__(self, cell):
        return cell in self._cells

    def __len__(self):
        return len(self._cells)

    def __iter__(self):
        raise AssertionError("the skip set was copied")


def test_sweep_uses_a_set_skip_as_it_is(tmp_path):
    skip = _UncopyableCells([("q0", "NoCoT"), ("q1", "BeConcise")])
    with MockChatEndpoint() as mock:
        with JsonlWriter(tmp_path / "records.jsonl") as writer:
            summary = sweep(_questions(2), config_for(mock.url), writer, skip=skip)
    assert (summary.requested, summary.skipped, summary.succeeded) == (6, 2, 4)
    assert mock.request_count == 4


def test_an_interrupted_sidecar_rewrite_leaves_the_old_sidecar(tmp_path, monkeypatch):
    sidecar = tmp_path / "failures.jsonl"
    before = b'{"question_id": "q0", "prompt_id": "NoCoT", "error": "HTTP 500"}\n'
    sidecar.write_bytes(before)

    def killed(src, dst):
        raise KeyboardInterrupt  # as a kill before the new file is moved into place

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        drop_settled_failures(sidecar, _questions(1), ONE_PROMPT, PairCells())
    assert sidecar.read_bytes() == before


def test_a_sidecar_rewrite_leaves_a_file_named_like_its_scratch(tmp_path):
    sidecar = tmp_path / "failures.jsonl"
    kept = b'{"question_id": "q9", "prompt_id": "NoCoT", "error": "HTTP 500"}\n'
    sidecar.write_bytes(b'{"question_id": "q0", "prompt_id": "NoCoT", "error": "HTTP 500"}\n'
                        + kept)
    sidecar.chmod(0o640)
    other = tmp_path / "failures.jsonl.tmp"
    other.write_bytes(b"not the sidecar's\n")
    drop_settled_failures(sidecar, _questions(1), ONE_PROMPT, PairCells())
    assert sidecar.read_bytes() == kept
    assert sidecar.stat().st_mode & 0o777 == 0o640
    assert other.read_bytes() == b"not the sidecar's\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "failures.jsonl", "failures.jsonl.tmp"]


def test_an_interrupted_sidecar_rewrite_leaves_no_scratch(tmp_path, monkeypatch):
    sidecar = tmp_path / "failures.jsonl"
    sidecar.write_bytes(b'{"question_id": "q0", "prompt_id": "NoCoT", "error": "HTTP 500"}\n')

    def killed(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        drop_settled_failures(sidecar, _questions(1), ONE_PROMPT, PairCells())
    assert [path.name for path in tmp_path.iterdir()] == ["failures.jsonl"]


def test_client_gone_before_the_reply_ends_the_connection_quietly(capfd):
    entered, closed = threading.Event(), threading.Event()
    handlers = []

    def reply_after_the_client_left(question_text, body):
        handlers.append(threading.current_thread())
        entered.set()
        closed.wait(5)
        return default_reply(question_text, "42")

    with MockChatEndpoint(reply_fn=reply_after_the_client_left) as mock:
        body = json.dumps({"messages": [{"role": "user", "content": "Question: gone"}]}).encode()
        head = (f"POST /v1/chat/completions HTTP/1.1\r\nHost: mock\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        port = int(mock.url.split(":")[2].split("/")[0])
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(head.encode() + body)
            assert entered.wait(5)
            # A zero linger makes close() send a reset, so the reply's first write fails.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        closed.set()
        handlers[0].join(5)
        assert not handlers[0].is_alive()
    assert capfd.readouterr().err == ""
