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
from unittest.mock import patch

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget import collect as collect_module
from cotbudget.collect import (
    JsonlWriter,
    Question,
    SweepConfig,
    _run_cell,
    format_question,
    grade,
    load_questions,
    sweep,
)
from cotbudget import grading
from cotbudget.grading import Choice
from cotbudget.errors import (
    DuplicateRecordError, EndpointError, RecordParseError, RecordSchemaError,
)
from cotbudget.mockserver import MockChatEndpoint, default_reply
from cotbudget.prompts import (
    QUESTION_TEMPLATE,
    PromptCatalog,
    PromptSpec,
    default_catalog,
    fixed_spec,
    render,
)
from cotbudget.complexity import ComplexityProfile
from cotbudget.records import EvalRecord, RunMatrix, load_records, read_matrices
from cotbudget.sweepfiles import drop_torn_tail, open_sweep, prior_cells
from cotbudget import transport as transport_module
from cotbudget.transport import _DeadlineReader

from conftest import without_usage
from loop_oracles import present_cells, record_json_loop, strip_wrapping_stack

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
from cotbudget.grading import Question, _as_rational, grade
for answer in ("1e999999999", "1E-999999999", "2.5e+4301"):
    assert grade("Answer: " + answer, Question("q", "t", "1000")) == (False, answer)
    assert grade("Answer: 1000", Question("q", "t", answer)) == (False, "1000")
    assert grade("Answer: " + answer, Question("q", "t", answer)) == (True, answer)
assert _as_rational("1e4301") is None and _as_rational("1e-4_301") is None
assert _as_rational("1e4300") == 10**4300
assert _as_rational("1e-4300") == Fraction(1, 10**4300)
"""

LONG_RUNS = """
from cotbudget.collect import Question, grade
run = 1_000_000
gold = Question("q", "t", "1")
for blank in (" ", "\\t"):
    assert grade("Answer: 1" + blank * run + "x", gold)[0] is False
    assert grade("Answer: 1" + blank * run + "/" + blank * run + "1", gold)[0] is True
    assert grade("Answer: -" + blank * run + "x", gold)[0] is False
assert grade("Answer: " + "(" * run + "1" + ")" * run, gold) == (True, "1")
assert grade("Answer: " + "( " * run + ")" * run, gold) == (False, None)
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

    def test_long_runs_of_blanks_or_parentheses_grade_in_linear_time(self):
        """A regex search that backs off through a run, or a slice per parenthesis, is quadratic."""
        done = subprocess.run([sys.executable, "-c", LONG_RUNS], capture_output=True,
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

    @pytest.mark.parametrize("reply, gold, correct", [
        # A gold in wrapping parentheses is stripped as the reply is.
        ("(0,1)", "(0,1)", True),
        ("(0, 1)", "(0, 1)", True),
        ("(x+1)(x-1)", "(x+1)(x-1)", True),
        ("(3, \\frac{\\pi}{2})", "(3, \\frac{\\pi}{2})", True),
        ("(0,1)", "(0,2)", False),
        ("[0,1)", "(0,1)", False),
        ("(x+1)(x+1)", "(x+1)(x-1)", False),
        # A comma or a space in a number is a thousands separator, or no number.
        ("1,000", "1000", True),
        ("1 000", "1000", True),
        ("1000", "1,000", True),
        ("12,345,678", "12345678", True),
        ("12 345 678", "12,345,678", True),
        ("1,000.5", "1000.5", True),
        ("-1,000", "-1000", True),
        ("3 / 4", "3/4", True),
        ("- 3", "-3", True),
        ("2, 3", "23", False),
        ("1 2", "12", False),
        ("12", "1,2", False),
        ("1,00", "100", False),
        ("1,0000", "10000", False),
        ("1,000 000", "1000000", False),
        ("1000,000", "1000000", False),
        ("0.123,456", "0.123456", False),
    ])
    def test_gold_normalization_and_thousands_separators(self, reply, gold, correct):
        assert grade(f"Answer: {reply}", Question("q", "t", gold))[0] is correct

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1000, 10**40))
    def test_a_thousands_grouped_number_equals_its_digits(self, n):
        assert grade(f"Answer: {n:,}", Question("q", "t", str(n))) == (True, f"{n:,}")

    @settings(max_examples=200, deadline=None)
    @given(a=st.text("0123456789", min_size=1), b=st.text("0123456789", min_size=1))
    def test_a_comma_separated_list_is_not_its_digits_joined(self, a, b):
        assert grade(f"Answer: {a}, {b}", Question("q", "t", a + b))[0] is False

    @pytest.mark.parametrize("reply, question, graded", [
        # Only outer parentheses that pair with each other are peeled, and
        # trailing periods go at every layer.
        ("(G).", MC_QUESTION, (True, "G")),
        ("(0,1).", Question("q", "t", "(0,1)"), (True, "0,1")),
        ("(x+1)(x-1)", Question("q", "t", "(x+1)(x-1)"), (True, "(x+1)(x-1)")),
        ("(a)(b)", Question("q", "t", "a)(b"), (False, "(a)(b)")),
        ("((a)(b)) .", Question("q", "t", "(a)(b)"), (True, "(a)(b)")),
        # Near misses: a parenthesis with no partner stays.
        ("(G", MC_QUESTION, (False, "(G")),
        ("G)", MC_QUESTION, (True, "G)")),  # a choice label written as "G)"
        ("(42", Question("q", "t", "42"), (False, "(42")),
        ("((a)", Question("q", "t", "a"), (False, "((a)")),
        ("(a))", Question("q", "t", "a"), (False, "(a))")),
    ])
    def test_only_paired_parentheses_are_peeled(self, reply, question, graded):
        assert grade(f"Answer: {reply}", question) == graded

    @settings(max_examples=300, deadline=None)
    @given(bare=st.sampled_from(["42", "G", "1/2", "x+1", "(x+1)(x-1)", "0.5", "blue"]),
           layers=st.lists(st.tuples(st.text(" \t", max_size=2), st.text(" \t.", max_size=3)),
                           max_size=4),
           gold=st.sampled_from(["42", "g", "0.50", "(x+1)(x-1)", "a)(b"]))
    def test_matched_layers_grade_as_the_bare_answer(self, bare, layers, gold):
        """k >= 0 pairs around a bare answer, with blanks, and on the right periods,
        between the layers."""
        wrapped = bare
        for left, right in layers:
            wrapped = f"({left}{wrapped}{right})"
        question = Question("q", "t", gold)
        assert grade(f"Answer: {wrapped} .", question) == grade(f"Answer: {bare}", question)

    @settings(max_examples=1000, deadline=None)
    @given(text=st.text("( ).ax", max_size=24))
    def test_strip_wrapping_agrees_with_a_stack(self, text):
        assert grading._strip_wrapping(text) == strip_wrapping_stack(text)


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
        with MockChatEndpoint(rewrite=without_usage) as mock:
            with JsonlWriter(out) as writer, JsonlWriter(fail_path) as failures:
                summary = sweep(
                    questions, config_for(mock.url, catalog=catalog), writer, failures
                )
        assert summary.failed == 1
        sidecar = [json.loads(line) for line in fail_path.read_text().splitlines()]
        assert "usage" in sidecar[0]["error"]

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
            skip = present_cells(read_matrices(out)["mock-model", "mock-ds"])
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
    monkeypatch.setattr("cotbudget.sweepfiles.TAIL_BLOCK_BYTES", block)
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


def _sweep(tmp_path, mock, questions, skip=(), **kw):
    """Sweep into fresh records and failures files; returns (summary, sidecar entries)."""
    with JsonlWriter(tmp_path / "records.jsonl") as writer:
        with JsonlWriter(tmp_path / "failures.jsonl") as failures:
            summary = sweep(questions, config_for(mock.url, **kw), writer, failures, skip)
    return summary, _sidecar(tmp_path)


def _sidecar(tmp_path) -> list[dict]:
    return [json.loads(line) for line in (tmp_path / "failures.jsonl").read_text().splitlines()]


def _unreached(tmp_path, mock, questions, **kw) -> list[dict]:
    """_sweep of cells whose connections never open: its sidecar entries, after the
    EndpointError that stops the sweep at the first cell to finish."""
    with pytest.raises(EndpointError, match="^cannot connect to .*: transport: "):
        _sweep(tmp_path, mock, questions, **kw)
    return _sidecar(tmp_path)


def _read_request(request) -> bool:
    """Read one request, head and body, off a connection; False if the client closed it."""
    length = 0
    while (line := request.readline()) != b"\r\n":
        if not line:
            return False
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    request.read(length)  # unread bytes would make close() reset
    return True


@contextlib.contextmanager
def _raw_endpoint(attempts, reply, per_connection=1):
    """An endpoint on a bare socket: each of `attempts` connections gets up to
    `per_connection` requests read, each answered by reply(conn), which writes
    what comes back; then it is closed. Yields an object with the url, as
    _sweep takes a mock."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        def serve() -> None:
            for _ in range(attempts):
                conn, _ = server.accept()
                with conn, conn.makefile("rb") as request:
                    for _ in range(per_connection):
                        if not _read_request(request):
                            break
                        try:
                            reply(conn)
                        except OSError:
                            break  # the client gave up on the reply

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield type("Url", (), {"url": f"http://127.0.0.1:{server.getsockname()[1]}/v1"})
        thread.join(10)


@pytest.fixture
def waits(monkeypatch):
    """The retry waits a sweep asks for, recorded instead of slept."""
    recorded: list[float] = []
    monkeypatch.setattr("cotbudget.transport.time.sleep", recorded.append)
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

    @pytest.mark.parametrize("status", [200, 500])
    def test_a_sweep_whose_first_cell_got_a_reply_keeps_going(self, tmp_path, status):
        """The endpoint answers the first cell, then stops listening: the later cells
        fail to connect, and each still lands in the sidecar."""
        body = json.dumps({"choices": [{"message": {"content": "Answer: 42"}}],
                           "usage": {"completion_tokens": 5}}).encode()
        reply = b"HTTP/1.1 %d X\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s" % (
            status, len(body), body)
        with socket.create_server(("127.0.0.1", 0)) as server:
            url = f"http://127.0.0.1:{server.getsockname()[1]}/v1"

            def serve() -> None:
                conn, _ = server.accept()
                server.close()
                with conn, conn.makefile("rb") as request:
                    _read_request(request)
                    conn.sendall(reply)

            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            summary, sidecar = _sweep(tmp_path, type("Url", (), {"url": url}), _questions(3),
                                      catalog=ONE_PROMPT, retries=0)
            thread.join(10)
        assert (summary.succeeded, summary.failed) == ((1, 2) if status == 200 else (0, 3))
        assert [cell["question_id"] for cell in sidecar] == ["q0", "q1", "q2"][summary.succeeded:]
        assert all("refused" in entry["error"] for entry in sidecar[-2:])

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
        monkeypatch.setattr("cotbudget.transport.MAX_REPLY_BYTES", 4096)

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

    def test_chunked_replies_on_a_kept_alive_connection_keep_their_bytes(self, tmp_path):
        content = "Thinking in chunks, one after another. Answer: 42"
        body = json.dumps({"choices": [{"message": {"content": content}}],
                           "usage": {"completion_tokens": 11}}).encode()

        def chunked(conn):
            conn.sendall(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
            for start in range(0, len(body), 16):
                piece = body[start:start + 16]
                conn.sendall(b"%x\r\n%s\r\n" % (len(piece), piece))
            conn.sendall(b"0\r\n\r\n")

        with _raw_endpoint(1, chunked, per_connection=6) as endpoint:
            summary, _ = _sweep(tmp_path, endpoint, _questions(2), retries=0, timeout=5.0)
        assert (summary.succeeded, summary.failed) == (6, 0)
        records = load_records(tmp_path / "records.jsonl")
        assert {(r.response, r.tokens, r.correct) for r in records} == {(content, 11, True)}

    def test_close_delimited_replies_keep_their_bytes(self, tmp_path):
        """No Content-Length and no chunks: the body ends when the server closes."""
        content = "Thinking until the connection ends. Answer: 42"
        body = json.dumps({"choices": [{"message": {"content": content}}],
                           "usage": {"completion_tokens": 12}}).encode()

        def close_delimited(conn):
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n")
            for start in range(0, len(body), 16):
                conn.sendall(body[start:start + 16])

        with _raw_endpoint(6, close_delimited) as endpoint:
            summary, _ = _sweep(tmp_path, endpoint, _questions(2), retries=0, timeout=5.0)
        assert (summary.succeeded, summary.failed) == (6, 0)
        records = load_records(tmp_path / "records.jsonl")
        assert {(r.response, r.tokens, r.correct) for r in records} == {(content, 12, True)}

    def test_a_read_past_the_deadline_reads_nothing(self):
        class Socket:
            def settimeout(self, seconds):
                raise AssertionError("the timeout was set past the deadline")

            def recv_into(self, buffer):
                raise AssertionError("the socket was read past the deadline")

        reader = _DeadlineReader(Socket(), time.monotonic() - 1)
        with pytest.raises(TimeoutError, match="^timed out$"):
            reader.readinto(bytearray(8))
        reader.close()

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

    @pytest.mark.parametrize("field, value, message", [
        ("max_parallel", 0, "max_parallel must be >= 1"),
        ("retries", -1, "retries must be >= 0"),
    ])
    def test_a_count_below_its_floor_is_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            config_for("http://127.0.0.1:9/", **{field: value})

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
            [failed] = _unreached(tmp_path, proxy, _questions(1), catalog=ONE_PROMPT,
                                  endpoint=endpoint, retries=0)
        assert "refused" in failed["error"]
        assert proxy.request_count == 0

    def test_https_goes_through_a_connect_tunnel(self, tmp_path, clean_env, connect_proxy):
        url, targets = connect_proxy
        clean_env.setenv("HTTPS_PROXY", url)
        with MockChatEndpoint() as mock:  # only for its URL in _sweep's config
            [failed] = _unreached(tmp_path, mock, _questions(1), catalog=ONE_PROMPT,
                                  endpoint="https://api.example.test/v1/chat", retries=0)
        assert targets == ["api.example.test:443"]
        assert "403" in failed["error"]

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
            _unreached(tmp_path, mock, _questions(1), catalog=ONE_PROMPT,
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
    """It stands in for a sweep worker's _Transport: every POST gets the same 200 reply."""

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
       tokens=st.integers(0, 2**63 - 1))
def test_collected_record_has_the_bytes_of_an_eval_record(
    model, dataset, question_id, prompt_id, gold, content, tokens
):
    """A collected cell serialises as the per-record writer writes it."""
    spec = PromptSpec(prompt_id=prompt_id, family="NoCoT", instruction="Only give the final answer.")
    config = SweepConfig(endpoint="http://127.0.0.1:9/v1", model=model, dataset=dataset,
                         catalog=PromptCatalog((spec,)))
    question = Question(question_id=question_id, text="t", gold_answer=gold)
    reply = {"choices": [{"message": {"content": content}}], "usage": {"completion_tokens": tokens}}
    record, error, _ = _run_cell(config, question, spec, _OneReply(reply))
    assert error is None
    correct, extracted = grade(content, question)
    want = EvalRecord(model, dataset, question_id, prompt_id, tokens, correct,
                      response=content, extracted_answer=extracted)
    want_line = json.dumps(record_json_loop(want), ensure_ascii=False)
    assert json.dumps(record, ensure_ascii=False) == want_line
    assert ("extracted_answer" in record) == (extracted is not None)


@pytest.mark.parametrize("usage", [None, {}, {"completion_tokens": None}])
def test_a_reply_without_completion_tokens_fails_its_cell(usage):
    """The token count comes only from the reply's usage; nothing is estimated."""
    spec = fixed_spec("NoCoT")
    config = SweepConfig(endpoint="http://127.0.0.1:9/v1", model="m", dataset="d",
                         catalog=PromptCatalog((spec,)))
    reply = {"choices": [{"message": {"content": "Answer: 1/2"}}]}
    if usage is not None:
        reply["usage"] = usage
    assert _run_cell(config, FREE_QUESTION, spec, _OneReply(reply)) == (
        None, "response missing usage.completion_tokens", 0)


def test_a_sweep_config_takes_no_usage_estimate():
    with pytest.raises(TypeError, match="estimate_missing_usage"):
        SweepConfig(endpoint="http://127.0.0.1:9/v1", model="m", dataset="d",
                    catalog=small_catalog(), estimate_missing_usage=True)


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


def _is_sweep_worker(target) -> bool:
    return getattr(target, "__qualname__", "") == "sweep.<locals>.work"


@pytest.mark.parametrize("left, max_parallel, threads", [(0, 4, 0), (1, 8, 0), (3, 8, 2),
                                                          (40, 2, 1)])
def test_a_sweep_starts_no_more_workers_than_cells(tmp_path, monkeypatch, left, max_parallel,
                                                   threads):
    """The calling thread is one of min(max_parallel, cells left) workers."""
    made = []
    thread = threading.Thread

    def counting(*args, **kwargs):
        if _is_sweep_worker(kwargs.get("target")):
            made.append(kwargs["target"])
        return thread(*args, **kwargs)

    questions = _questions(50)
    skip = {(q.question_id, "NoCoT") for q in questions[left:]}
    with MockChatEndpoint() as mock:
        monkeypatch.setattr(threading, "Thread", counting)
        summary, _ = _sweep(tmp_path, mock, questions, catalog=ONE_PROMPT, skip=skip,
                            max_parallel=max_parallel)
    assert len(made) == threads
    assert (summary.requested, summary.skipped, summary.succeeded) == (50, 50 - left, left)
    assert mock.request_count == left


def test_a_sweep_with_nothing_left_builds_no_transport(tmp_path, monkeypatch):
    """The config's check builds one; the sweep builds none."""
    def refused(endpoint, timeout):
        raise AssertionError("transport built")

    questions = _questions(2)
    skip = {(q.question_id, spec.prompt_id) for q in questions for spec in small_catalog()}
    with MockChatEndpoint() as mock:
        config = config_for(mock.url, max_parallel=4)
        monkeypatch.setattr("cotbudget.collect._Transport", refused)
        with JsonlWriter(tmp_path / "records.jsonl") as writer:
            summary = sweep(questions, config, writer, skip=skip)
    assert (summary.requested, summary.skipped, summary.succeeded, summary.failed) == (6, 6, 0, 0)
    assert (tmp_path / "records.jsonl").read_bytes() == b""
    assert (mock.connection_count, mock.request_count) == (0, 0)


def test_a_worker_that_fails_to_start_lets_the_cells_in_flight_finish(tmp_path, monkeypatch):
    """The started worker's reply is written before the start failure is raised."""
    def slow(question_text, body):
        time.sleep(0.5)
        return default_reply(question_text, "42")

    start = threading.Thread.start
    starts = []

    def second_fails(self):
        if _is_sweep_worker(getattr(self, "_target", None)):
            starts.append(self)
            if len(starts) == 2:
                deadline = time.monotonic() + 10
                while mock.request_count == 0 and time.monotonic() < deadline:
                    time.sleep(0.01)  # the first worker's cell is in flight
                raise RuntimeError("can't start new thread")
        start(self)

    with MockChatEndpoint(reply_fn=slow) as mock:
        monkeypatch.setattr(threading.Thread, "start", second_fails)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            _sweep(tmp_path, mock, _questions(4), max_parallel=3, retries=0)
        assert mock.request_count == 1
    assert len(load_records(tmp_path / "records.jsonl")) == 1


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


@contextlib.contextmanager
def _replying_endpoint(reply: bytes):
    """An endpoint on a bare socket that answers every request, on every
    connection at once, with the same reply bytes, made before the test
    measures anything. Yields an object with the url, as _sweep takes a mock."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        def answer(conn: socket.socket) -> None:
            with conn, conn.makefile("rb") as request:
                while _read_request(request):
                    conn.sendall(reply)

        def accept() -> None:
            while True:
                try:
                    conn, _ = server.accept()
                except OSError:  # the server socket was shut down
                    return
                threading.Thread(target=answer, args=(conn,), daemon=True).start()

        thread = threading.Thread(target=accept, daemon=True)
        thread.start()
        try:
            yield type("Url", (), {"url": f"http://127.0.0.1:{server.getsockname()[1]}/v1"})
        finally:
            server.shutdown(socket.SHUT_RDWR)
            thread.join(10)


def test_a_sweep_peaks_at_a_few_replies(tmp_path, monkeypatch):
    """Two workers, each reply just under MAX_REPLY_BYTES: the sweep's Python
    allocations peak below 8 caps, however many cells it has.

    Content with no surrogate skips the UTF-16 round trip, and a line is
    written without a copy to add its newline, so each worker holds a reply
    about three times at its peak: the parsed content, the record's line and
    that line's UTF-8 bytes on their way to the file. Two workers reach about
    6.3 caps. The cap is lowered to 1 MiB to keep the test small; at the real
    8 MiB the ratio is the same.
    """
    cap = 1 << 20
    monkeypatch.setattr(transport_module, "MAX_REPLY_BYTES", cap)
    shell = (b'{"choices": [{"message": {"content": "%s\\nAnswer: 42"}}], '
             b'"usage": {"completion_tokens": 7}}')
    body = shell % (b"x" * (cap - len(shell)))
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    with _replying_endpoint(reply) as endpoint, JsonlWriter(tmp_path / "records.jsonl") as writer:
        config = config_for(endpoint.url, catalog=ONE_PROMPT, max_parallel=2, retries=0)
        tracemalloc.start()
        try:
            summary = sweep(_questions(16), config, writer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (summary.succeeded, summary.failed) == (16, 0)
    assert cap - 2 <= len(body) <= cap
    assert peak < 8 * cap, peak / cap


class Label(str):
    """A str subclass, as a caller's model or dataset name may be."""


class TestIdsAreCheckedBeforeAnyRequest:
    """Every id a collected record carries is refused when the sweep's inputs are built."""

    @pytest.mark.parametrize("field", ["model", "dataset"])
    @pytest.mark.parametrize("value", ["", None, 7])
    def test_config_ids(self, field, value):
        with MockChatEndpoint() as mock:
            with pytest.raises(ValueError, match=f"{field} must be a non-empty string"):
                config_for(mock.url, **{field: value})
            assert mock.request_count == 0

    @pytest.mark.parametrize("field", ["model", "dataset"])
    @pytest.mark.parametrize("value", ["", None, 7, b"m", Label(""), Label("m")])
    def test_config_matrix_and_profile_share_one_rule(self, field, value):
        """A str subclass passes all three, as SweepConfig once refused it."""
        one, cells = Fraction(1), [[True]]
        builds = [
            lambda names: config_for("http://127.0.0.1:9/v1", **names),
            lambda names: RunMatrix(**{"model": "m", "dataset": "d", **names}, question_ids=("q",),
                                    prompt_ids=("p",), tokens=[[1]], correct=cells, present=cells),
            lambda names: ComplexityProfile(**{"model": "m", "dataset": "d", **names},
                                            question_ids=("q",), tau=[1], k_used=[1],
                                            c_star=[one], c_bar=one),
        ]
        outcomes = set()
        for build in builds:
            try:
                outcomes.add(getattr(build({field: value}), field))
            except ValueError as exc:
                outcomes.add(str(exc))
        good = isinstance(value, str) and value
        want = value if good else f"{field} must be a non-empty string, got {value!r}"
        assert outcomes == {want}

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


def _files(sidecar, resume=True):
    """open_sweep over sidecar and records.jsonl beside it (made empty if new), for one
    question and NoCoT."""
    out = sidecar.with_name("records.jsonl")
    out.touch()
    return open_sweep(str(out), str(sidecar), _questions(1), ONE_PROMPT, "m", "d", resume)


def _rewrite(sidecar) -> None:
    """A resume's open_sweep over sidecar that writes nothing."""
    with _files(sidecar):
        pass


def test_an_interrupted_sidecar_rewrite_leaves_the_old_sidecar(tmp_path, monkeypatch):
    sidecar = tmp_path / "failures.jsonl"
    before = b'{"question_id": "q0", "prompt_id": "NoCoT", "error": "HTTP 500"}\n'
    sidecar.write_bytes(before)

    def killed(src, dst):
        raise KeyboardInterrupt  # as a kill before the new file is moved into place

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        _rewrite(sidecar)
    assert sidecar.read_bytes() == before


def test_a_sidecar_rewrite_leaves_a_file_named_like_its_scratch(tmp_path):
    sidecar = tmp_path / "failures.jsonl"
    kept = b'{"question_id": "q9", "prompt_id": "NoCoT", "error": "HTTP 500"}\n'
    sidecar.write_bytes(b'{"question_id": "q0", "prompt_id": "NoCoT", "error": "HTTP 500"}\n'
                        + kept)
    sidecar.chmod(0o640)
    other = tmp_path / "failures.jsonl.tmp"
    other.write_bytes(b"not the sidecar's\n")
    _rewrite(sidecar)
    assert sidecar.read_bytes() == kept
    assert sidecar.stat().st_mode & 0o777 == 0o640
    assert other.read_bytes() == b"not the sidecar's\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "failures.jsonl", "failures.jsonl.tmp", "records.jsonl"]


def test_the_next_rewrite_takes_over_the_scratch_an_interrupted_one_left(tmp_path, monkeypatch):
    sidecar = tmp_path / "failures.jsonl"
    kept = b'{"question_id": "q9", "prompt_id": "NoCoT", "error": "HTTP 500"}\n'
    sidecar.write_bytes(kept)
    def killed(src, dst):
        raise KeyboardInterrupt

    with monkeypatch.context() as patched:
        patched.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            _rewrite(sidecar)
    scratch = tmp_path / ".failures.jsonl.cotbudget-tmp"
    assert scratch.read_bytes() == kept
    scratch.write_bytes(b"what a killed rewrite wrote\n" * 3)
    _rewrite(sidecar)
    assert sidecar.read_bytes() == kept
    assert sorted(path.name for path in tmp_path.iterdir()) == ["failures.jsonl", "records.jsonl"]


@pytest.mark.parametrize("tail, written, cut", [
    (b'{"question_id": "q9", "prompt_id": "NoCoT"}',
     b'{"question_id": "q9", "prompt_id": "NoCoT"}\n', False),
    (b'{"question_id": "q0", "prompt_id": "NoCoT"}', b"", False),  # parses, and is settled
    (b'{"question_id": "q9", "prompt_id": "No', b"", True),
    ('{"question_id": "é'.encode()[:-1], b"", True),
])
def test_a_sidecar_rewrite_mends_or_cuts_the_final_line(tmp_path, caplog, tail, written, cut):
    """A final line without a newline gets one if it parses, and is cut with a warning if not."""
    sidecar = tmp_path / "failures.jsonl"
    head = b'[1, 2]\n{"question_id": "q0", "prompt_id": "NoCoT", "error": "HTTP 500"}\n'
    sidecar.write_bytes(head + tail)
    with caplog.at_level("WARNING", logger="cotbudget.sweepfiles"):
        _rewrite(sidecar)
    assert sidecar.read_bytes() == b"[1, 2]\n" + written
    warning = (f"{os.path.realpath(sidecar)}: cut off a torn final line ({len(tail)} bytes, "
               "no newline) at byte ")
    assert (warning + str(len(head)) in caplog.text) == cut


def test_a_fresh_sidecar_keeps_no_line_and_no_symlink_is_followed(tmp_path):
    """A fresh run empties the sidecar through the scratch; a scratch name that is a
    link is refused, and the file it names is untouched."""
    sidecar = tmp_path / "failures.jsonl"
    sidecar.write_bytes(b'{"question_id": "q9", "prompt_id": "NoCoT", "error": "HTTP 500"}\n')
    with _files(sidecar, resume=False) as (_, failures, _):
        failures.write({"question_id": "q1", "prompt_id": "NoCoT", "error": "HTTP 503"})
    assert [json.loads(line) for line in sidecar.read_bytes().splitlines()] == [
        {"question_id": "q1", "prompt_id": "NoCoT", "error": "HTTP 503"}]
    target = tmp_path / "target.txt"
    target.write_bytes(b"someone else's\n")
    (tmp_path / ".failures.jsonl.cotbudget-tmp").symlink_to(target)
    with pytest.raises(OSError):
        _rewrite(sidecar)
    assert target.read_bytes() == b"someone else's\n"


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


def test_the_mock_stops_without_waiting_out_its_poll():
    """serve_forever polls every 50 ms; a stop 10 ms into a poll took the other 40."""
    took = []
    for _ in range(5):
        mock = MockChatEndpoint()
        mock.start()
        time.sleep(0.01)
        start = time.perf_counter()
        mock.stop()
        took.append(time.perf_counter() - start)
    assert min(took) < 0.02


def _trickled(body: bytes):
    yield b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
    step = len(body) // 4 + 1
    for start in range(0, len(body), step):
        time.sleep(0.01)
        yield body[start:start + step]


# Raw replies for MockChatEndpoint's raw hook, by fault: each is sent in place of a 200 reply.
RAW_FAULTS = {
    "trickled": _trickled,
    "short": lambda body: [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                           % (len(body) + 10, body)],
    "not-utf8": lambda body: [b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                              % (len(body) + 1, body.replace(b"Answer", b"\xffAnswer"))],
    "chunked": lambda body: [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
                             b"%x;x=1\r\n%s\r\n0\r\nX-Trailer: 1\r\n\r\n" % (len(body), body)],
}


def _raw_fault(kind: str | None, count: int):
    """A raw hook that sends the first ``count`` 200 replies as RAW_FAULTS[kind], or None."""
    if kind is None:
        return None
    left, lock = [count], threading.Lock()

    def raw(body: bytes):
        with lock:
            if not left[0]:
                return None
            left[0] -= 1
        return RAW_FAULTS[kind](body)

    return raw


@settings(max_examples=25, deadline=None)
@given(fail_first=st.integers(0, 4), fail_status=st.sampled_from([404, 429, 500, 503]),
       drop_first=st.integers(0, 3), close_after=st.sampled_from([0, 1, 2]),
       drop_usage=st.booleans(), max_parallel=st.integers(1, 3), retries=st.integers(0, 2),
       raw_fault=st.sampled_from([None, *RAW_FAULTS]), raw_first=st.integers(0, 3))
def test_a_sweep_under_a_fault_script_lists_every_cell_once(
    tmp_path_factory, fail_first, fail_status, drop_first, close_after, drop_usage,
    max_parallel, retries, raw_fault, raw_first,
):
    """Error replies, dropped and idle-closed connections, replies without
    usage, and raw replies (trickled, shorter than their Content-Length, not
    UTF-8, or chunked), in any mix: the sweep returns, and each cell lands
    once, as a record or as a sidecar line, as the summary counts them, each
    within its retries' share of timeout and backoff."""
    folder = tmp_path_factory.mktemp("faults")
    questions = _questions(2)
    timeout = 5.0
    mock = MockChatEndpoint(fail_first=fail_first, fail_status=fail_status, drop_first=drop_first,
                            close_after=close_after, rewrite=without_usage if drop_usage else None,
                            raw=_raw_fault(raw_fault, raw_first))
    walls: list[float] = []
    run_cell = collect_module._run_cell

    def timed(*args):
        start = time.monotonic()
        try:
            return run_cell(*args)
        finally:
            walls.append(time.monotonic() - start)

    with mock, patch.object(transport_module, "BACKOFF_BASE_SECONDS", 0), \
            patch.object(collect_module, "_run_cell", timed):
        with JsonlWriter(folder / "records.jsonl") as writer, \
                JsonlWriter(folder / "failures.jsonl") as failures:
            summary = sweep(questions, config_for(mock.url, max_parallel=max_parallel,
                                                  retries=retries, timeout=timeout),
                            writer, failures)
    records, sidecar = (
        [json.loads(line) for line in (folder / name).read_text(encoding="utf-8").splitlines()]
        for name in ("records.jsonl", "failures.jsonl")
    )
    cells = sorted((line["question_id"], line["prompt_id"]) for line in records + sidecar)
    assert cells == sorted((q.question_id, spec.prompt_id)
                           for q in questions for spec in small_catalog())
    assert (summary.succeeded, summary.failed) == (len(records), len(sidecar))
    assert not drop_usage or not records
    assert len(walls) == len(cells)
    assert max(walls) <= (retries + 1) * (timeout + transport_module.BACKOFF_CAP_SECONDS)
