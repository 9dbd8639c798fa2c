from __future__ import annotations

import base64
import json
import socket
import sys
import threading
import time
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cotbudget.collect import (
    JsonlWriter,
    Choice,
    Question,
    SweepConfig,
    drop_torn_tail,
    existing_cells,
    format_question,
    grade,
    load_questions,
    sweep,
)
from cotbudget.errors import EndpointError, RecordParseError, RecordSchemaError
from cotbudget.mockserver import MockChatEndpoint, default_reply
from cotbudget.prompts import PromptCatalog, REQUEST_PREAMBLE, default_catalog, fixed_spec
from cotbudget.records import load_records

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


class TestGrade:
    def test_parenthesized_choice_letter(self):
        correct, extracted = grade("The order is 18.\nAnswer: (G)", MC_QUESTION)
        assert correct is True
        assert extracted == "G"

    def test_no_answer_line(self):
        correct, extracted = grade("I have no idea.", MC_QUESTION)
        assert correct is False
        assert extracted is None

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
            assert content.startswith(REQUEST_PREAMBLE)
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
            skip = existing_cells(load_records(out), "mock-model", "mock-ds")
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


@pytest.fixture
def clean_env(monkeypatch):
    """No proxy, CA bundle or API key variables from the caller's environment."""
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
                 "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "COTBUDGET_API_KEY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)
    return monkeypatch


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
