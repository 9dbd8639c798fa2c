from __future__ import annotations

import json
from fractions import Fraction

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
