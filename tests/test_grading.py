"""Choice questions graded by their own labels, and stored replies regraded.

A records file keeps each reply's ``response`` beside the ``correct`` and
``extracted_answer`` that ``grade`` gave it when the cell was collected, so a
regrade of an unchanged grader changes no record.
"""
from __future__ import annotations

import json
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget import grading
from cotbudget.collect import SweepConfig, sweep
from cotbudget.grading import Choice, Question
from cotbudget.mockserver import MockChatEndpoint
from cotbudget.prompts import PromptCatalog, fixed_spec
from cotbudget.sweepfiles import JsonlWriter

from loop_oracles import grade_choice_first_letter


def choices(*labels: str) -> tuple[Choice, ...]:
    return tuple(Choice(label, f"option {label}") for label in labels)


@pytest.mark.parametrize("answer, labels, gold, correct", [
    ("2", "1234", "2", True),
    ("2)", "1234", "2", True),
    ("(2).", "1234", "2", True),
    ("3", "1234", "2", False),
    ("AB", ("A", "AB"), "AB", True),
    ("ab", ("A", "AB"), "AB", True),
    ("AB) because", ("A", "AB"), "AB", True),
    ("A", ("A", "AB"), "AB", False),
    ("AB", ("A", "AB"), "A", False),
    ("ABC", ("A", "AB"), "AB", False),
    ("10", ("1", "10"), "10", True),
    ("1. because", ("1", "10"), "1", True),
    ("1", ("1", "10"), "10", False),
    ("10", ("1", "10"), "1", False),
    ("É", ("É", "E"), "É", True),
    ("é", ("É", "E"), "É", True),
    ("E", ("É", "E"), "É", False),
    ("B: bees", "AB", "B", True),
    ("Bees", "AB", "B", False),
    # A first character outside ASCII that case-folds to the gold label, or to the
    # label before a combining mark, names it.
    ("\u212a", "JK", "K", True),  # KELVIN SIGN folds to "k"
    ("\u0130", "HI", "I", True),  # LATIN CAPITAL LETTER I WITH DOT ABOVE folds to "i\u0307"
])
def test_a_choice_answer_is_graded_by_the_question_s_labels(answer, labels, gold, correct):
    question = Question("q1", "pick", gold, choices(*labels))
    extracted = grading._strip_wrapping(answer)
    assert grading.grade(f"Answer: {answer}", question) == (correct, extracted)


ASCII_LETTERS = st.sampled_from(string.ascii_letters)


@st.composite
def letter_choice_replies(draw) -> tuple[str, Question]:
    """A question labelled with single ASCII letters, and an ASCII reply that often
    answers with one of them, or with one before more characters."""
    labels = draw(st.lists(ASCII_LETTERS, min_size=1, max_size=5, unique_by=str.casefold))
    gold = draw(st.sampled_from(labels))
    ascii_text = st.text(st.characters(max_codepoint=127), max_size=8)
    named = st.sampled_from([*labels, *(label.swapcase() for label in labels)])
    answer = draw(st.one_of(
        ascii_text,
        st.builds("{}{}".format, named, ascii_text),
        st.builds("({}){}".format, ASCII_LETTERS, st.text(" .)x1", max_size=3)),
    ))
    prefix = draw(st.sampled_from(["", "Answer: ", "So.\nanswer: ", "Answer: X\nAnswer: "]))
    return prefix + answer, Question("q", "t", gold, choices(*labels))


@settings(max_examples=2000, deadline=None)
@given(case=letter_choice_replies())
def test_single_letter_labels_grade_as_the_first_letter_rule(case):
    """On one-ASCII-letter labels and ASCII replies, reading the question's labels
    changes no verdict."""
    reply, question = case
    assert grading.grade(reply, question) == grade_choice_first_letter(reply, question.gold_answer)


# Free-form golds and choice questions of every label kind: letters, digits,
# several characters, and a letter outside ASCII.
QUESTIONS = [
    *(Question(f"f{i}", f"Free {i}?", gold) for i, gold in enumerate(
        ["1/2", "1000", "(0,1)", "(x+1)(x-1)", "blue", "12345678", "3/4", "a)(b", "42"])),
    Question("c0", "Letters?", "G", choices("F", "G", "H")),
    Question("c1", "Digits?", "2", choices("1", "2", "3", "4")),
    Question("c2", "Pairs?", "AB", choices("A", "AB")),
    Question("c3", "Tens?", "10", choices("1", "10")),
    Question("c4", "Accents?", "É", choices("É", "E")),
]
# The answers of TestGrade's tables in tests/test_collect.py, and the labels above.
ANSWERS = [
    "(G)", "G", "g", "(F)", "(G).", "(G", "G)", "0.50", "0.5.", "Blue", "1e3", "1E+3", "1000",
    "(0,1).", "(0, 1)", "[0,1)", "(x+1)(x-1)", "(x+1)(x+1)", "(a)(b)", "((a)(b)) .", "(42", "((a)",
    "(a))", "1,000", "1 000", "12,345,678", "12 345 678", "1,000.5", "-1,000", "3 / 4", "- 3",
    "2, 3", "1 2", "1,00", "1,0000", "1000,000", "0.123,456", "1e999999999", "1", "2", "2)", "A",
    "AB", "AB)", "10", "É", "é", "E", "Bees", "", "   ",
]
REPLIES = st.one_of(
    st.builds("Answer: {}".format, st.sampled_from(ANSWERS)),
    st.builds("{}\nAnswer: {}".format, st.sampled_from(["The order is 18.", "|Z18| = 18."]),
              st.sampled_from(ANSWERS)),
    st.builds("Answer: F is tempting.\nBut no.\nanswer: {}".format, st.sampled_from(ANSWERS)),
    st.sampled_from(["I have no idea.", "Answer:", "G"]),
)


@pytest.mark.parametrize("max_parallel", [1, 3])
@settings(max_examples=15, deadline=None)
@given(replies=st.lists(REPLIES, min_size=len(QUESTIONS), max_size=len(QUESTIONS)))
def test_a_stored_reply_regrades_to_its_stored_verdict(max_parallel, replies):
    by_text = dict(zip((question.text for question in QUESTIONS), replies))
    catalog = PromptCatalog((fixed_spec("NoCoT"), fixed_spec("BeConcise")))
    with tempfile.TemporaryDirectory() as tmp, \
            MockChatEndpoint(reply_fn=lambda text, body: (by_text[text], 7)) as mock:
        out = Path(tmp) / "records.jsonl"
        config = SweepConfig(endpoint=mock.url, model="m", dataset="d", catalog=catalog,
                             max_parallel=max_parallel)
        with JsonlWriter(out) as writer:
            sweep(QUESTIONS, config, writer)
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(records) == len(QUESTIONS) * len(catalog)
    question_of = {question.question_id: question for question in QUESTIONS}
    for record in records:
        assert grading.grade(record["response"], question_of[record["question_id"]]) == (
            record["correct"], record.get("extracted_answer"))
