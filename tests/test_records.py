from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import pickle
import re
import sys
import tracemalloc
from array import array
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget.errors import (
    CotBudgetError,
    DuplicateRecordError,
    EmptySelectionError,
    RecordParseError,
    RecordSchemaError,
)
from cotbudget.inputs import TOKENS_MAX, PairRecords, read_json, read_jsonl, write_json
from cotbudget.records import (
    REQUIRED_FIELDS,
    EvalRecord,
    Ids,
    RunMatrix,
    _place,
    load_records,
    pivot,
    read_matrices,
    save_matrix,
)
from cotbudget.sweepfiles import prior_cells

from cotbudget.cli import _load_budgets
from cotbudget.collect import load_questions
from cotbudget.complexity import ComplexityProfile, profile
from cotbudget.oracle import generate, random_spec
from cotbudget.prompts import PromptCatalog, default_catalog

from conftest import count_ids, make_matrix, make_record, run_matrices
from loop_oracles import (
    load_budgets_loop,
    load_questions_loop,
    load_records_loop,
    pivot_loop,
    present_cells,
    record_from_json_loop,
    save_records_loop,
    unpivot_loop,
)


def write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")


def base_obj(**kw):
    obj = {
        "model": "m",
        "dataset": "d",
        "question_id": "q1",
        "prompt_id": "p1",
        "tokens": 10,
        "correct": True,
    }
    obj.update(kw)
    return obj


class TestLoadRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [base_obj(), base_obj(prompt_id="p2", tokens=20, correct=False)])
        records = load_records(path)
        assert len(records) == 2
        assert records[0].tokens == 10
        assert records[1].correct is False

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [base_obj(), base_obj(tokens=99)])
        with pytest.raises(DuplicateRecordError) as exc:
            load_records(path)
        assert "q1" in str(exc.value)

    def test_negative_tokens_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [base_obj(tokens=-3)])
        with pytest.raises(RecordSchemaError) as exc:
            load_records(path)
        assert ":1:" in str(exc.value)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(base_obj()) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(RecordParseError) as exc:
            load_records(path)
        assert exc.value.line_no == 2

    def test_missing_field_reports_name(self, tmp_path):
        path = tmp_path / "r.jsonl"
        obj = base_obj()
        del obj["tokens"]
        write_jsonl(path, [obj])
        with pytest.raises(RecordSchemaError) as exc:
            load_records(path)
        assert "tokens" in str(exc.value)

    def test_unknown_fields_preserved(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [base_obj(run_id="abc", latency_ms=12)])
        records = load_records(path)
        assert records[0].extra == {"run_id": "abc", "latency_ms": 12}

    def test_a_usage_estimate_flag_changes_no_matrix(self, tmp_path):
        """Files that collect wrote when it could estimate missing usage carry
        "tokens_estimated": true; that field is kept as extra and read by nothing."""
        plain, flagged = tmp_path / "plain.jsonl", tmp_path / "flagged.jsonl"
        objs = [base_obj(question_id=q, prompt_id=p, tokens=t, correct=c)
                for q, p, t, c in (("q1", "p1", 10, True), ("q1", "p2", 20, False),
                                   ("q2", "p1", 7, False))]
        write_jsonl(plain, objs)
        write_jsonl(flagged, [{**obj, "tokens_estimated": True} for obj in objs])
        assert read_matrices(flagged) == read_matrices(plain)
        assert [r.extra for r in load_records(flagged)] == [{"tokens_estimated": True}] * 3

    def test_records_share_one_string_per_id(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [
            base_obj(question_id=q, prompt_id=p, response="r")
            for q in ("q1", "q2") for p in ("p1", "p2", "p3")
        ])
        records = load_records(path)
        for question in ("q1", "q2"):
            same = [r for r in records if r.question_id == question]
            assert len(same) == 3
            assert all(r.question_id is same[0].question_id for r in same)
        assert all(r.prompt_id is records[0].prompt_id for r in records[::3])
        assert all(r.model is records[0].model and r.dataset is records[0].dataset for r in records)
        assert records == load_records_loop(path)

    def test_bool_tokens_rejected(self):
        with pytest.raises(RecordSchemaError, match="^field 'tokens' must be an integer, got True$"):
            EvalRecord(**base_obj(tokens=True))

    def test_non_bool_correct_rejected(self):
        with pytest.raises(RecordSchemaError, match="^field 'correct' must be a boolean, got 1$"):
            EvalRecord(**base_obj(correct=1))


class TestPivot:
    def test_full_grid(self):
        records = [
            make_record(qid=q, pid=p, tokens=10, correct=True)
            for q in ("q1", "q2")
            for p in ("p1", "p2")
        ]
        m = pivot(records, "m", "d")
        assert m.question_ids == ("q1", "q2")
        assert m.prompt_ids == ("p1", "p2")
        assert m.present.all()

    def test_absent_cell_masked(self):
        records = [
            make_record(qid="q1", pid="p1"),
            make_record(qid="q1", pid="p2"),
            make_record(qid="q2", pid="p1"),
        ]
        m = pivot(records, "m", "d")
        assert m.present.sum() == 3
        assert not m.present[1, 1]

    def test_empty_selection(self):
        with pytest.raises(EmptySelectionError):
            pivot([make_record()], "other-model", "d")

    def test_filters_other_pairs(self):
        records = [make_record(), make_record(model="m2", tokens=77)]
        m = pivot(records, "m", "d")
        assert m.n_questions == 1 and int(m.tokens[0, 0]) == 10

    def test_lexicographic_order(self):
        records = [make_record(qid=q, pid="p1") for q in ("q10", "q2", "q1")]
        m = pivot(records, "m", "d")
        assert m.question_ids == ("q1", "q10", "q2")

    def test_round_trip_unpivot(self):
        records = [
            make_record(qid="q1", pid="p1", tokens=5, correct=False),
            make_record(qid="q1", pid="p2", tokens=9, correct=True),
            make_record(qid="q2", pid="p1", tokens=3, correct=True),
        ]
        m = pivot(records, "m", "d")
        assert pivot(unpivot_loop(m), "m", "d") == m

    def test_cells_are_the_present_cells(self):
        m = make_matrix([[1, 2], [3, 4]], [[True, False], [False, True]],
                        present=[[True, False], [True, True]])
        assert present_cells(m) == {("q00", "p00"), ("q01", "p00"), ("q01", "p01")}

    def test_negative_count_is_refused_only_in_a_present_cell(self):
        m = make_matrix([[-1, 4]], [[False, True]], present=[[False, True]])
        assert present_cells(m) == {("q00", "p01")}
        with pytest.raises(ValueError, match="token counts must be non-negative"):
            make_matrix([[-1, 4]], [[False, True]], present=[[True, True]])

    def test_matrices_that_differ_only_in_padding_are_equal(self):
        m = make_matrix([[5, 7]], [[True, False]], present=[[True, False]])
        padded = make_matrix([[5, -3]], [[True, True]], present=[[True, False]])
        assert padded == m
        assert (int(padded.tokens[0, 1]), bool(padded.correct[0, 1])) == (0, False)
        assert make_matrix([[5, 7]], [[True, False]], present=[[True, True]]) != m

    def test_immutable(self):
        m = pivot([make_record()], "m", "d")
        with pytest.raises(ValueError):
            m.tokens[0, 0] = 99

    def test_programmatic_duplicates_rejected(self):
        with pytest.raises(DuplicateRecordError):
            pivot([make_record(), make_record(tokens=99)], "m", "d")

    @pytest.mark.parametrize("fields, message", [
        ({"question_ids": ("q", "q")}, "question_ids repeat 'q'"),
        ({"prompt_ids": ("p", "p")}, "prompt_ids repeat 'p'"),
        ({"question_ids": ("q", "")}, "question_ids hold an empty id"),
        ({"prompt_ids": ("", "p")}, "prompt_ids hold an empty id"),
        ({"question_ids": ("q", 2)}, "question_ids hold a non-string id 2"),
        ({"prompt_ids": ("p", None)}, "prompt_ids hold a non-string id None"),
        ({"model": ""}, "model must be a non-empty string, got ''"),
        ({"dataset": None}, "dataset must be a non-empty string, got None"),
    ])
    def test_keys_the_file_formats_refuse_are_refused(self, fields, message):
        """Each of these used to build a matrix whose saved file or profile would not load."""
        cells = np.ones((2, 2), dtype=bool)
        kw = {"model": "m", "dataset": "d", "question_ids": ("q1", "q2"),
              "prompt_ids": ("p1", "p2"), "tokens": cells, "correct": cells, "present": cells}
        with pytest.raises(ValueError, match=re.escape(message)):
            RunMatrix(**{**kw, **fields})

    def test_a_matrix_does_not_compare_with_another_type(self):
        m = make_matrix([[1]], [[True]])
        assert m.__eq__(m.tokens) is NotImplemented
        assert m != "matrix"

    @pytest.mark.parametrize("n, k, axis", [(0, 1, "question_ids"), (1, 0, "prompt_ids"),
                                            (0, 0, "question_ids")])
    def test_an_axis_with_no_ids_is_refused(self, n, k, axis):
        """As the files refuse it: a records file never holds an empty pair, and a
        profile of no questions does not load. Such a matrix used to reach profile,
        which raised ZeroDivisionError."""
        cells = np.zeros((n, k), dtype=bool)
        with pytest.raises(ValueError, match=f"^{axis} must hold at least one id$"):
            RunMatrix("m", "d", tuple(f"q{i}" for i in range(n)), tuple(f"p{j}" for j in range(k)),
                      cells.astype(np.int64), cells, cells)

    def test_a_caller_that_changes_what_it_passed_changes_no_matrix(self):
        question_ids, prompt_ids = ["q1", "q2"], ["p1"]
        tokens, flags = np.array([[3], [4]]), np.ones((2, 1), dtype=bool)
        m = RunMatrix("m", "d", question_ids, prompt_ids, tokens, flags, flags)
        question_ids[0], prompt_ids[0], tokens[0, 0], flags[0, 0] = "q9", "p9", 99, False
        assert (m.question_ids, m.prompt_ids) == (("q1", "q2"), ("p1",))
        assert m.tokens.tolist() == [[3], [4]] and m.present.all() and m.correct.all()


def _generator(ids):
    return (i for i in ids)


BAD_IDS = [(["q1", "q1"], "repeat 'q1'"), (["q1", ""], "hold an empty id"),
           (["q1", 2], "hold a non-string id 2"), (["q1", None], "hold a non-string id None")]


class TestIds:
    """records.Ids, the checked id tuple that RunMatrix and ComplexityProfile hold."""

    @pytest.mark.parametrize("given", [tuple, list, _generator])
    @pytest.mark.parametrize("ids, fault", BAD_IDS)
    def test_each_constructor_refuses_a_bad_id_with_one_message(self, given, ids, fault):
        cells = np.ones((2, 1), dtype=bool)
        one = Fraction(1)
        builds = {
            "question_ids": [
                lambda: RunMatrix("m", "d", given(ids), ("p1",), cells, cells, cells),
                lambda: ComplexityProfile("m", "d", given(ids), [5, 5], [1, 1], [one, one], one),
                lambda: Ids(given(ids), "question_ids"),
            ],
            "prompt_ids": [lambda: RunMatrix("m", "d", ("q1",), given(ids), cells.T, cells.T,
                                             cells.T)],
            "ids": [lambda: Ids(given(ids))],
        }
        for name, calls in builds.items():
            for build in calls:
                with pytest.raises(ValueError, match=f"^{re.escape(name + ' ' + fault)}$"):
                    build()

    def test_an_ids_is_handed_back_as_it_is_and_anything_else_is_checked(self, monkeypatch):
        ids = Ids(["q1", "q2"])
        built = count_ids(monkeypatch)
        assert Ids(ids, "question_ids") is ids
        assert built == []
        again = Ids(("q1", "q2"), "question_ids")
        assert type(again) is Ids and again == ids and again is not ids
        assert built == [(("q1", "q2"), "question_ids")]

    def test_an_ids_behaves_as_the_tuple_it_holds(self):
        plain = tuple(f"q{i}" for i in range(50))
        ids = Ids(plain)
        assert isinstance(ids, tuple) and ids == plain and plain == ids
        assert hash(ids) == hash(plain) and repr(ids) == repr(plain)
        assert json.dumps(ids) == json.dumps(plain)
        assert sys.getsizeof(ids) == sys.getsizeof(plain)
        assert not hasattr(ids, "__dict__")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_an_ids_survives_pickle_and_is_checked_again_on_load(self, protocol):
        ids = Ids(["q1", "q2"], "question_ids")
        data = pickle.dumps(ids, protocol)
        loaded = pickle.loads(data)
        assert type(loaded) is Ids and loaded == ids
        assert data.count(b"q2") == 1
        with pytest.raises(ValueError, match="^ids repeat 'q1'$"):
            pickle.loads(data.replace(b"q2", b"q1"))

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
    def test_an_ids_survives_copy_and_is_checked_again(self, duplicate, monkeypatch):
        ids = Ids(["q1", "q2"])
        built = count_ids(monkeypatch)
        copied = duplicate(ids)
        assert type(copied) is Ids and copied == ids
        assert built == [(("q1", "q2"),)]


class TestPairRecordsAdd:
    def test_a_new_key_is_kept_and_a_repeat_leaves_everything_as_it_was(self):
        pair = PairRecords("m", "d")
        assert [pair.add(q, p, line) for q, p, line in
                [("q1", "p1", 3), ("q2", "p1", 5), ("q1", "p2", 8)]] == [None] * 3

        def kept():
            return list(pair.rows), list(pair.cols), list(pair.lines), list(pair.cells.masks)

        assert kept() == ([0, 1, 0], [0, 0, 1], [3, 5, 8], [0b11, 0b01])
        assert pair.add("q2", "p1", 9) == 5
        assert pair.add("q1", "p2", 12) == 8
        assert kept() == ([0, 1, 0], [0, 0, 1], [3, 5, 8], [0b11, 0b01])
        assert set(pair.cells) == {("q1", "p1"), ("q2", "p1"), ("q1", "p2")}

    def test_a_file_and_pivot_code_keys_through_it(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [base_obj(), base_obj(question_id="q2"), base_obj(model="m2")])
        with mock.patch.object(PairRecords, "add", autospec=True,
                               side_effect=PairRecords.add) as add:
            records = load_records(path)
            assert add.call_count == 3
            assert pivot(records, "m", "d") == pivot_loop(records, "m", "d")
            assert add.call_count == 5


@settings(max_examples=200)
@given(data=st.data(), matrix=run_matrices(max_tokens=2**63 - 1))
def test_absent_cells_hold_zero_whatever_the_caller_passed(data, matrix):
    """Random padding, negative counts included, becomes 0 and False in the matrix's
    own copies; the caller's arrays keep every value and stay writable."""
    absent = ~matrix.present
    count = int(np.count_nonzero(absent))
    tokens, correct, present = matrix.tokens.copy(), matrix.correct.copy(), matrix.present.copy()
    tokens[absent] = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1),
                                        min_size=count, max_size=count))
    correct[absent] = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
    given_arrays = [tokens.copy(), correct.copy(), present.copy()]
    built = RunMatrix(matrix.model, matrix.dataset, matrix.question_ids, matrix.prompt_ids,
                      tokens, correct, present)
    for caller, before in zip((tokens, correct, present), given_arrays):
        assert np.array_equal(caller, before)
        assert caller.flags.writeable
    assert not built.tokens[absent].any()
    assert not built.correct[absent].any()
    assert np.array_equal(built.tokens[matrix.present], tokens[matrix.present])
    assert np.array_equal(built.correct[matrix.present], correct[matrix.present])
    assert built == matrix
    assert profile(built) == profile(matrix)


@settings(max_examples=50)
@given(
    cells=st.dictionaries(
        st.tuples(
            st.sampled_from(["q1", "q2", "q3", "q4"]),
            st.sampled_from(["p1", "p2", "p3"]),
        ),
        st.tuples(st.integers(min_value=0, max_value=500), st.booleans()),
        min_size=1,
    ),
    seed=st.randoms(),
)
def test_pivot_order_insensitive(cells, seed):
    records = [
        make_record(qid=q, pid=p, tokens=t, correct=c) for (q, p), (t, c) in cells.items()
    ]
    shuffled = list(records)
    seed.shuffle(shuffled)
    assert pivot(records, "m", "d") == pivot(shuffled, "m", "d")


# ---------------------------------------------------------------------------
# columnar ingest against the per-record loop
# ---------------------------------------------------------------------------

PAIRS = [("m", "d"), ("m2", "d"), ("modèle", "数据")]
QUESTION_IDS = ["q1", "q1\x00", "q10", "q2", "é", 'q"x', "q\\y", "🙂", "Q"]
PROMPT_IDS = ["p1", "p2", "p\x00", "ü"]
BLANKS = ["", "  ", "\t", " \r"]


def outcome(fn):
    """fn()'s result, or the type and message of the data error it raised."""
    try:
        return "ok", fn()
    except CotBudgetError as exc:
        return type(exc), str(exc)


record_cells = st.dictionaries(
    st.tuples(st.sampled_from(PAIRS), st.sampled_from(QUESTION_IDS), st.sampled_from(PROMPT_IDS)),
    st.tuples(
        st.integers(0, 2**63 - 1) | st.integers(0, 50),
        st.booleans(),
        st.dictionaries(st.sampled_from(["response", "run_id", "latency_ms"]), st.text(max_size=3)),
    ),
    min_size=1,
    max_size=40,
)


def record_lines(cells, order, blank_at, ascii_flags) -> list[str]:
    """Shuffled record lines with blank lines in between, some JSON-escaped."""
    items = sorted(cells.items())
    order.shuffle(items)
    lines = []
    for index, (((model, dataset), qid, pid), (tokens, correct, extra)) in enumerate(items):
        lines.extend(BLANKS[b % len(BLANKS)] for b in blank_at.get(index, []))
        obj = base_obj(model=model, dataset=dataset, question_id=qid, prompt_id=pid,
                       tokens=tokens, correct=correct, **extra)
        lines.append(json.dumps(obj, ensure_ascii=ascii_flags[index % len(ascii_flags)]))
    return lines


@settings(max_examples=60, deadline=None)
@given(
    cells=record_cells,
    order=st.randoms(),
    blank_at=st.dictionaries(st.integers(0, 40), st.lists(st.integers(0, 3), max_size=2)),
    ascii_flags=st.lists(st.booleans(), min_size=1, max_size=3),
)
def test_matrices_match_record_loop(tmp_path_factory, cells, order, blank_at, ascii_flags):
    path = tmp_path_factory.mktemp("cols") / "r.jsonl"
    path.write_text("\n".join(record_lines(cells, order, blank_at, ascii_flags)) + "\n",
                    encoding="utf-8")
    records = load_records_loop(path)
    matrices = read_matrices(path)
    assert load_records(path) == records
    assert list(matrices) == sorted({(r.model, r.dataset) for r in records})
    for pair in PAIRS:
        want = outcome(lambda: pivot_loop(records, *pair))
        assert outcome(lambda: pivot(records, *pair)) == want
        if want[0] != "ok":
            assert pair not in matrices
            continue
        got = matrices[pair]
        assert got == want[1]
        assert (got.question_ids, got.prompt_ids) == (want[1].question_ids, want[1].prompt_ids)
        assert present_cells(got) == {
            (r.question_id, r.prompt_id) for r in records if (r.model, r.dataset) == pair
        }


field_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from([2**63 - 1, 2**63, 1.5]),
    st.sampled_from(["", "x", "q\x00"]), st.lists(st.integers(), max_size=1),
)


# A valid record with one field, maybe two, set to any value.
record_faults = st.builds(
    lambda faults: base_obj(**dict(faults)),
    st.lists(st.tuples(st.sampled_from(REQUIRED_FIELDS), field_values), min_size=1, max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(
    objs=st.lists(
        record_faults
        | st.dictionaries(st.sampled_from(REQUIRED_FIELDS + ("extra",)), field_values)
        | st.fixed_dictionaries({}, optional={f: field_values for f in REQUIRED_FIELDS})
        | st.builds(base_obj, question_id=st.sampled_from(["q1", "q2"]),
                    prompt_id=st.sampled_from(["p1", "p2"]))
        | field_values,
        min_size=1,
        max_size=4,
    )
)
def test_errors_match_record_loop(tmp_path_factory, objs):
    """Any mix of good and bad lines: the same records or the same error."""
    path = tmp_path_factory.mktemp("bad") / "r.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
    want = outcome(lambda: load_records_loop(path))
    assert outcome(lambda: load_records(path)) == want
    got = outcome(lambda: read_matrices(path))
    assert got[0] == want[0]
    if want[0] != "ok":
        assert got[1] == want[1]


@settings(max_examples=200, deadline=None)
@given(
    obj=record_faults
    | st.fixed_dictionaries({f: field_values for f in REQUIRED_FIELDS})
    | st.builds(base_obj, tokens=st.integers(-3, 2**64) | field_values)
)
def test_programmatic_record_matches_record_loop(obj):
    """EvalRecord(...) accepts what the hand-written checks accept, else says the same."""
    want = outcome(lambda: record_from_json_loop(obj))
    got = outcome(lambda: EvalRecord(**obj))
    assert got == want


# One to four input lines, each a JSON value or an object over some of fields.
def line_objects(fields, values):
    return st.lists(
        st.dictionaries(st.sampled_from(fields + ("extra",)), values)
        | st.fixed_dictionaries({}, optional={f: values for f in fields})
        | values,
        min_size=1,
        max_size=4,
    )


budget_values = field_values | st.integers() | st.sampled_from(["q1", "q2"])


@settings(max_examples=200, deadline=None)
@given(objs=line_objects(("question_id", "budget"), budget_values)
       | st.lists(st.builds(lambda q, b: {"question_id": q, "budget": b},
                            st.sampled_from(["q1", "q2"]), budget_values), min_size=1, max_size=4))
def test_budget_lines_match_budget_loop(tmp_path_factory, objs):
    """Budgets: the same dict, or the same error type, message and line as the replaced checker."""
    path = tmp_path_factory.mktemp("budgets") / "b.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
    assert outcome(lambda: _load_budgets(str(path))) == outcome(lambda: load_budgets_loop(path))


choice_values = st.none() | st.sampled_from(["AB", 3, [], [{"label": "A"}], [{"label": 1, "text": "x"}],
                                              [{"label": "", "text": "x"}], [[]]]) | st.lists(
    st.fixed_dictionaries({"label": st.sampled_from(["A", "b", "C"]), "text": st.sampled_from(["", "x"])}),
    max_size=3,
)
question_values = field_values | st.sampled_from(["A", "a", "B", "q1"])


@settings(max_examples=300, deadline=None)
@given(objs=line_objects(("question_id", "text", "gold_answer", "choices"), question_values)
       | st.lists(st.fixed_dictionaries(
           {"question_id": st.sampled_from(["q1", "q2", ""]), "text": question_values,
            "gold_answer": question_values},
           optional={"choices": choice_values}), min_size=1, max_size=4))
def test_question_lines_match_question_loop(tmp_path_factory, objs):
    """Questions: the same list, or the same error type, message and line as the replaced checker."""
    path = tmp_path_factory.mktemp("questions") / "q.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
    assert outcome(lambda: load_questions(path)) == outcome(lambda: load_questions_loop(path))


def _drop(name):
    obj = base_obj()
    del obj[name]
    return json.dumps(obj)


BAD_LINES = [
    ("{not json", RecordParseError, "malformed JSON: Expecting property name enclosed in double quotes"),
    ("\ufeff" + json.dumps(base_obj(question_id="q2")), RecordParseError,
     "malformed JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("[1, 2]", RecordSchemaError, "record must be a JSON object, got list"),
    ('"text"', RecordSchemaError, "record must be a JSON object, got str"),
    ("null", RecordSchemaError, "record must be a JSON object, got NoneType"),
    *[(_drop(name), RecordSchemaError, f"missing required field(s): {name}") for name in REQUIRED_FIELDS],
    (json.dumps({"model": "m", "dataset": "d"}), RecordSchemaError,
     "missing required field(s): question_id, prompt_id, tokens, correct"),
    (json.dumps(base_obj(model=1)), RecordSchemaError, "field 'model' must be a non-empty string, got 1"),
    (json.dumps(base_obj(dataset="")), RecordSchemaError, "field 'dataset' must be a non-empty string, got ''"),
    (json.dumps(base_obj(question_id=None)), RecordSchemaError,
     "field 'question_id' must be a non-empty string, got None"),
    (json.dumps(base_obj(prompt_id=["p"])), RecordSchemaError,
     "field 'prompt_id' must be a non-empty string, got ['p']"),
    (json.dumps(base_obj(tokens=True)), RecordSchemaError, "field 'tokens' must be an integer, got True"),
    (json.dumps(base_obj(tokens=1.5)), RecordSchemaError, "field 'tokens' must be an integer, got 1.5"),
    (json.dumps(base_obj(tokens="3")), RecordSchemaError, "field 'tokens' must be an integer, got '3'"),
    (json.dumps(base_obj(tokens=-1)), RecordSchemaError, "field 'tokens' must be non-negative, got -1"),
    (json.dumps(base_obj(tokens=2**63)), RecordSchemaError,
     f"field 'tokens' must fit in a signed 64-bit integer (at most {2**63 - 1}), got {2**63}"),
    (json.dumps(base_obj(correct=1)), RecordSchemaError, "field 'correct' must be a boolean, got 1"),
    (json.dumps(base_obj(correct=None)), RecordSchemaError, "field 'correct' must be a boolean, got None"),
    # several faults: the first in check order is the one reported
    (json.dumps(base_obj(prompt_id="", model=3, tokens=-1)), RecordSchemaError,
     "field 'model' must be a non-empty string, got 3"),
    (json.dumps(base_obj(tokens=-1, correct="no")), RecordSchemaError,
     "field 'tokens' must be non-negative, got -1"),
]


@pytest.mark.parametrize("line, error, reason", BAD_LINES)
def test_bad_line_keeps_type_and_message(tmp_path, line, error, reason):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps(base_obj()) + "\n\n" + line + "\n", encoding="utf-8")
    expected = f"{path}:3: {reason}"
    for load in (load_records_loop, load_records, read_matrices):
        with pytest.raises(error) as exc:
            load(path)
        assert type(exc.value) is error
        assert str(exc.value) == expected
        assert exc.value.line_no == 3


def test_duplicate_split_across_pairs_names_both_lines(tmp_path):
    path = tmp_path / "r.jsonl"
    write_jsonl(path, [
        base_obj(),
        base_obj(model="m2"),
        base_obj(question_id="q2"),
        base_obj(model="m2", question_id="q2"),
        base_obj(tokens=11),
    ])
    expected = f"duplicate record key ('m', 'd', 'q1', 'p1') (lines 1 and 5 of {path})"
    for load in (load_records_loop, load_records, read_matrices):
        with pytest.raises(DuplicateRecordError) as exc:
            load(path)
        assert str(exc.value) == expected


# Lines for the duplicate-placement tests: few keys, so repeats are common,
# and bad lines of every kind the scan stops at.
DUPLICATE_PRONE = st.builds(
    base_obj,
    model=st.sampled_from(["m", "m2"]),
    question_id=st.sampled_from(["q1", "q2"]),
    prompt_id=st.sampled_from(["p1", "p2"]),
    tokens=st.integers(0, 9),
).map(json.dumps)
BAD_RECORD_LINES = st.sampled_from([
    "{not json", "[1]", json.dumps(base_obj(tokens=-1)), json.dumps(base_obj(model="")),
    json.dumps({"model": "m"}),
])


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(DUPLICATE_PRONE | BAD_RECORD_LINES | st.just(""), min_size=1, max_size=12))
def test_first_error_matches_record_loop_cold_and_warm(tmp_path_factory, lines):
    """Duplicates before and after bad lines, in one pair or two: the loop's first error.

    The second read finds the entry the first wrote (a valid file) or the
    cache without one (a bad file writes none); both give the same outcome.
    """
    path = tmp_path_factory.mktemp("first") / "r.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    want = outcome(lambda: load_records_loop(path))
    if want[0] == "ok":
        records = want[1]
        want = "ok", {pair: pivot_loop(records, *pair)
                      for pair in sorted({(r.model, r.dataset) for r in records})}
    for _ in ("cold", "warm"):
        got = outcome(lambda: read_matrices(path))
        assert got[0] == want[0]
        if want[0] == "ok":
            assert list(got[1]) == list(want[1])
            for pair, matrix in want[1].items():
                assert got[1][pair] == matrix
        else:
            assert got[1] == want[1]


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(DUPLICATE_PRONE | BAD_RECORD_LINES | st.just(""), min_size=1, max_size=12),
       pair=st.sampled_from([("m", "d"), ("m2", "d"), ("m3", "d")]))
def test_prior_cells_match_read_matrices(tmp_path_factory, lines, pair):
    """A resume's skip set is the pair's present cells, or the error read_matrices raises.

    On a bad file, load_records raises that error too.
    """
    path = tmp_path_factory.mktemp("prior") / "r.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def matrix_cells():
        matrix = read_matrices(path).get(pair)
        return set() if matrix is None else present_cells(matrix)

    want = outcome(matrix_cells)
    assert outcome(lambda: prior_cells(path, *pair)) == want
    if want[0] != "ok":
        assert outcome(lambda: load_records(path)) == want


@pytest.mark.parametrize(
    "objs, expected",
    [
        # the later pair repeats first: its error, though the earlier pair is placed first
        ([base_obj(), base_obj(model="m2"), base_obj(model="m2", tokens=3), base_obj(tokens=4)],
         "duplicate record key ('m2', 'd', 'q1', 'p1') (lines 2 and 3 of {path})"),
        # a repeat before a bad line wins
        ([base_obj(), base_obj(tokens=3), base_obj(tokens=-1)],
         "duplicate record key ('m', 'd', 'q1', 'p1') (lines 1 and 2 of {path})"),
        # a bad line before a repeat wins
        ([base_obj(), base_obj(tokens=-1), base_obj(tokens=3)],
         "{path}:2: field 'tokens' must be non-negative, got -1"),
        # of two repeats of one key, the second line names the first repeat
        ([base_obj(), base_obj(question_id="q2"), base_obj(question_id="q2"), base_obj()],
         "duplicate record key ('m', 'd', 'q2', 'p1') (lines 2 and 3 of {path})"),
    ],
    ids=["later-pair-first", "repeat-then-bad", "bad-then-repeat", "earliest-second-line"],
)
def test_first_error_of_the_file_is_raised(tmp_path, objs, expected):
    path = tmp_path / "r.jsonl"
    write_jsonl(path, objs)
    for load in (load_records_loop, load_records, read_matrices):
        with pytest.raises(CotBudgetError) as exc:
            load(path)
        assert str(exc.value) == expected.format(path=path)


def test_bad_line_of_unselected_pair_still_fails(tmp_path):
    path = tmp_path / "r.jsonl"
    write_jsonl(path, [base_obj(), base_obj(model="m2", tokens=-4), base_obj(prompt_id="p2")])
    with pytest.raises(RecordSchemaError, match=r":2: field 'tokens' must be non-negative"):
        read_matrices(path)


def test_ids_with_trailing_nul_stay_distinct(tmp_path):
    path = tmp_path / "r.jsonl"
    write_jsonl(path, [base_obj(question_id="q1\x00", tokens=3), base_obj(tokens=5)])
    m = read_matrices(path)["m", "d"]
    assert m.question_ids == ("q1", "q1\x00")
    assert m.tokens[:, 0].tolist() == [5, 3]


def test_programmatic_duplicate_names_first_repeat():
    records = [
        make_record(qid="q1"),
        make_record(qid="q2"),
        make_record(qid="q2", tokens=7),
        make_record(qid="q1", tokens=8),
    ]
    with pytest.raises(DuplicateRecordError) as exc:
        pivot(records, "m", "d")
    assert exc.value.key == ("m", "d", "q2", "p1")
    assert outcome(lambda: pivot(records, "m", "d")) == outcome(lambda: pivot_loop(records, "m", "d"))


@settings(max_examples=100, deadline=None)
@given(
    cells=st.lists(
        st.tuples(st.sampled_from(["m", "m2"]), st.sampled_from(QUESTION_IDS),
                  st.sampled_from(PROMPT_IDS), st.integers(0, 9), st.booleans()),
        max_size=30,
    )
)
def test_pivot_matches_record_loop(cells):
    """Programmatic records, repeated cells included: the same matrix or error."""
    records = [make_record(model=m, qid=q, pid=p, tokens=t, correct=c) for m, q, p, t, c in cells]
    assert outcome(lambda: pivot(records, "m", "d")) == outcome(lambda: pivot_loop(records, "m", "d"))


DEEP = "[" * 5000 + "]" * 5000


class TestDeeplyNestedJson:
    """JSON nested past the parser's recursion limit is a data error, never a RecursionError."""

    @pytest.mark.parametrize("loader", [lambda p: list(read_jsonl(p)), load_records, read_matrices,
                                        _load_budgets, load_questions])
    def test_jsonl_line_names_its_line(self, tmp_path, loader):
        path = tmp_path / "r.jsonl"
        path.write_text("\n" + DEEP + "\n", encoding="utf-8")
        with pytest.raises(RecordParseError) as exc:
            loader(path)
        assert str(exc.value) == f"{path}:2: JSON nested too deeply to parse"
        assert exc.value.line_no == 2

    @pytest.mark.parametrize("load", [ComplexityProfile.load, PromptCatalog.load, read_json])
    def test_whole_file_names_the_file(self, tmp_path, load):
        path = tmp_path / "input.json"
        path.write_text('{"entries": ' + DEEP + "}\n", encoding="utf-8")
        with pytest.raises(RecordParseError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: JSON nested too deeply to parse"
        assert exc.value.line_no is None


class TestTokenLimit:
    def test_limit_is_the_largest_int64(self):
        """inputs.py spells the limit without numpy; a matrix column must still hold it."""
        assert TOKENS_MAX == np.iinfo(np.int64).max

    def test_largest_int64_loads_and_pivots(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [base_obj(tokens=2**63 - 1)])
        assert int(read_matrices(path)["m", "d"].tokens[0, 0]) == 2**63 - 1
        assert pivot(load_records(path), "m", "d").tokens[0, 0] == 2**63 - 1

    def test_programmatic_record_above_int64_rejected(self):
        with pytest.raises(RecordSchemaError, match="must fit in a signed 64-bit integer"):
            make_record(tokens=2**63)


# ---------------------------------------------------------------------------
# direct matrix writer
# ---------------------------------------------------------------------------

ODD_IDS = ["q", "é", 'a"b', "back\\slash", "tab\there", "nl\nx", "\x00", "\x1f", "🙂", " "]


@settings(max_examples=60, deadline=None)
@given(matrix=run_matrices(empty_rows=True), names=st.lists(st.sampled_from(ODD_IDS), min_size=2,
                                                            max_size=2))
def test_save_matrix_is_byte_identical_to_record_loop(tmp_path_factory, matrix, names):
    matrix = RunMatrix(
        model=names[0],
        dataset=names[1],
        question_ids=tuple(f"{ODD_IDS[i % len(ODD_IDS)]}{i}" for i in range(matrix.n_questions)),
        prompt_ids=tuple(f"{ODD_IDS[-1 - j % len(ODD_IDS)]}{j}" for j in range(matrix.n_prompts)),
        tokens=matrix.tokens * 10**15,
        correct=matrix.correct,
        present=matrix.present,
    )
    base = tmp_path_factory.mktemp("save")
    direct, via_records = base / "direct.jsonl", base / "records.jsonl"
    assert save_matrix(matrix, direct) == save_records_loop(unpivot_loop(matrix), via_records)
    assert direct.read_bytes() == via_records.read_bytes()


@pytest.mark.parametrize("loader", [load_records, read_matrices])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_byte_not_utf8_names_its_line(tmp_path, loader, newline):
    """The line is found past the text reader's first chunk, whatever the line ends."""
    path = tmp_path / "r.jsonl"
    lines = [json.dumps(base_obj(question_id=f"q{i}")).encode() for i in range(400)]
    lines[300] = lines[300][:-1] + b', "note": "\xe2\x82"}'
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(RecordParseError) as exc:
        loader(path)
    assert exc.value.line_no == 301
    assert exc.value.reason.startswith("not UTF-8: byte 0xe2 at column ")
    assert isinstance(exc.value, ValueError)


def _valid_catalog(path):
    default_catalog().save(path)


def _valid_profile(path):
    profile(make_matrix([[1, 5, 9], [2, 2, 7]], [[False, True, True], [True, False, True]])).save(path)


def _valid_jsonl(make_obj):
    def write(path):
        path.write_text("".join(json.dumps(make_obj(i)) + "\n" for i in range(4)), encoding="utf-8")
    return write


# (loader, comparable result of a load, writer of a valid file of 4+ lines)
LOADERS = {
    "records": (read_matrices, _valid_jsonl(lambda i: base_obj(question_id=f"q{i}"))),
    "budgets": (_load_budgets, _valid_jsonl(lambda i: {"question_id": f"q{i}", "budget": i})),
    "questions": (load_questions, _valid_jsonl(
        lambda i: {"question_id": f"q{i}", "text": "t", "gold_answer": "1"})),
    "complexity": (ComplexityProfile.load, _valid_profile),
    "catalog": (PromptCatalog.load, _valid_catalog),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize(
    "inserted, reason",
    [
        (b"@", "malformed JSON"),
        (b'"caf\xe9"', "not UTF-8: byte 0xe9 at column 5"),
        (b"", None),
        (b" \t", None),
    ],
    ids=["malformed", "not-utf8", "blank", "whitespace"],
)
def test_every_loader_reads_lines_the_same_way(tmp_path, name, inserted, reason):
    """Records, budgets, questions, complexity and catalog files share one reader.

    A third line inserted into a valid file is a RecordParseError naming
    line 3 when it is malformed JSON or not UTF-8, and changes nothing when
    it is blank.
    """
    load, write_valid = LOADERS[name]
    path = tmp_path / "input"
    write_valid(path)
    want = load(str(path))
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(lines[:2] + [inserted] + lines[2:]))
    if reason is None:
        assert load(str(path)) == want
        return
    with pytest.raises(RecordParseError) as exc:
        load(str(path))
    assert exc.value.line_no == 3
    assert str(exc.value).startswith(f"{path}:3: {reason}")


# Valid UTF-8 text, non-ASCII included: every character but a lone surrogate.
UTF8_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | UTF8_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(UTF8_TEXT, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(
        st.tuples(JSON_VALUES.map(lambda v: json.dumps(v, ensure_ascii=False))
                  | st.sampled_from(["", " ", " \t"]),
                  st.sampled_from(["\n", "\r\n", "\r"])),
        max_size=20,
    ),
    last_ends=st.booleans(),
)
def test_read_jsonl_matches_the_text_reader(tmp_path_factory, lines, last_ends):
    """Any line ends, blank lines and non-ASCII text: the text reader's lines, parsed."""
    text = "".join(line + end for line, end in lines)
    if lines and not last_ends:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.mktemp("lines") / "in.jsonl"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        want = [(n, json.loads(line)) for n, line in enumerate(fh, start=1) if line.strip()]
    assert list(read_jsonl(path)) == want


def _record_line(i):
    return json.dumps(base_obj(question_id=f"q{i}"))


def _budget_line(i):
    return json.dumps({"question_id": f"q{i}", "budget": i})


def _question_line(i):
    return json.dumps({"question_id": f"q{i}", "text": "t", "gold_answer": "1"})


RECORD_FAULTS = {
    "malformed": "{not json",
    "schema": json.dumps(base_obj(tokens=-1)),
    "repeat": _record_line(1),
}
# (loader, writer of line i of a valid file, a third line that is the file's first error)
EARLIER_FAULTS = {
    f"{name}-{fault}": (load, line, third)
    for name, load, line, faults in [
        ("read_matrices", read_matrices, _record_line, RECORD_FAULTS),
        ("load_records", load_records, _record_line, RECORD_FAULTS),
        ("budgets", _load_budgets, _budget_line, {
            "malformed": "{not json",
            "schema": json.dumps({"question_id": "q3", "budget": "x"}),
        }),
        ("questions", load_questions, _question_line, {
            "malformed": "{not json",
            "schema": json.dumps({"question_id": "a"}),
            "repeat": _question_line(1),
        }),
    ]
    for fault, third in faults.items()
}


@pytest.mark.parametrize("name", sorted(EARLIER_FAULTS))
def test_first_bad_line_wins_over_a_later_byte_not_utf8(tmp_path, name):
    """A fault on line 3 and a byte that is not UTF-8 on line 5, both in the reader's
    first chunk: line 3's error, as if line 5 were valid."""
    load, line, third = EARLIER_FAULTS[name]
    lines = [line(1).encode(), line(2).encode(), third.encode(), line(4).encode(),
             b'"caf\xe9"', line(6).encode()]
    path = tmp_path / "input.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    got = outcome(lambda: load(path))
    lines[4] = line(5).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    want = outcome(lambda: load(path))
    assert want[0] != "ok" and "not UTF-8" not in want[1]
    assert got == want


# ---------------------------------------------------------------------------
# memory: a miss and a write grow with the matrix, not with Python objects
# ---------------------------------------------------------------------------

MiB = 2**20


@pytest.fixture(scope="module")
def two_pair_file(tmp_path_factory):
    """A two-pair synth records file of 2,000 questions x 31 prompts each (124k records)."""
    base = tmp_path_factory.mktemp("two-pair")
    path = base / "records.jsonl"
    with path.open("wb") as sink:
        for seed, model in enumerate(("model-a", "model-b"), start=1):
            spec = dataclasses.replace(random_spec(2000, seed=seed, violation_rate=0.05),
                                       model=model)
            save_matrix(generate(spec)[0], base / "part.jsonl")
            sink.write((base / "part.jsonl").read_bytes())
    return path


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_miss_peak_grows_with_the_matrix(two_pair_file, isolated_record_cache):
    """No object per record: the miss holds int codes and counts (about 25 B a record)."""
    peak = traced_peak(lambda: read_matrices(two_pair_file))
    assert len(list(isolated_record_cache.glob("*.npz"))) == 1  # it was a miss
    assert peak <= 8 * MiB


def test_run_matrix_peak_is_its_copies():
    """The constructor copies the caller's arrays (6.2 MB here) and checks them without
    copying the counts again."""
    n, k = 20_000, 31
    tokens = np.arange(n * k, dtype=np.int64).reshape(n, k)
    correct = np.ones((n, k), dtype=bool)
    present = np.ones((n, k), dtype=bool)
    question_ids = tuple(f"q{i}" for i in range(n))
    prompt_ids = tuple(f"p{j}" for j in range(k))
    built = []
    peak = traced_peak(lambda: built.append(RunMatrix("m", "d", question_ids, prompt_ids,
                                                      tokens, correct, present)))
    assert peak <= 8 * MiB
    assert not np.shares_memory(built[0].tokens, tokens)


def test_run_matrix_holds_only_its_arrays_and_ids():
    """A 20,000 x 31 matrix keeps its three arrays and its two id tuples (6.36 MB),
    and a few hundred bytes more. An id -> index map per axis kept 0.97 MB more."""
    n, k = 20_000, 31
    tokens = np.arange(n * k, dtype=np.int64).reshape(n, k)
    correct = np.ones((n, k), dtype=bool)
    present = np.ones((n, k), dtype=bool)
    question_ids = [f"q{i}" for i in range(n)]  # lists, so the tuples are the matrix's own
    prompt_ids = [f"p{j}" for j in range(k)]
    tracemalloc.start()
    try:
        matrix = RunMatrix("m", "d", question_ids, prompt_ids, tokens, correct, present)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in (matrix.tokens, matrix.correct, matrix.present))
    own += sys.getsizeof(matrix.question_ids) + sys.getsizeof(matrix.prompt_ids)
    assert held <= own + 64 * 1024


def test_place_holds_no_record_index_while_the_matrix_is_copied():
    """A full 5,000 x 31 pair: its arrays, their copies and one check's temporary.

    Holding each record's flat cell index until RunMatrix had copied the
    arrays peaked at 3.0 times the matrix's bytes.
    """
    n, k = 5000, 31
    pair = PairRecords("m", "d")
    for line, (q, p) in enumerate(itertools.product(range(n), range(k)), start=1):
        pair.add(f"q{q}", f"p{p}", line)
    tokens, correct = array("q", range(n * k)), bytearray(n * k)
    built = []
    peak = traced_peak(lambda: built.append(_place(pair, tokens, correct)))
    matrix = built[0]
    assert matrix.present.all() and int(matrix.tokens.sum()) == sum(tokens)
    assert peak <= 2.6 * sum(a.nbytes for a in (matrix.tokens, matrix.correct, matrix.present))


def test_save_matrix_peak_is_one_block(two_pair_file, tmp_path):
    matrix = read_matrices(two_pair_file)["model-a", "synthetic"]
    assert matrix.tokens.shape == (2000, 31)
    peak = traced_peak(lambda: save_matrix(matrix, tmp_path / "out.jsonl"))
    assert peak <= 1.5 * MiB
    assert read_matrices(tmp_path / "out.jsonl")["model-a", "synthetic"] == matrix


def test_write_json_writes_ascii_with_a_two_space_indent_and_one_final_lf(tmp_path):
    """Non-ASCII and lone-surrogate strings as ASCII escapes, on every platform."""
    obj = {"ids": ["caf\u00e9", "\ud800", "q1"], "n": 2, "none": None}
    path = tmp_path / "out.json"
    write_json(path, obj)
    assert path.read_bytes() == (
        b'{\n  "ids": [\n    "caf\\u00e9",\n    "\\ud800",\n    "q1"\n  ],\n'
        b'  "n": 2,\n  "none": null\n}\n'
    )
    assert read_json(path) == obj
