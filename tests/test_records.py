from __future__ import annotations

import json

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
from cotbudget.records import (
    REQUIRED_FIELDS,
    EvalRecord,
    RunMatrix,
    load_records,
    pivot,
    read_columns,
    save_matrix,
    save_records,
    unpivot,
)

from conftest import make_record, run_matrices
from loop_oracles import load_records_loop, pivot_loop


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
        out = tmp_path / "w.jsonl"
        save_records(records, out)
        assert json.loads(out.read_text())["run_id"] == "abc"

    def test_bool_tokens_rejected(self):
        with pytest.raises(RecordSchemaError):
            EvalRecord.from_json_dict(base_obj(tokens=True))

    def test_non_bool_correct_rejected(self):
        with pytest.raises(RecordSchemaError):
            EvalRecord.from_json_dict(base_obj(correct=1))


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
        assert pivot(unpivot(m), "m", "d") == m

    def test_immutable(self):
        m = pivot([make_record()], "m", "d")
        with pytest.raises(ValueError):
            m.tokens[0, 0] = 99

    def test_programmatic_duplicates_rejected(self):
        with pytest.raises(DuplicateRecordError):
            pivot([make_record(), make_record(tokens=99)], "m", "d")


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
def test_columns_match_record_loop(tmp_path_factory, cells, order, blank_at, ascii_flags):
    path = tmp_path_factory.mktemp("cols") / "r.jsonl"
    path.write_text("\n".join(record_lines(cells, order, blank_at, ascii_flags)) + "\n",
                    encoding="utf-8")
    records = load_records_loop(path)
    columns = read_columns(path)
    assert load_records(path) == records
    assert columns.pairs == sorted({(r.model, r.dataset) for r in records})
    for model, dataset in PAIRS:
        want = outcome(lambda: pivot_loop(records, model, dataset))
        got = outcome(lambda: columns.matrix(model, dataset))
        assert got == want
        assert outcome(lambda: pivot(records, model, dataset)) == want
        if want[0] == "ok":
            assert got[1].question_ids == want[1].question_ids
            assert got[1].prompt_ids == want[1].prompt_ids
        assert columns.cells(model, dataset) == {
            (r.question_id, r.prompt_id) for r in records if (r.model, r.dataset) == (model, dataset)
        }


field_values = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from([2**63 - 1, 2**63, 1.5]),
    st.sampled_from(["", "x", "q\x00"]), st.lists(st.integers(), max_size=1),
)


@settings(max_examples=200, deadline=None)
@given(
    objs=st.lists(
        st.dictionaries(st.sampled_from(REQUIRED_FIELDS + ("extra",)), field_values)
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
    got = outcome(lambda: read_columns(path))
    assert got[0] == want[0]
    if want[0] != "ok":
        assert got[1] == want[1]


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
    for load in (load_records_loop, load_records, read_columns):
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
    for load in (load_records_loop, load_records, read_columns):
        with pytest.raises(DuplicateRecordError) as exc:
            load(path)
        assert str(exc.value) == expected


def test_bad_line_of_unselected_pair_still_fails(tmp_path):
    path = tmp_path / "r.jsonl"
    write_jsonl(path, [base_obj(), base_obj(model="m2", tokens=-4), base_obj(prompt_id="p2")])
    with pytest.raises(RecordSchemaError, match=r":2: field 'tokens' must be non-negative"):
        read_columns(path).matrix("m", "d")


def test_ids_with_trailing_nul_stay_distinct(tmp_path):
    path = tmp_path / "r.jsonl"
    write_jsonl(path, [base_obj(question_id="q1\x00", tokens=3), base_obj(tokens=5)])
    m = read_columns(path).matrix("m", "d")
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


class TestTokenLimit:
    def test_largest_int64_loads_and_pivots(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_jsonl(path, [base_obj(tokens=2**63 - 1)])
        assert int(read_columns(path).matrix("m", "d").tokens[0, 0]) == 2**63 - 1
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
def test_save_matrix_is_byte_identical_to_save_records(tmp_path_factory, matrix, names):
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
    assert save_matrix(matrix, direct) == save_records(unpivot(matrix), via_records)
    assert direct.read_bytes() == via_records.read_bytes()


@pytest.mark.parametrize("loader", [load_records, read_columns])
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
