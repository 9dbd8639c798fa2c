from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cotbudget.errors import RecordParseError, RecordSchemaError

from cotbudget.prompts import (
    DEFAULT_LIMIT_GRID,
    FIXED_INSTRUCTIONS,
    PARAMETERIZED_FAMILIES,
    PromptCatalog,
    PromptSpec,
    QUESTION_TEMPLATE,
    default_catalog,
    limited_spec,
    render,
)

from loop_oracles import catalog_from_file_loop, catalog_from_json_loop

EXPECTED_FIXED = {
    "NoCoT": "Only give the final answer.",
    "DefaultCoT": "Think step-by-step.",
    "BeConcise": "Be concise.",
    "BulletPoints": "Only use bullet points.",
    "OnlyNumbers": "Only use numbers or equations.",
    "NoSpaces": "Do not use any spaces or line breaks.",
    "NoProperGrammar": "Do not use proper grammar.",
    "AbbreviateWords": "Abbreviate words as much as possible.",
    "ChineseCoT": "Respond in Chinese",
}


class TestDefaultCatalog:
    def test_has_31_unique_prompts(self):
        cat = default_catalog()
        assert len(cat) == 31
        assert len(set(cat.prompt_ids)) == 31

    def test_fixed_instructions_exact(self):
        cat = default_catalog()
        for pid, text in EXPECTED_FIXED.items():
            assert cat.get(pid).instruction == text

    def test_step_limit_instruction(self):
        assert default_catalog().get("StepLimit(3)").instruction == "Use at most 3 steps."

    def test_grid_covers_cited_limits(self):
        ids = set(default_catalog().prompt_ids)
        for cited in ("WordLimit(5)", "WordLimit(10)", "WordLimit(15)",
                      "CharLimit(50)", "CharLimit(100)", "TokenLimit(10)"):
            assert cited in ids

    def test_limits_within_family_ranges(self):
        for spec in default_catalog():
            if spec.limit is None:
                continue
            _, unit, (lo, hi) = PARAMETERIZED_FAMILIES[spec.family]
            assert spec.limit_unit == unit
            assert spec.limit >= lo
            assert hi is None or spec.limit <= hi


class TestPromptSpecInvariants:
    def test_fixed_rejects_limit(self):
        with pytest.raises(ValueError):
            PromptSpec(prompt_id="NoCoT", family="NoCoT",
                       instruction="Only give the final answer.", limit=5, limit_unit="words")

    def test_parameterized_requires_limit(self):
        with pytest.raises(ValueError):
            PromptSpec(prompt_id="WordLimit(5)", family="WordLimit",
                       instruction="Use at most 5 words.")

    @pytest.mark.parametrize("family,k", [("WordLimit", 101), ("StepLimit", 6), ("TokenLimit", 0)])
    def test_limit_ranges_enforced(self, family, k):
        with pytest.raises(ValueError):
            limited_spec(family, k)

    def test_chinese_limit_unbounded_above(self):
        spec = limited_spec("ChineseCoT(k)", 5000)
        assert spec.prompt_id == "ChineseCoT(5000)"
        assert spec.limit_unit == "chinese-characters"


class TestPromptSpecRefusesWhatItsFileRefuses:
    @pytest.mark.parametrize("args, message", [
        (("W", "WordLimit", "i", True, "words"), "limit must be null or an integer, got True"),
        (("W", "WordLimit", "i", 5.0, "words"), "limit must be null or an integer, got 5.0"),
        (("N", "NoCoT", None), "instruction must be a string, got None"),
        (("", "NoCoT", "i"), "prompt_id must be a non-empty string, got ''"),
        (("N", "", "i"), "family must be a non-empty string, got ''"),
        (("N", ["NoCoT"], "i"), r"family must be a non-empty string, got \['NoCoT'\]"),
        (("W", "WordLimit", "i", 5, b"words"), "limit_unit must be null or a string, got b'words'"),
    ])
    def test_constructor_refuses(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PromptSpec(*args)


class TestRender:
    def test_template_shape(self):
        cat = default_catalog()
        text = render(cat.get("BeConcise"), "What is 2+2?")
        assert text.startswith("Answer the following question. Be concise.")
        assert "Question: What is 2+2?" in text
        assert "'Answer: ANSWER' (without quotes)" in text
        assert text.startswith(QUESTION_TEMPLATE.partition("{prompt}")[0])

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            render(default_catalog().get("NoCoT"), "")

    def test_instruction_is_only_difference(self):
        cat = default_catalog()
        a = render(cat.get("NoCoT"), "Q?")
        b = render(cat.get("DefaultCoT"), "Q?")
        assert a.replace(FIXED_INSTRUCTIONS["NoCoT"], "") == b.replace(
            FIXED_INSTRUCTIONS["DefaultCoT"], ""
        )

    @given(
        q1=st.text(min_size=1, max_size=200),
        q2=st.text(min_size=1, max_size=200),
    )
    def test_injective_in_question(self, q1, q2):
        spec = default_catalog().get("BeConcise")
        if q1 != q2:
            assert render(spec, q1) != render(spec, q2)

    def test_limit_appears_exactly_once_in_instruction(self):
        for family, grid in DEFAULT_LIMIT_GRID.items():
            for k in grid:
                spec = limited_spec(family, k)
                assert spec.instruction.count(str(k)) == 1


class TestCatalogSerialization:
    def test_round_trip(self, tmp_path):
        cat = default_catalog()
        path = tmp_path / "catalog.json"
        cat.save(path)
        assert PromptCatalog.load(path) == cat

    def test_round_trip_of_ids_past_ascii(self, tmp_path):
        """A non-ASCII or lone-surrogate id is written as its ASCII escape and read back."""
        cat = PromptCatalog(tuple(
            PromptSpec(prompt_id=pid, family="NoCoT", instruction=f"Only the answer, {pid}.")
            for pid in ("caf\u00e9", "\ud800", "\U0001f600")
        ))
        path = tmp_path / "catalog.json"
        cat.save(path)
        assert path.read_bytes().isascii()
        assert PromptCatalog.load(path) == cat

    def test_duplicate_ids_rejected(self):
        spec = default_catalog().get("NoCoT")
        with pytest.raises(ValueError):
            PromptCatalog(specs=(spec, spec))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 600) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
SPEC_KEYS = ("prompt_id", "family", "instruction", "limit", "limit_unit", "extra")
# Values each spec field may validly take, so that some edits keep the file valid.
VALID_VALUES = {
    "prompt_id": st.text(min_size=1, max_size=3),
    "family": st.sampled_from([*FIXED_INSTRUCTIONS, *PARAMETERIZED_FAMILIES]),
    "instruction": st.text(max_size=5),
    "limit": st.none() | st.integers(1, 600),
    "limit_unit": st.none() | st.sampled_from([unit for _, unit, _ in PARAMETERIZED_FAMILIES.values()]),
    "extra": JSON_VALUES,
}
EDITS = ("spec_set", "spec_delete", "duplicate", "retype_spec", "retype_file")


@st.composite
def catalog_mutations(draw, obj):
    """A copy of a catalog file's list with one to three random edits.

    Half the examples only give spec fields values from their valid
    ranges, which often keeps the file valid.
    """
    obj = json.loads(json.dumps(obj))
    valid_only = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        kind = "spec_valid" if valid_only else draw(st.sampled_from(EDITS))
        if kind == "retype_file":
            obj = draw(JSON_VALUES)
            continue
        if not isinstance(obj, list) or not obj:
            continue
        i = draw(st.integers(0, len(obj) - 1))
        if kind == "duplicate":
            obj.append(json.loads(json.dumps(obj[i])))
        elif kind == "retype_spec":
            obj[i] = draw(JSON_VALUES)
        elif isinstance(obj[i], dict):
            key = draw(st.sampled_from(SPEC_KEYS))
            if kind == "spec_valid":
                obj[i][key] = draw(VALID_VALUES[key])
            elif kind == "spec_set":
                obj[i][key] = draw(JSON_VALUES)
            else:
                obj[i].pop(key, None)
    return obj


@st.composite
def spec_values(draw) -> tuple:
    """PromptSpec arguments: any id and instruction text, a limit anywhere in a
    length-limited family's range, and one time in four an odd value in one field."""
    family = draw(st.sampled_from([*FIXED_INSTRUCTIONS, *PARAMETERIZED_FAMILIES]))
    values = [draw(st.text(min_size=1, max_size=4)), family, draw(st.text(max_size=5)), None, None]
    if family in PARAMETERIZED_FAMILIES:
        _, unit, (lo, hi) = PARAMETERIZED_FAMILIES[family]
        values[3:] = draw(st.integers(lo, hi or 2**70)), unit
    if draw(st.integers(0, 3)) == 3:
        values[draw(st.integers(0, 4))] = draw(st.sampled_from([None, True, 5.0, "", 0, b"x"]))
    return tuple(values)


def _outcome(load):
    """("ok", the loaded catalog) or ("raised", the schema error's reason)."""
    try:
        return "ok", load()
    except RecordSchemaError as exc:
        return "raised", exc.reason


class TestCatalogFileMutations:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), size=st.integers(1, 4), cut=st.none() | st.integers(0, 200))
    def test_every_mutation_loads_equal_or_is_a_data_error(self, data, size, cut):
        """A mutated catalog loads to the catalog the rules describe, or is a data error.

        ``cut`` truncates some files' text, which makes them malformed JSON.
        """
        valid = [s.to_json_dict() for s in list(default_catalog())[-size:]]
        obj = data.draw(catalog_mutations(valid))
        text = json.dumps(obj, indent=2)
        want = catalog_from_file_loop(obj) if cut is None or cut >= len(text) else None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "catalog.json"
            path.write_text(text if cut is None else text[:cut], encoding="utf-8")
            if want is None:
                with pytest.raises((RecordSchemaError, RecordParseError)) as exc:
                    PromptCatalog.load(path)
                assert str(exc.value).startswith(f"{path}")
            else:
                assert PromptCatalog.load(path) == want

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), size=st.integers(1, 4))
    def test_same_catalog_or_same_first_error_as_the_field_loop(self, data, size):
        valid = [s.to_json_dict() for s in list(default_catalog())[-size:]]
        obj = data.draw(catalog_mutations(valid))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "catalog.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            got = _outcome(lambda: PromptCatalog.load(path))
        assert got == _outcome(lambda: catalog_from_json_loop(obj))

    def test_a_repeat_is_named_before_a_later_field_of_its_entry(self, tmp_path):
        first = {"prompt_id": "A", "family": "NoCoT", "instruction": "i"}
        path = tmp_path / "catalog.json"
        for bad in ({"family": "Nope"}, {"family": 5}, {"instruction": None}, {"limit": 1.5},
                    {"limit_unit": 3}, {"limit": 5, "limit_unit": "words"}):
            obj = [first, {**first, **bad}]
            path.write_text(json.dumps(obj), encoding="utf-8")
            want = ("raised", "[1].prompt_id 'A' repeats [0]")
            assert _outcome(lambda: PromptCatalog.load(path)) == want
            assert _outcome(lambda: catalog_from_json_loop(obj)) == want

    @settings(max_examples=200, deadline=None)
    @given(specs=st.lists(spec_values(), min_size=1, max_size=5, unique_by=lambda v: v[0]))
    def test_every_catalog_that_constructs_saves_and_loads_back_equal(self, specs):
        try:
            catalog = PromptCatalog(tuple(PromptSpec(*values) for values in specs))
        except ValueError:
            reject()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "catalog.json"
            catalog.save(path)
            assert PromptCatalog.load(path) == catalog

    def test_limit_and_limit_unit_may_be_left_out_of_fixed_specs(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"prompt_id": "NoCoT", "family": "NoCoT",
                                     "instruction": "Only give the final answer."}]))
        assert PromptCatalog.load(path) == PromptCatalog((default_catalog().get("NoCoT"),))
