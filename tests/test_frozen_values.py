"""The slotted record classes of grading, collect and prompts against the dataclasses
they replaced.

Each class and its oracle in ``loop_oracles`` (same name, so reprs compare
as text) are built from the same drawn call: positional and keyword
arguments, omitted defaults and invalid values. Either both raise the same
exception with the same message, or both give a value with the same repr,
hash, equality, copies, pickles and refusal of assignment.
"""
from __future__ import annotations

import copy
import pickle
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_oracles
from cotbudget import collect, grading, prompts
from cotbudget.prompts import FIXED_INSTRUCTIONS, PARAMETERIZED_FAMILIES

NAMES = ("Choice", "Question", "PromptSpec", "PromptCatalog", "SweepConfig", "SweepSummary")
OURS = {name: getattr(prompts if name.startswith("Prompt") else collect if name.startswith("Sweep")
                       else grading, name) for name in NAMES}
ORACLES = {name: getattr(loop_oracles, name) for name in NAMES}
FROZEN = set(NAMES) - {"SweepSummary"}


class Make(NamedTuple):
    """A call of the class ``name``, built for one side by build()."""

    name: str
    args: tuple
    kwargs: dict


def build(value, classes: dict):
    if isinstance(value, Make):
        return classes[value.name](*(build(a, classes) for a in value.args),
                                   **{k: build(v, classes) for k, v in value.kwargs.items()})
    if isinstance(value, (tuple, list)):
        return type(value)(build(v, classes) for v in value)
    return value


def outcome(call):
    """("ok", value) or ("raised", exception type, message)."""
    try:
        return "ok", call()
    except Exception as exc:
        return "raised", type(exc), str(exc)


@st.composite
def calls(draw, name: str, fields: tuple[str, ...], required: int, values, bad):
    """A Make of the class name, whose constructor takes fields in this order,
    the first ``required`` of them without a default.

    The values come from ``values``, with one of them replaced by a draw of
    ``bad`` once in three calls. A drawn prefix is passed by position and
    the rest by keyword; a field with a default is sometimes left out, and
    now and then a required one too.
    """
    drawn = list(draw(values))
    if draw(st.integers(0, 2)) == 2:  # draws shrink towards 0, the valid values
        drawn[draw(st.integers(0, len(drawn) - 1))] = draw(bad)
    n_positional = draw(st.integers(0, len(fields)))
    kwargs = {}
    for i in range(n_positional, len(fields)):
        omitted = draw(st.integers(0, 30 if i < required else 2)) == 2
        if not omitted:
            kwargs[fields[i]] = drawn[i]
    return Make(name, tuple(drawn[:n_positional]), kwargs)


SOME = st.one_of(st.none(), st.integers(-2, 2), st.booleans(), st.just(1.5), st.just(""),
                 st.just([]))
IDS = st.text("aAbé", min_size=1, max_size=3)
LABELS = st.sampled_from(["a", "A", "b", "(c)"])


@st.composite
def valid_spec_values(draw) -> tuple:
    family = draw(st.sampled_from([*FIXED_INSTRUCTIONS, *PARAMETERIZED_FAMILIES]))
    if family in FIXED_INSTRUCTIONS:
        return draw(IDS), family, FIXED_INSTRUCTIONS[family], None, None
    template, unit, (lo, hi) = PARAMETERIZED_FAMILIES[family]
    limit = draw(st.integers(lo, hi or 10**6))
    return draw(IDS), family, template.format(k=limit), limit, unit


SPEC = calls("PromptSpec", ("prompt_id", "family", "instruction", "limit", "limit_unit"), 3,
             valid_spec_values(), st.one_of(SOME, st.sampled_from(
                 ["Nope", "words", "tokens", 0, 101, 10**7, "5", *PARAMETERIZED_FAMILIES])))
CHOICE = calls("Choice", ("label", "text"), 2, st.tuples(LABELS, st.text("xy", max_size=2)),
               SOME)
CATALOG = calls("PromptCatalog", ("specs",), 1,
                st.tuples(st.lists(SPEC, max_size=3).map(tuple)),
                st.one_of(SOME, st.lists(SPEC, max_size=2), st.just(("NoCoT",))))
RECIPES = {
    "Choice": CHOICE,
    "Question": calls(
        "Question", ("question_id", "text", "gold_answer", "choices"), 3,
        st.tuples(IDS, IDS, LABELS, st.one_of(st.none(), st.lists(CHOICE, max_size=3).map(tuple),
                                              st.lists(CHOICE, min_size=1, max_size=3))),
        st.one_of(SOME, st.lists(CHOICE, max_size=2), st.just(("a",)), st.just(())),
    ),
    "PromptSpec": SPEC,
    "PromptCatalog": CATALOG,
    "SweepConfig": calls(
        "SweepConfig", ("endpoint", "model", "dataset", "catalog", "max_parallel", "retries",
                        "temperature", "timeout"), 4,
        st.tuples(st.sampled_from([
            "http://127.0.0.1:9/v1", "https://example.test/v1/chat", "ftp://example.test/",
            "http://user:pw@example.test/v1", "http://example.test:0/", "http://ex ample/",
        ]), IDS, IDS, CATALOG, st.integers(1, 4), st.integers(0, 3), st.floats(-2, 2),
            st.floats(0.5, 300)),
        # No NaN: in a field that no check refuses (catalog, say), the dataclass
        # of Python 3.13 compares it field by field, so unequal to itself.
        st.one_of(SOME, st.sampled_from([float("inf"), -1.0, 0, "1"])),
    ),
    "SweepSummary": calls(
        "SweepSummary", ("requested", "skipped", "succeeded", "failed", "retries"), 0,
        st.tuples(*[st.integers(0, 3)] * 5), SOME,
    ),
}


def _same(ours, theirs) -> None:
    """Two outcomes agree: equal values by repr, or one exception type and message."""
    assert ours[0] == theirs[0], (ours, theirs)
    if ours[0] == "ok":
        assert repr(ours[1]) == repr(theirs[1])
    else:
        assert ours[1:] == theirs[1:]


def _round_trips(value) -> list:
    copies = [("copy",) + outcome(lambda: copy.copy(value)),
              ("deepcopy",) + outcome(lambda: copy.deepcopy(value))]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append((protocol,) + outcome(lambda: pickle.loads(pickle.dumps(value, protocol))))
    return copies


def _refusals(value, fields: tuple[str, ...]) -> list[str | None]:
    """The message of each refused assignment, then deletion, of each field;
    None where it was allowed."""
    refused = []
    for name in fields:
        for act in (lambda: setattr(value, name, 1), lambda: delattr(value, name)):
            try:
                act()
            except AttributeError as exc:  # FrozenInstanceError, a frozen dataclass's, is one
                refused.append(str(exc))
            else:
                refused.append(None)
    return refused


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_each_slotted_class_acts_as_its_dataclass(name, data):
    first, second = data.draw(RECIPES[name]), data.draw(RECIPES[name])
    ours = outcome(lambda: build(first, OURS))
    theirs = outcome(lambda: build(first, ORACLES))
    if ours[0] == "raised":
        assert ours == theirs
        return
    assert theirs[0] == "ok", theirs
    a, b = ours[1], theirs[1]
    assert type(a) is OURS[name] and type(b) is ORACLES[name]
    assert repr(a) == repr(b)
    _same(outcome(lambda: hash(a)), outcome(lambda: hash(b)))  # a list field makes both fail
    # == holds within a class, field by field, and never across the two.
    again = build(first, OURS)
    assert a == again and not a != again
    assert a != b and b != a and not a == b
    other_ours, other_theirs = (outcome(lambda: build(second, c)) for c in (OURS, ORACLES))
    _same(other_ours, other_theirs)
    if other_ours[0] == "ok":
        assert (a == other_ours[1]) == (b == other_theirs[1])
    for (how, *got), (_, *want) in zip(_round_trips(a), _round_trips(b)):
        _same(got, want)
        if got[0] == "ok":
            assert type(got[1]) is type(a) and got[1] == a, how
    fields = type(a).__slots__
    if name in FROZEN:
        refused = _refusals(a, fields)
        assert None not in refused and refused == _refusals(b, fields)
        # A new name too (the frozen and slotted dataclass raised TypeError before 3.12).
        assert _refusals(a, ("other",)) == ["cannot assign to field 'other'",
                                             "cannot delete field 'other'"]
        assert repr(a) == repr(b) == repr(again)
    else:  # a mutable counter record
        for field in fields:
            setattr(a, field, 9)
            setattr(b, field, 9)
        assert repr(a) == repr(b) and a == OURS[name](9, 9, 9, 9, 9)


def test_a_sweep_summary_takes_no_new_attribute():
    """The one divergence: a slotted SweepSummary has no __dict__ for a name it does not list."""
    with pytest.raises(AttributeError):
        collect.SweepSummary().elapsed = 1.0
