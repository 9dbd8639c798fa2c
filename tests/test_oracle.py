from __future__ import annotations

import dataclasses
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget.complexity import INFINITE, profile
from cotbudget.errors import GenerationError, RecordSchemaError
from cotbudget.oracle import (
    OracleSpec,
    generate,
    grid_lengths,
    random_spec,
    scaled_lengths,
    straddle_lengths,
    load_taus,
    save_taus,
)

from loop_oracles import (
    question_runs,
    scaled_lengths_loop,
    straddle_lengths_loop,
    taus_from_file_loop,
)


class TestGenerate:
    def test_indicator_correctness(self):
        # fixed per-question lengths (5, 15, 25) against taus (10, 20, inf)
        spec = OracleSpec(
            n=3,
            prompt_lengths=grid_lengths([5, 15, 25]),
            taus=(10, 20, INFINITE),
        )
        matrix, _ = generate(spec)
        assert matrix.correct.tolist() == [
            [False, True, True],
            [False, False, True],
            [False, False, False],
        ]

    def test_deterministic_given_seed(self):
        a, _ = generate(random_spec(n=20, seed=7, violation_rate=0.3))
        b, _ = generate(random_spec(n=20, seed=7, violation_rate=0.3))
        assert a == b

    def test_different_seeds_differ(self):
        a, _ = generate(random_spec(n=20, seed=1, violation_rate=0.3))
        b, _ = generate(random_spec(n=20, seed=2, violation_rate=0.3))
        assert a != b

    def test_straddle_violation_rejected(self):
        spec = OracleSpec(
            n=1,
            prompt_lengths=grid_lengths([50, 60]),  # nothing below tau
            taus=(10,),
        )
        with pytest.raises(GenerationError):
            generate(spec)

    def test_all_below_rejected(self):
        spec = OracleSpec(
            n=1,
            prompt_lengths=grid_lengths([1, 2]),
            taus=(10,),
        )
        with pytest.raises(GenerationError):
            generate(spec)

    def test_violation_rate_one_negates_indicator(self):
        spec = OracleSpec(
            n=2,
            prompt_lengths=grid_lengths([5, 15, 25]),
            taus=(10, 20),
            violation_rate=1.0,
            seed=3,
        )
        matrix, _ = generate(spec)
        assert matrix.correct.tolist() == [
            [True, False, False],
            [True, True, False],
        ]
        # the constant-classifier floor still holds on fully flipped data
        prof = profile(matrix)
        for i, entry in enumerate(prof.entries):
            _, corrects = question_runs(matrix, i)
            p = Fraction(int(corrects.sum()), int(corrects.size))
            assert entry.c_star >= max(p, 1 - p)

    def test_exact_recovery_with_straddling_lengths(self):
        taus = (4, 9, 33, INFINITE, 120)
        spec = OracleSpec(n=5, prompt_lengths=straddle_lengths(taus, 11), taus=taus)
        matrix, true_taus = generate(spec)
        prof = profile(matrix)
        assert tuple(e.tau_hat for e in prof.entries) == true_taus
        assert prof.c_bar == 1

    def test_scaled_lengths_rule(self):
        grid = scaled_lengths(base=[10, 20], multipliers=[1.0, 2.5])
        assert grid.tolist() == [[10, 20], [25, 50]]
        assert grid.dtype == np.int64

    def test_grid_lengths_are_one_shared_row(self):
        grid = grid_lengths([5, 15.9, 25])
        assert grid.shape == (1, 3) and grid.dtype == np.int64
        assert grid.tolist() == [[5, 15, 25]]


class TestLengthRulesMatchPerCellLoops:
    """The array builders against the one-call-per-cell rules they replaced."""

    @pytest.mark.parametrize("shuffle_seed", [None, 0, 7])
    @pytest.mark.parametrize("n_prompts", [2, 5, 31])
    def test_straddle_lengths_bit_identical(self, shuffle_seed, n_prompts):
        taus = random_spec(n=300, seed=3).taus
        got = straddle_lengths(taus, n_prompts, shuffle_seed=shuffle_seed)
        want = straddle_lengths_loop(taus, n_prompts, shuffle_seed=shuffle_seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_straddle_lengths_with_proxy_and_no_finite_taus(self):
        taus = (INFINITE, INFINITE)
        for proxy in (None, 7):
            got = straddle_lengths(taus, 4, infinite_proxy=proxy)
            assert np.array_equal(got, straddle_lengths_loop(taus, 4, infinite_proxy=proxy))

    def test_scaled_lengths_round_half_to_even(self):
        base, multipliers = [1, 3, 5, 7], [0.5, 1.5, 2.5, 0.1, 1.25]
        got = scaled_lengths(base, multipliers)
        assert np.array_equal(got, scaled_lengths_loop(base, multipliers))

    def test_random_spec_generates_the_same_matrix(self):
        spec = random_spec(n=200, seed=11, violation_rate=0.1)
        want = straddle_lengths_loop(spec.taus, 31, shuffle_seed=11)
        matrix, _ = generate(spec)
        assert np.array_equal(matrix.tokens, want)

    def test_first_negative_cell_is_reported(self):
        lengths = scaled_lengths(base=[1, 2, 3], multipliers=[1.0, 1.0, -1.0, -2.0])
        spec = OracleSpec(n=4, prompt_lengths=lengths, taus=(2, 2, 2, 2))
        with pytest.raises(GenerationError, match=r"holds -1 at cell \(2, 0\)"):
            generate(spec)

    def test_a_shared_row_is_checked_in_every_row(self):
        spec = OracleSpec(n=3, prompt_lengths=grid_lengths([4, -7]), taus=(2, 2, 2))
        with pytest.raises(GenerationError, match=r"holds -7 at cell \(0, 1\)"):
            generate(spec)


class TestTausSidecar:
    def test_round_trip(self, tmp_path):
        taus = (5, INFINITE, 12)
        qids = ("q0", "q1", "q2")
        path = tmp_path / "taus.json"
        save_taus(taus, qids, path)
        loaded = load_taus(path)
        assert loaded == {"q0": 5, "q1": INFINITE, "q2": 12}
        assert math.isinf(loaded["q1"])

    def test_taus_past_2_pow_53_load_exactly(self, tmp_path):
        big = 2**53 + 1
        path = tmp_path / "taus.json"
        save_taus((big, 2**63 - 1), ("q", "r"), path)
        assert '"q": 9007199254740993' in path.read_text(encoding="utf-8")
        loaded = load_taus(path)
        assert loaded == {"q": big, "r": 2**63 - 1}
        assert type(loaded["q"]) is int


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 600) | st.floats()
    | st.sampled_from([2**63 - 1, 2**63]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
TAU_RULE = "must be null or an integer in [0, 9223372036854775807]"
VALID_TAUS = st.none() | st.integers(0, 600) | st.just(2**63 - 1)


@st.composite
def sidecar_mutations(draw):
    """A valid taus sidecar with one to three random edits.

    Half the examples only set values from the valid range, which often
    keeps the file valid.
    """
    obj = {"taus": {"q0": 5, "q1": None, "q2": 12}}
    valid_only = draw(st.booleans())
    edits = ["set"] if valid_only else ["set", "delete", "add", "retype_taus", "retype_file"]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(edits))
        if kind == "retype_file":
            obj = draw(JSON_VALUES)
        elif not isinstance(obj, dict) or not isinstance(obj.get("taus"), dict):
            continue
        elif kind == "retype_taus":
            obj["taus"] = draw(JSON_VALUES)
        elif kind == "delete" and obj["taus"]:
            obj["taus"].pop(draw(st.sampled_from(sorted(obj["taus"]))))
        elif kind == "add":
            obj["taus"][draw(st.text(max_size=2))] = draw(JSON_VALUES)
        elif kind == "set":
            qid = draw(st.sampled_from(["q0", "q1", "q2", ""]) if not valid_only
                       else st.sampled_from(["q0", "q1", "q2", "q3"]))
            obj["taus"][qid] = draw(VALID_TAUS if valid_only else JSON_VALUES)
    return obj


class TestTausSidecarChecks:
    @settings(max_examples=300, deadline=None)
    @given(obj=sidecar_mutations())
    def test_every_mutation_loads_equal_or_is_a_data_error(self, obj):
        want = taus_from_file_loop(obj)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "taus.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            if want is None:
                with pytest.raises(RecordSchemaError) as exc:
                    load_taus(path)
                assert str(exc.value).startswith(f"{path}: ")
            else:
                got = load_taus(path)
                assert got == want
                assert all(type(t) is (float if t == INFINITE else int) for t in got.values())

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"taus": [1]}, "taus must be an object, got [1]"),
            ({"taus": {"q1": "7"}}, f"taus.q1 {TAU_RULE}, got '7'"),
            ({"taus": {"q1": True}}, f"taus.q1 {TAU_RULE}, got True"),
            ({"taus": {"q1": 7.0}}, f"taus.q1 {TAU_RULE}, got 7.0"),
            ({"taus": {"q1": -1}}, f"taus.q1 {TAU_RULE}, got -1"),
            ({"taus": {"": 1}}, "taus keys must be non-empty strings, got ''"),
            ({}, "taus is missing"),
            ([], "the file must hold a JSON object, got []"),
        ],
    )
    def test_bad_value_names_its_location(self, tmp_path, obj, message):
        path = tmp_path / "taus.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(RecordSchemaError) as exc:
            load_taus(path)
        assert str(exc.value) == f"{path}: {message}"


class TestSpecValidation:
    def test_tau_count_must_match(self):
        with pytest.raises(ValueError):
            OracleSpec(n=2, prompt_lengths=grid_lengths([5]), taus=(10,))

    def test_violation_rate_range(self):
        with pytest.raises(ValueError):
            OracleSpec(n=1, prompt_lengths=grid_lengths([5]), taus=(10,), violation_rate=1.5)

    def test_finite_taus_must_be_positive_integers(self):
        with pytest.raises(ValueError):
            OracleSpec(n=1, prompt_lengths=grid_lengths([5]), taus=(0,))

    @pytest.mark.parametrize("lengths", [[5, 15], [[5, 15]] * 2, np.zeros((1, 2, 1))])
    def test_lengths_must_be_one_row_or_one_per_question(self, lengths):
        with pytest.raises(ValueError, match="prompt_lengths must be"):
            OracleSpec(n=3, prompt_lengths=lengths, taus=(10, 20, 30))


class TestSpecArray:
    def test_lengths_are_read_only_int64_truncated_toward_zero(self):
        spec = OracleSpec(n=2, prompt_lengths=[[1.9, -0.5, 7.0]], taus=(2, 3))
        assert spec.prompt_lengths.dtype == np.int64
        assert spec.prompt_lengths.tolist() == [[1, 0, 7]]
        with pytest.raises(ValueError):
            spec.prompt_lengths[0, 0] = 3

    def test_equality_and_hash_do_not_raise(self):
        spec = random_spec(n=5, seed=1)
        same = spec
        assert spec == same and not spec != same
        assert spec != random_spec(n=5, seed=1)
        assert spec != "spec"
        assert hash(spec) == hash(same)
        assert len({spec, random_spec(n=5, seed=1)}) == 2

    def test_replace_keeps_the_lengths(self):
        spec = random_spec(n=5, seed=1)
        renamed = dataclasses.replace(spec, model="m2")
        assert np.array_equal(renamed.prompt_lengths, spec.prompt_lengths)
        assert generate(renamed)[0].tokens.tolist() == generate(spec)[0].tokens.tolist()
