from __future__ import annotations

import dataclasses
import json
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget.complexity import INFINITE, profile
from cotbudget.errors import GenerationError
from cotbudget.inputs import TOKENS_MAX
from cotbudget.oracle import (
    OracleSpec,
    generate,
    random_spec,
    straddle_lengths,
    save_taus,
)

from loop_oracles import (
    check_taus_loop,
    generate_loop,
    question_runs,
    random_spec_loop,
    straddle_lengths_loop,
)


class TestGenerate:
    def test_indicator_correctness(self):
        # fixed per-question lengths (5, 15, 25) against taus (10, 20, inf)
        spec = OracleSpec(
            n=3,
            prompt_lengths=[[5, 15, 25]],
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

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 100, 101])
    def test_ids_are_padded_as_the_format_spec_pads_them(self, n):
        """n questions and n + 1 prompts, so both widths cross a power of ten."""
        spec = OracleSpec(n=n, prompt_lengths=[[0] + [20] * n], taus=(10,) * n)
        matrix, _ = generate(spec)
        qw, pw = len(str(n - 1)), len(str(n))
        assert matrix.question_ids == tuple(f"q{i:0{qw}d}" for i in range(n))
        assert matrix.prompt_ids == tuple(f"p{k:0{pw}d}" for k in range(n + 1))

    def test_straddle_violation_rejected(self):
        spec = OracleSpec(
            n=1,
            prompt_lengths=[[50, 60]],  # nothing below tau
            taus=(10,),
        )
        with pytest.raises(GenerationError):
            generate(spec)

    def test_all_below_rejected(self):
        spec = OracleSpec(
            n=1,
            prompt_lengths=[[1, 2]],
            taus=(10,),
        )
        with pytest.raises(GenerationError):
            generate(spec)

    def test_violation_rate_one_negates_indicator(self):
        spec = OracleSpec(
            n=2,
            prompt_lengths=[[5, 15, 25]],
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

    def test_shared_row_is_one_read_only_int64_row(self):
        spec = OracleSpec(n=2, prompt_lengths=[[5, 15.9, 25]], taus=(10, 20))
        lengths = spec.prompt_lengths
        assert lengths.shape == (1, 3) and lengths.dtype == np.int64
        assert lengths.tolist() == [[5, 15, 25]]
        assert not lengths.flags.writeable


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

    def test_straddle_lengths_with_no_finite_taus(self):
        taus = (INFINITE, INFINITE)
        assert np.array_equal(straddle_lengths(taus, 4), straddle_lengths_loop(taus, 4))

    def test_random_spec_generates_the_same_matrix(self):
        spec = random_spec(n=200, seed=11, violation_rate=0.1)
        want = straddle_lengths_loop(spec.taus, 31, shuffle_seed=11)
        matrix, _ = generate(spec)
        assert np.array_equal(matrix.tokens, want)

    def test_first_negative_cell_is_reported(self):
        lengths = [[1, 2, 3], [1, 2, 3], [-1, -2, -3], [-2, -4, -6]]
        spec = OracleSpec(n=4, prompt_lengths=lengths, taus=(2, 2, 2, 2))
        with pytest.raises(GenerationError, match=r"holds -1 at cell \(2, 0\)"):
            generate(spec)

    def test_a_shared_row_is_checked_in_every_row(self):
        spec = OracleSpec(n=3, prompt_lengths=[[4, -7]], taus=(2, 2, 2))
        with pytest.raises(GenerationError, match=r"holds -7 at cell \(0, 1\)"):
            generate(spec)



def outcome(build, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 (the exception is the outcome compared)
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
    else:
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


# Taus at the edges of the rule (2**53 is the largest straddle_lengths can
# anchor), and taus it rejects: floats, even integral ones, Fractions,
# Decimals, numpy scalars, bools, -inf, NaN, zero, negatives, ints past
# TOKENS_MAX, and values that are not numbers at all.
GOOD_EDGE_TAUS = [1, 2**53, 2**53 + 1, 2**62, TOKENS_MAX, INFINITE, float("inf")]
BAD_TAUS = [
    0, -1, -(2**63), TOKENS_MAX + 1, 10**400, 5.0, 2.0**53, -0.0, Fraction(5), Fraction(7, 2),
    Decimal(5), np.int64(5), np.float64(INFINITE), True, False, -INFINITE, math.nan, "5", None,
]
EDGE_TAUS = GOOD_EDGE_TAUS + BAD_TAUS
ANY_TAUS = st.lists(
    st.integers(1, 2**53) | st.just(INFINITE) | st.integers(-(2**64), 2**64)
    | st.sampled_from(EDGE_TAUS),
    min_size=1,
    max_size=30,
)


@st.composite
def specs_with_near_lengths(draw):
    """An OracleSpec of valid taus up to TOKENS_MAX whose lengths sit at and
    beside each finite tau, or anywhere in [0, TOKENS_MAX]."""
    taus = draw(st.lists(
        st.integers(1, TOKENS_MAX) | st.sampled_from([2**53 + 1, TOKENS_MAX, INFINITE]),
        min_size=1,
        max_size=8,
    ))
    n_prompts = draw(st.integers(1, 6))
    rows = []
    for tau in taus:
        near = st.integers(-2, 2).map(lambda d, t=tau: min(max(t + d, 0), TOKENS_MAX))
        cell = st.integers(0, TOKENS_MAX) if tau == INFINITE else near | st.integers(0, TOKENS_MAX)
        rows.append(draw(st.lists(cell, min_size=n_prompts, max_size=n_prompts)))
    return OracleSpec(n=len(taus), prompt_lengths=rows, taus=taus)


class TestGeneratorMatchesLoopOracles:
    """random_spec, straddle_lengths, OracleSpec and generate against the
    one-call-per-question and one-call-per-cell code: the same values, types
    and errors."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 500),
        seed=st.integers(0, 2**64),
        n_prompts=st.integers(2, 64),
        violation_rate=st.floats(0, 1),
    )
    def test_random_spec_and_generate(self, n, seed, n_prompts, violation_rate):
        got = random_spec(n, seed, violation_rate, n_prompts)
        want = random_spec_loop(n, seed, violation_rate, n_prompts)
        assert got.taus == want.taus
        assert all(type(t) is int or t is INFINITE for t in got.taus)
        assert_same_outcome(got.prompt_lengths, want.prompt_lengths)
        matrix, taus = generate(got)
        tokens, correct = generate_loop(want)
        assert taus == want.taus
        assert np.array_equal(matrix.tokens, tokens)
        assert np.array_equal(matrix.correct, correct)

    @settings(max_examples=300, deadline=None)
    @given(
        taus=ANY_TAUS,
        n_prompts=st.integers(2, 64),
        shuffle_seed=st.none() | st.integers(0, 2**64),
    )
    def test_straddle_lengths_of_any_taus(self, taus, n_prompts, shuffle_seed):
        assert_same_outcome(
            outcome(straddle_lengths, taus, n_prompts, shuffle_seed),
            outcome(straddle_lengths_loop, taus, n_prompts, shuffle_seed),
        )

    @settings(max_examples=300, deadline=None)
    @given(taus=ANY_TAUS)
    def test_spec_accepts_and_rejects_as_the_loop(self, taus):
        got = outcome(OracleSpec, len(taus), [[1, 2]], taus)
        want = outcome(check_taus_loop, taus)
        assert (got if isinstance(got, tuple) else None) == want

    @settings(max_examples=200, deadline=None)
    @given(spec=specs_with_near_lengths(), violation_rate=st.sampled_from([0.0, 0.3]))
    def test_generate_compares_exactly(self, spec, violation_rate):
        spec = dataclasses.replace(spec, violation_rate=violation_rate)
        try:
            tokens, correct = generate_loop(spec)
        except GenerationError as exc:
            with pytest.raises(GenerationError) as got:
                generate(spec)
            assert str(got.value) == str(exc)
            return
        matrix, taus = generate(spec)
        assert taus is spec.taus
        assert np.array_equal(matrix.tokens, tokens)
        assert np.array_equal(matrix.correct, correct)

    @pytest.mark.parametrize("tau", EDGE_TAUS, ids=lambda t: repr(t)[:24])
    def test_each_edge_tau(self, tau):
        taus = [tau, 5, INFINITE]
        for shuffle_seed in (None, 3):
            assert_same_outcome(
                outcome(straddle_lengths, taus, 4, shuffle_seed),
                outcome(straddle_lengths_loop, taus, 4, shuffle_seed),
            )
        got = outcome(OracleSpec, 3, [[1, 2]], taus)
        assert (got if isinstance(got, tuple) else None) == outcome(check_taus_loop, taus)


class TestExactTaus:
    """A finite tau is an exact Python int, compared as one; every other tau is refused."""

    def test_a_tau_past_2_pow_53_is_compared_exactly(self):
        spec = OracleSpec(n=1, prompt_lengths=[[2**52, 2**53, 2**54]], taus=(2**53 + 1,))
        assert generate(spec)[0].correct.tolist() == [[False, False, True]]

    def test_profile_recovers_a_tau_past_2_pow_53(self):
        tau = 2**53 + 1
        spec = OracleSpec(n=1, prompt_lengths=[[tau - 1, tau, tau + 1]], taus=(tau,))
        matrix, taus = generate(spec)
        assert matrix.correct.tolist() == [[False, True, True]]
        assert profile(matrix).tau.tolist() == [tau] and taus == (tau,)

    def test_straddle_lengths_names_a_tau_past_2_pow_53(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"at most 2\*\*53, got 4611686018427387904$"):
                straddle_lengths([2**62], 3)
            with pytest.raises(ValueError, match=r"got 9007199254740993$"):
                straddle_lengths([5, INFINITE, 2**53 + 1, 2**62], 3)

    def test_straddle_lengths_anchors_2_pow_53_exactly(self):
        lengths = straddle_lengths([2**53, INFINITE], 3)
        assert lengths.tolist() == [[2**51, 2**53, 2**54], [2**52, 2**54, 2**55]]

    @pytest.mark.parametrize("bad", BAD_TAUS, ids=lambda t: repr(t)[:24])
    def test_first_bad_tau_is_named(self, bad, tmp_path):
        message = rf"^taus must be integers in \[1, {TOKENS_MAX}\] or INFINITE, got {re.escape(repr(bad))}$"
        taus = (4, INFINITE, bad, 0)
        with pytest.raises(ValueError, match=message):
            OracleSpec(n=4, prompt_lengths=[[1, 2]], taus=taus)
        with pytest.raises(ValueError, match=message):
            straddle_lengths(taus, 3)
        with pytest.raises(ValueError, match=message):
            save_taus(taus, ("q0", "q1", "q2", "q3"), tmp_path / "taus.json")
        assert not (tmp_path / "taus.json").exists()


class CountingGenerator:
    """A Generator that logs the name of every method called on it."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def logged(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return logged


class TestOneGeneratorCallPerQuantity:
    @pytest.mark.parametrize("n", [7, 2000])
    def test_random_spec_calls_do_not_grow_with_n(self, monkeypatch, n):
        calls = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed=None: CountingGenerator(default_rng(seed), calls)
        )
        random_spec(n=n, seed=3)
        assert calls == ["integers", "choice", "permuted"]

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_question_is_refused(self, n):
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {n}$"):
            random_spec(n=n)


class TestTausSidecar:
    def test_round_trip(self, tmp_path):
        taus = (5, INFINITE, 12)
        qids = ("q0", "q1", "q2")
        path = tmp_path / "taus.json"
        save_taus(taus, qids, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == {"taus": {"q0": 5, "q1": None, "q2": 12}}

    def test_taus_past_2_pow_53_load_exactly(self, tmp_path):
        big = 2**53 + 1
        path = tmp_path / "taus.json"
        save_taus((big, 2**63 - 1), ("q", "r"), path)
        assert '"q": 9007199254740993' in path.read_text(encoding="utf-8")
        loaded = json.loads(path.read_text(encoding="utf-8"))["taus"]
        assert loaded == {"q": big, "r": 2**63 - 1}
        assert type(loaded["q"]) is int


class TestTausSidecarRefusals:
    """save_taus writes every tau or none: never a silent truncation."""

    @pytest.mark.parametrize("taus, question_ids, message", [
        ((5, 7, INFINITE), ("q0", "q1"), "3 taus for 2 question ids"),
        ((5,), ("q0", "q1"), "1 taus for 2 question ids"),
        ((5, 7), ("q0", "q0"), "question ids must not repeat"),
    ])
    def test_refused_before_the_file_is_opened(self, tmp_path, taus, question_ids, message):
        path = tmp_path / "taus.json"
        path.write_text("kept\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            save_taus(taus, question_ids, path)
        assert path.read_text(encoding="utf-8") == "kept\n"


class TestSpecValidation:
    def test_tau_count_must_match(self):
        with pytest.raises(ValueError):
            OracleSpec(n=2, prompt_lengths=[[5]], taus=(10,))

    def test_violation_rate_range(self):
        with pytest.raises(ValueError):
            OracleSpec(n=1, prompt_lengths=[[5]], taus=(10,), violation_rate=1.5)

    def test_finite_taus_must_be_positive_integers(self):
        with pytest.raises(ValueError):
            OracleSpec(n=1, prompt_lengths=[[5]], taus=(0,))

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
