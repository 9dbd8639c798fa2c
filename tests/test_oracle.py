from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from cotbudget.complexity import INFINITE, profile
from cotbudget.errors import GenerationError
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

from loop_oracles import scaled_lengths_loop, straddle_lengths_loop


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
            _, corrects = matrix.question_runs(i)
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
        rule = scaled_lengths(base=[10, 20], multipliers=[1.0, 2.5])
        grid = rule.materialize(2)
        assert grid.tolist() == [[10, 20], [25, 50]]


class TestLengthRulesMatchPerCellLoops:
    """Array rules against the one-call-per-cell rules they replaced."""

    @pytest.mark.parametrize("shuffle_seed", [None, 0, 7])
    @pytest.mark.parametrize("n_prompts", [2, 5, 31])
    def test_straddle_lengths_bit_identical(self, shuffle_seed, n_prompts):
        taus = random_spec(n=300, seed=3).taus
        rule = straddle_lengths(taus, n_prompts, shuffle_seed=shuffle_seed)
        want = straddle_lengths_loop(taus, n_prompts, shuffle_seed=shuffle_seed)
        assert np.array_equal(rule.materialize(len(taus)), want)

    def test_straddle_lengths_with_proxy_and_no_finite_taus(self):
        taus = (INFINITE, INFINITE)
        for proxy in (None, 7):
            got = straddle_lengths(taus, 4, infinite_proxy=proxy).materialize(2)
            assert np.array_equal(got, straddle_lengths_loop(taus, 4, infinite_proxy=proxy))

    def test_scaled_lengths_round_half_to_even(self):
        base, multipliers = [1, 3, 5, 7], [0.5, 1.5, 2.5, 0.1, 1.25]
        got = scaled_lengths(base, multipliers).materialize(len(multipliers))
        assert np.array_equal(got, scaled_lengths_loop(base, multipliers))

    def test_random_spec_generates_the_same_matrix(self):
        spec = random_spec(n=200, seed=11, violation_rate=0.1)
        want = straddle_lengths_loop(spec.taus, 31, shuffle_seed=11)
        matrix, _ = generate(spec)
        assert np.array_equal(matrix.tokens, want)

    def test_first_negative_cell_is_reported(self):
        rule = scaled_lengths(base=[1, 2, 3], multipliers=[1.0, 1.0, -1.0, -2.0])
        with pytest.raises(GenerationError, match=r"produced -1 at cell \(2, 0\)"):
            rule.materialize(4)


class TestTausSidecar:
    def test_round_trip(self, tmp_path):
        taus = (5, INFINITE, 12)
        qids = ("q0", "q1", "q2")
        path = tmp_path / "taus.json"
        save_taus(taus, qids, path)
        loaded = load_taus(path)
        assert loaded == {"q0": 5, "q1": INFINITE, "q2": 12}
        assert math.isinf(loaded["q1"])


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
