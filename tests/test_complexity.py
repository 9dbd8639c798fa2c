from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cotbudget import complexity
from cotbudget.complexity import (
    INFINITE,
    ComplexityProfile,
    classify_accuracy,
    estimate_tau,
    profile,
)
from cotbudget.errors import CoverageError
from cotbudget.oracle import OracleSpec, generate, straddle_lengths
from cotbudget.records import RunMatrix

from conftest import make_matrix, run_matrices
from loop_oracles import estimate_tau_loop, profile_loop

runs_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=400), st.booleans()),
    min_size=1,
    max_size=40,
)


def brute_force_best(lengths, corrects):
    """Independent scan: accuracy of every candidate threshold, computed directly."""
    candidates = sorted(set(lengths)) + [INFINITE]
    scored = []
    for t in candidates:
        hits = sum(
            1
            for length, ok in zip(lengths, corrects)
            if ok == (not math.isinf(t) and length >= t)
        )
        scored.append((t, Fraction(hits, len(lengths))))
    best_acc = max(acc for _, acc in scored)
    finite_best = [t for t, acc in scored if acc == best_acc and not math.isinf(t)]
    tau = min(finite_best) if finite_best else INFINITE
    return tau, best_acc


class TestClassifyAccuracy:
    def test_perfect_threshold(self):
        acc = classify_accuracy([5, 12, 20, 30, 50], [False, False, True, True, True], 20)
        assert acc == 1

    def test_infinite_threshold_predicts_all_incorrect(self):
        acc = classify_accuracy(
            [5, 12, 20, 30, 50], [False, False, True, True, True], INFINITE
        )
        assert acc == Fraction(2, 5)

    def test_threshold_at_min_predicts_all_correct(self):
        assert classify_accuracy([7, 9, 13], [True, True, True], 7) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_accuracy([], [], 5)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classify_accuracy([1, 2], [True], 5)


class TestEstimateTau:
    def test_clean_threshold(self):
        qc = estimate_tau([5, 12, 20, 30, 50], [False, False, True, True, True])
        assert qc.tau_hat == 20
        assert qc.c_star == 1

    def test_tie_breaks_to_smallest_threshold(self):
        qc = estimate_tau([5, 12, 20, 30], [True, False, True, True])
        assert qc.tau_hat == 5
        assert qc.c_star == Fraction(3, 4)

    def test_all_incorrect_is_infinite(self):
        qc = estimate_tau([5, 12], [False, False])
        assert math.isinf(qc.tau_hat)
        assert qc.c_star == 1

    def test_infinite_only_when_strictly_better(self):
        # t=9 classifies both runs perfectly, tying nothing: finite must win
        qc = estimate_tau([5, 9], [False, True])
        assert qc.tau_hat == 9

    @given(runs=runs_strategy)
    def test_matches_independent_scan(self, runs):
        lengths = [r[0] for r in runs]
        corrects = [r[1] for r in runs]
        qc = estimate_tau(lengths, corrects)
        tau, acc = brute_force_best(lengths, corrects)
        assert qc.tau_hat == tau
        assert qc.c_star == acc

    @given(runs=runs_strategy)
    def test_matches_loop_oracle(self, runs):
        lengths = [r[0] for r in runs]
        corrects = [r[1] for r in runs]
        assert estimate_tau(lengths, corrects, "q") == estimate_tau_loop(lengths, corrects, "q")

    def test_negative_lengths_rejected(self):
        with pytest.raises(ValueError):
            estimate_tau([3, -1], [True, False])

    @given(runs=runs_strategy, seed=st.randoms())
    def test_permutation_invariant(self, runs, seed):
        shuffled = list(runs)
        seed.shuffle(shuffled)
        a = estimate_tau([r[0] for r in runs], [r[1] for r in runs])
        b = estimate_tau([r[0] for r in shuffled], [r[1] for r in shuffled])
        assert (a.tau_hat, a.c_star) == (b.tau_hat, b.c_star)

    @given(runs=runs_strategy)
    def test_floor_property(self, runs):
        """c_star never drops below the better constant classifier."""
        lengths = [r[0] for r in runs]
        corrects = [r[1] for r in runs]
        qc = estimate_tau(lengths, corrects)
        p = Fraction(sum(corrects), len(corrects))
        assert qc.c_star >= max(p, 1 - p)

    @given(runs=runs_strategy, bump=st.integers(min_value=0, max_value=100))
    def test_adding_long_correct_run_never_hurts(self, runs, bump):
        lengths = [r[0] for r in runs]
        corrects = [r[1] for r in runs]
        before = estimate_tau(lengths, corrects)
        assume(not math.isinf(before.tau_hat))  # no length can reach an infinite threshold
        after = estimate_tau(lengths + [int(before.tau_hat) + bump], corrects + [True])
        assert after.c_star >= before.c_star


class TestProfile:
    def test_oracle_recovery(self, oracle_matrix):
        matrix, taus = oracle_matrix
        prof = profile(matrix)
        assert tuple(e.tau_hat for e in prof.entries) == taus
        assert prof.c_bar == 1
        assert prof.a_star == Fraction(2, 3)

    def test_single_question_aggregates(self):
        m = make_matrix(
            [[5, 12, 20, 30, 50]], [[False, False, True, True, True]]
        )
        prof = profile(m)
        assert prof.tau_bar_over_n == 20
        assert prof.tau_bar_finite_mean == 20

    def test_mixed_aggregates(self):
        spec = OracleSpec(
            n=4,
            prompt_lengths=straddle_lengths([10, 20, 30, INFINITE], 8),
            taus=(10, 20, 30, INFINITE),
        )
        matrix, _ = generate(spec)
        prof = profile(matrix)
        assert prof.a_star == Fraction(3, 4)
        assert prof.tau_bar_over_n == 15
        assert prof.tau_bar_finite_mean == 20

    def test_question_without_runs_is_coverage_error(self):
        m = make_matrix(
            [[5, 9], [4, 7]],
            [[True, True], [True, True]],
            present=[[True, True], [False, False]],
        )
        with pytest.raises(CoverageError) as exc:
            profile(m)
        assert "q01" in str(exc.value)

    def test_c_star_recomputable_from_runs(self, oracle_matrix):
        matrix, _ = oracle_matrix
        prof = profile(matrix)
        for i, entry in enumerate(prof.entries):
            lengths, corrects = matrix.question_runs(i)
            assert classify_accuracy(lengths, corrects, entry.tau_hat) == entry.c_star


class TestProfileMatchesLoopOracle:
    """The row-blocked kernel against the per-question loop it replaced."""

    @settings(max_examples=300)
    @given(matrix=run_matrices())
    def test_entries_and_aggregates_exactly_equal(self, matrix):
        got = profile(matrix)
        want = profile_loop(matrix)
        assert got.entries == want.entries
        for name in ("c_bar", "a_star", "tau_bar_over_n", "tau_bar_finite_mean"):
            assert getattr(got, name) == getattr(want, name)
        assert got == want

    @settings(max_examples=100)
    @given(matrix=run_matrices(max_questions=12), block=st.integers(1, 5))
    def test_block_size_does_not_matter(self, matrix, block):
        with mock.patch.object(complexity, "BLOCK_ROWS", block):
            blocked = profile(matrix)
        assert blocked == profile_loop(matrix)

    @settings(max_examples=100)
    @given(matrix=run_matrices(empty_rows=True, absent_share=0.6))
    def test_coverage_error_names_first_empty_question(self, matrix):
        empty = [q for i, q in enumerate(matrix.question_ids) if not matrix.present[i].any()]
        assume(empty)
        with mock.patch.object(complexity, "BLOCK_ROWS", 2):
            with pytest.raises(CoverageError) as got:
                profile(matrix)
        with pytest.raises(CoverageError) as want:
            profile_loop(matrix)
        assert str(got.value) == str(want.value)
        assert repr(empty[0]) in str(got.value)

    def test_finite_taus_cached_sorted_and_summed(self, oracle_matrix):
        matrix, _ = oracle_matrix
        prof = profile(matrix)
        assert prof.sorted_finite_taus == (10, 20)
        assert prof.tau_prefix_sums == (10, 30)
        assert prof.finite_taus() == [10, 20]


class TestProfileSerialization:
    def test_round_trip_taus_exact(self, oracle_matrix):
        matrix, taus = oracle_matrix
        prof = profile(matrix)
        loaded = ComplexityProfile.from_json_dict(prof.to_json_dict())
        assert tuple(e.tau_hat for e in loaded.entries) == taus
        assert loaded.a_star == prof.a_star
        assert loaded.tau_bar_over_n == prof.tau_bar_over_n
        assert loaded.tau_bar_finite_mean == prof.tau_bar_finite_mean

    def test_save_load(self, tmp_path, oracle_matrix):
        matrix, _ = oracle_matrix
        prof = profile(matrix)
        path = tmp_path / "complexity.json"
        prof.save(path)
        loaded = ComplexityProfile.load(path)
        assert [e.question_id for e in loaded.entries] == [
            e.question_id for e in prof.entries
        ]
