from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget.bounds import alpha_star, frontier, lossless_bound, t_star
from cotbudget.complexity import INFINITE, ComplexityProfile, profile
from cotbudget.errors import InfeasibleAccuracyError

from conftest import make_matrix


def profile_from_taus(taus, model="m", dataset="d") -> ComplexityProfile:
    """Minimal profile wrapper: bounds only read taus and n."""
    n = len(taus)
    return ComplexityProfile(
        model=model,
        dataset=dataset,
        question_ids=tuple(f"q{i:03d}" for i in range(n)),
        tau=[-1 if math.isinf(t) else int(t) for t in taus],
        k_used=[1] * n,
        c_star=(Fraction(1),) * n,
        c_bar=Fraction(1),
    )


def subset_enumeration_alpha(taus, budget):
    """Exhaustive knapsack oracle: best |S|/n over subsets fitting the average budget."""
    finite = [int(t) for t in taus if not math.isinf(t)]
    n = len(taus)
    best = 0
    for size in range(len(finite), -1, -1):
        for combo in itertools.combinations(finite, size):
            if Fraction(sum(combo), n) <= budget:
                best = size
                break
        if best:
            break
    return Fraction(best, n)


REFERENCE = profile_from_taus([10, 20, 30, INFINITE])

taus_strategy = st.lists(
    st.one_of(st.integers(min_value=1, max_value=60), st.just(INFINITE)),
    min_size=1,
    max_size=12,
)


class TestAlphaStar:
    def test_partial_budget(self):
        assert alpha_star(REFERENCE, 8) == Fraction(1, 2)

    def test_zero_budget(self):
        assert alpha_star(REFERENCE, 0) == 0

    def test_budget_covering_all_finite(self):
        assert alpha_star(REFERENCE, 15) == Fraction(3, 4)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            alpha_star(REFERENCE, -1)

    @settings(max_examples=200)
    @given(taus=taus_strategy, budget_num=st.integers(min_value=0, max_value=300))
    def test_matches_subset_enumeration(self, taus, budget_num):
        budget = Fraction(budget_num, 4)
        assert alpha_star(profile_from_taus(taus), budget) == subset_enumeration_alpha(
            taus, budget
        )


class TestTStar:
    def test_half(self):
        assert t_star(REFERENCE, Fraction(1, 2)) == Fraction(15, 2)

    def test_zero(self):
        assert t_star(REFERENCE, 0) == 0

    def test_above_a_star_infeasible(self):
        with pytest.raises(InfeasibleAccuracyError) as exc:
            t_star(REFERENCE, Fraction(4, 5))
        assert exc.value.a_star == Fraction(3, 4)

    @given(taus=taus_strategy, num=st.integers(min_value=0, max_value=100))
    def test_weak_duality(self, taus, num):
        prof = profile_from_taus(taus)
        alpha = Fraction(num, 100) * prof.a_star
        spend = t_star(prof, alpha)
        assert alpha_star(prof, spend) >= alpha

    @given(taus=taus_strategy, budget=st.integers(min_value=0, max_value=400))
    def test_dual_weak_duality(self, taus, budget):
        prof = profile_from_taus(taus)
        achieved = alpha_star(prof, budget)
        assert t_star(prof, achieved) <= budget


class TestMonotonicityAndScaling:
    @given(taus=taus_strategy, b1=st.integers(0, 200), b2=st.integers(0, 200))
    def test_alpha_star_monotone(self, taus, b1, b2):
        prof = profile_from_taus(taus)
        lo, hi = sorted((b1, b2))
        assert alpha_star(prof, lo) <= alpha_star(prof, hi)

    @given(taus=taus_strategy, n1=st.integers(0, 50), n2=st.integers(0, 50))
    def test_t_star_monotone(self, taus, n1, n2):
        prof = profile_from_taus(taus)
        lo, hi = sorted((n1, n2))
        assert t_star(prof, Fraction(lo, 50) * prof.a_star) <= t_star(
            prof, Fraction(hi, 50) * prof.a_star
        )

    @given(taus=taus_strategy, c=st.integers(min_value=1, max_value=9))
    def test_scale_covariance(self, taus, c):
        scaled = [t if math.isinf(t) else c * int(t) for t in taus]
        base = frontier(profile_from_taus(taus)).breakpoints
        scaled_bp = frontier(profile_from_taus(scaled)).breakpoints
        assert scaled_bp == tuple((c * t, a) for t, a in base)


class TestLosslessBound:
    def test_reference(self):
        assert lossless_bound(REFERENCE) == (Fraction(3, 4), 15)

    def test_all_infinite(self):
        prof = profile_from_taus([INFINITE, INFINITE])
        assert lossless_bound(prof) == (0, 0)

    def test_matches_t_star_at_a_star(self):
        a_star_val, t_lossless = lossless_bound(REFERENCE)
        assert t_star(REFERENCE, a_star_val) == t_lossless


class TestFrontier:
    def test_reference_breakpoints(self):
        curve = frontier(REFERENCE)
        assert curve.breakpoints == (
            (Fraction(5, 2), Fraction(1, 4)),
            (Fraction(15, 2), Fraction(1, 2)),
            (Fraction(15), Fraction(3, 4)),
        )

    def test_single_question(self):
        curve = frontier(profile_from_taus([7]))
        assert curve.breakpoints == ((7, 1),)

    def test_terminal_alpha_is_a_star(self):
        curve = frontier(REFERENCE)
        assert curve.breakpoints[-1][1] == curve.a_star
        assert curve.breakpoints[-1][0] == curve.t_lossless

    @given(taus=taus_strategy)
    def test_step_function_consistency(self, taus):
        prof = profile_from_taus(taus)
        curve = frontier(prof)
        alphas = [a for _, a in curve.breakpoints]
        assert alphas == sorted(alphas)
        budgets = [t for t, _ in curve.breakpoints]
        assert budgets == sorted(budgets)
        assert len(set(budgets)) == len(budgets)
        for t, a in curve.breakpoints:
            assert curve.alpha_at(t) == a
            assert alpha_star(prof, t) == a

    @given(taus=taus_strategy, budget=st.integers(min_value=0, max_value=200))
    def test_alpha_at_matches_alpha_star(self, taus, budget):
        prof = profile_from_taus(taus)
        assert frontier(prof).alpha_at(budget) == alpha_star(prof, budget)


class TestLargeTaus:
    """Prefix sums past 2^63 stay exact: they are Python ints, not int64."""

    @given(
        offsets=st.lists(st.integers(0, 2**62 - 1), min_size=2, max_size=2),
        infinite=st.integers(0, 2),
    )
    def test_t_star_and_frontier_exact_near_2_pow_62(self, offsets, infinite):
        taus = [2**62 + offsets[0], 2**62 + offsets[1]] + [INFINITE] * infinite
        prof = profile_from_taus(taus)
        n = len(taus)
        low, high = sorted(2**62 + o for o in offsets)
        assert prof.sorted_finite_taus == (low, high)
        assert prof.tau_prefix_sums == (low, low + high)
        assert t_star(prof, Fraction(2, n)) == Fraction(low + high, n)
        assert t_star(prof, Fraction(1, n)) == Fraction(low, n)
        assert lossless_bound(prof) == (Fraction(2, n), Fraction(low + high, n))
        want = [(Fraction(low, n), Fraction(1, n)), (Fraction(low + high, n), Fraction(2, n))]
        assert list(frontier(prof).breakpoints) == want
        assert alpha_star(prof, Fraction(low + high, n)) == Fraction(2, n)
        assert alpha_star(prof, Fraction(low + high - 1, n)) == Fraction(1, n)

    def test_profile_of_a_matrix_with_large_lengths(self):
        big = 2**63 - 1
        m = make_matrix([[big - 1, big], [big, big]], [[False, True], [True, True]])
        prof = profile(m)
        assert prof.tau.tolist() == [big, big]
        assert t_star(prof, 1) == big
        assert frontier(prof).breakpoints == ((Fraction(big, 2), Fraction(1, 2)), (big, 1))
