from __future__ import annotations

import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget.bounds import frontier
from cotbudget.complexity import INFINITE, profile
from cotbudget.errors import CoverageError
from cotbudget.metrics import prompt_table
from cotbudget.oracle import OracleSpec, generate, straddle_lengths
from cotbudget.routing import (
    budget_route,
    compare_to_frontier,
    verifier_cascade,
    verifier_route,
)

from conftest import make_matrix, run_matrices
from loop_oracles import budget_route_loop, verifier_cascade_loop


class TestVerifierRoute:
    def test_two_question_hand_computation(self):
        # q0: base solves at 5 tokens; q1: base fails at 6, fallback solves at 100
        m = make_matrix(
            [[5, 80], [6, 100]],
            [[True, True], [False, True]],
        )
        out = verifier_route(m, "p00", "p01")
        assert out.accuracy == 1
        assert out.avg_tokens == Fraction(111, 2)  # (5 + 106) / 2
        assert out.per_question[0].tokens_spent == 5
        assert out.per_question[1].tokens_spent == 106
        assert out.per_question[1].path == ("p00", "p01")

    def test_all_base_correct_equals_base_prompt(self):
        m = make_matrix([[5, 80], [6, 100]], [[True, True], [True, True]])
        out = verifier_route(m, "p00", "p01")
        base_row = prompt_table(m, profile(m))[0]
        assert out.accuracy == base_row.accuracy
        assert out.avg_tokens == base_row.avg_tokens

    def test_degenerate_fallback(self):
        # fallback == base: accuracy unchanged, failed questions pay double
        m = make_matrix([[5, 5], [6, 6]], [[True, True], [False, False]])
        out = verifier_route(m, "p00", "p01")
        assert out.accuracy == Fraction(1, 2)
        assert out.avg_tokens == Fraction(5 + 12, 2)

    def test_missing_cell_is_coverage_error(self):
        m = make_matrix(
            [[5, 80]], [[False, True]], present=[[True, False]]
        )
        with pytest.raises(CoverageError):
            verifier_route(m, "p00", "p01")

    def test_union_accuracy_identity(self, oracle_matrix):
        matrix, _ = oracle_matrix
        base, fallback = matrix.prompt_ids[0], matrix.prompt_ids[-1]
        out = verifier_route(matrix, base, fallback)
        b = matrix.prompt_index(base)
        f = matrix.prompt_index(fallback)
        union = np.count_nonzero(matrix.correct[:, b] | matrix.correct[:, f])
        assert out.accuracy == Fraction(int(union), matrix.n_questions)

    @settings(max_examples=50)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 50), st.booleans(), st.integers(0, 200), st.booleans()
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_closed_form_cost(self, data):
        tokens = [[b_t, f_t] for b_t, _, f_t, _ in data]
        correct = [[b_c, f_c] for _, b_c, _, f_c in data]
        m = make_matrix(tokens, correct)
        out = verifier_route(m, "p00", "p01")
        n = len(data)
        expected_cost = Fraction(
            sum(b_t + (0 if b_c else f_t) for b_t, b_c, f_t, _ in data), n
        )
        expected_acc = Fraction(sum(1 for _, b_c, _, f_c in data if b_c or f_c), n)
        assert out.avg_tokens == expected_cost
        assert out.accuracy == expected_acc
        # cost can only exceed the base prompt's, with equality iff base solves all
        base_cost = Fraction(sum(t[0] for t in tokens), n)
        assert out.avg_tokens >= base_cost
        if all(c[0] for c in correct):
            assert out.avg_tokens == base_cost


class TestVerifierCascade:
    def test_three_stage_fold(self):
        m = make_matrix(
            [[1, 10, 100], [1, 10, 100], [1, 10, 100]],
            [[True, True, True], [False, True, True], [False, False, True]],
        )
        out = verifier_cascade(m, ["p00", "p01", "p02"])
        assert out.accuracy == 1
        assert [r.tokens_spent for r in out.per_question] == [1, 11, 111]
        assert out.policy_id == "verifier(p00->p01->p02)"

    def test_empty_chain_rejected(self):
        m = make_matrix([[1]], [[True]])
        with pytest.raises(ValueError):
            verifier_cascade(m, [])


class TestBudgetRoute:
    def test_selects_longest_within_budget(self):
        m = make_matrix([[5, 40, 200]], [[False, True, True]])
        out = budget_route(m, {"q00": 60}, ["p00", "p01", "p02"])
        assert out.per_question[0].path == ("p01",)
        assert out.per_question[0].tokens_spent == 40

    def test_budget_below_everything_takes_shortest(self):
        m = make_matrix([[5, 40, 200]], [[False, True, True]])
        out = budget_route(m, {"q00": 2}, ["p00", "p01", "p02"])
        assert out.per_question[0].path == ("p00",)

    def test_huge_budget_takes_longest(self):
        m = make_matrix([[5, 40, 200]], [[False, True, True]])
        out = budget_route(m, {"q00": 10**9}, ["p00", "p01", "p02"])
        assert out.per_question[0].path == ("p02",)

    def test_unknown_questions_ignored_with_warning(self, caplog):
        m = make_matrix([[5, 40]], [[False, True]])
        with caplog.at_level(logging.WARNING):
            out = budget_route(m, {"q00": 50, "ghost": 10, "phantom": 9}, ["p00", "p01"])
        assert out.per_question[0].path == ("p01",)
        assert "2" in caplog.text

    def test_empty_family_rejected(self):
        m = make_matrix([[5]], [[True]])
        with pytest.raises(ValueError):
            budget_route(m, {}, [])

    def test_uniform_huge_budget_reproduces_longest_prompt(self):
        m = make_matrix(
            [[5, 40, 200], [6, 50, 300]],
            [[False, True, True], [False, False, True]],
        )
        budgets = {q: 10**6 for q in m.question_ids}
        out = budget_route(m, budgets, list(m.prompt_ids))
        longest = prompt_table(m, profile(m))[-1]
        assert out.accuracy == longest.accuracy
        assert out.avg_tokens == longest.avg_tokens


def _same_result(fn, oracle):
    """Both raise the same CoverageError, or both return equal outcomes."""
    try:
        want = oracle()
    except CoverageError as exc:
        with pytest.raises(CoverageError) as got:
            fn()
        assert str(got.value) == str(exc)
        return None
    got = fn()
    assert got == want
    return got


@st.composite
def cascades(draw):
    matrix = draw(run_matrices(max_questions=10, max_prompts=5, max_tokens=50, absent_share=0.1))
    chain = draw(st.lists(st.sampled_from(matrix.prompt_ids), min_size=1, max_size=4))
    return matrix, chain


@st.composite
def budget_cases(draw):
    matrix, family = draw(cascades())
    budget = st.integers(-5, 60)
    budgets = {q: draw(budget) for q in matrix.question_ids if draw(st.booleans())}
    for u in range(draw(st.integers(0, 3))):
        budgets[f"ghost{u}"] = draw(budget)
    return matrix, budgets, family


class TestRoutingMatchesLoopOracles:
    """Whole-column replays against the per-question loops they replaced."""

    @settings(max_examples=300)
    @given(case=cascades())
    def test_verifier_cascade(self, case):
        matrix, chain = case
        _same_result(
            lambda: verifier_cascade(matrix, chain), lambda: verifier_cascade_loop(matrix, chain)
        )

    @settings(max_examples=300)
    @given(case=budget_cases())
    def test_budget_route(self, case):
        matrix, budgets, family = case
        _same_result(
            lambda: budget_route(matrix, budgets, family),
            lambda: budget_route_loop(matrix, budgets, family)[0],
        )

    def test_absent_cell_after_the_stop_is_not_read(self):
        m = make_matrix(
            [[5, 80, 7], [6, 100, 9]],
            [[True, False, True], [False, True, False]],
            present=[[True, False, False], [True, True, False]],
        )
        out = verifier_cascade(m, ["p00", "p01", "p02"])
        assert out == verifier_cascade_loop(m, ["p00", "p01", "p02"])
        assert [r.path for r in out.per_question] == [("p00",), ("p00", "p01")]

    def test_first_reached_absent_cell_is_named(self):
        m = make_matrix(
            [[5, 80, 7], [6, 100, 9], [1, 1, 1]],
            [[False, False, True], [False, True, False], [False, False, False]],
            present=[[True, True, False], [True, False, False], [False, True, True]],
        )
        with pytest.raises(CoverageError, match="'q00' under prompt 'p02'"):
            verifier_cascade(m, ["p00", "p01", "p02"])

    def test_budget_ties_go_to_first_family_prompt(self):
        m = make_matrix([[40, 5, 40, 5]], [[False, True, True, False]])
        fitting = budget_route(m, {"q00": 50}, ["p00", "p01", "p02", "p03"])
        assert fitting.per_question[0].path == ("p00",)
        shortest = budget_route(m, {"q00": 1}, ["p00", "p01", "p02", "p03"])
        assert shortest.per_question[0].path == ("p01",)
        reordered = budget_route(m, {"q00": 50}, ["p02", "p00"])
        assert reordered.per_question[0].path == ("p02",)

    def test_budget_coverage_error_names_first_absent_family_cell(self):
        m = make_matrix(
            [[5, 40, 9], [6, 50, 8]],
            [[False, True, True], [False, False, True]],
            present=[[True, True, True], [True, False, False]],
        )
        with pytest.raises(CoverageError, match="'q01' under prompt 'p02'"):
            budget_route(m, {}, ["p00", "p02", "p01"])

    def test_unknown_budget_warning_count_matches_loop(self, caplog):
        m = make_matrix([[5, 40], [6, 50]], [[False, True], [True, True]])
        budgets = {"q00": 50, "ghost": 1, "q01": 2, "phantom": 3, "spectre": 4}
        with caplog.at_level(logging.WARNING, logger="cotbudget.routing"):
            budget_route(m, budgets, ["p00", "p01"])
        _, unknown = budget_route_loop(m, budgets, ["p00", "p01"])
        assert unknown == 3
        assert caplog.messages == [
            f"budget_route: ignored {unknown} budget(s) for unknown questions"
        ]


class TestCompareToFrontier:
    def test_gap_on_breakpoint_is_zero(self, oracle_matrix):
        matrix, _ = oracle_matrix
        prof = profile(matrix)
        curve = frontier(prof)
        t, alpha = curve.breakpoints[-1]
        fake = verifier_cascade(matrix, [matrix.prompt_ids[0]])
        on_curve = type(fake)(
            policy_id="ideal",
            accuracy=alpha,
            avg_tokens=t,
            per_question=(),
        )
        gaps = dict(compare_to_frontier([on_curve], curve))
        assert gaps["ideal"] == 0

    def test_gap_subtraction(self):
        m = make_matrix([[10, 10], [20, 20], [30, 30], [40, 40]],
                        [[True, True], [True, True], [True, True], [False, False]])
        prof = profile(m)
        curve = frontier(prof)
        out = verifier_route(m, "p00", "p01")
        (policy, gap), = compare_to_frontier([out], curve)
        assert gap == curve.alpha_at(out.avg_tokens) - out.accuracy

    def test_oracle_routing_gap_non_negative(self, oracle_matrix):
        matrix, _ = oracle_matrix
        prof = profile(matrix)
        curve = frontier(prof)
        outcomes = [
            verifier_route(matrix, matrix.prompt_ids[0], matrix.prompt_ids[-1]),
            verifier_route(matrix, matrix.prompt_ids[1], matrix.prompt_ids[-2]),
        ]
        for _, gap in compare_to_frontier(outcomes, curve):
            assert gap >= 0
