from __future__ import annotations

import dataclasses
import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget.bounds import frontier
from cotbudget.complexity import INFINITE, profile
from cotbudget.errors import CotBudgetError, CoverageError
from cotbudget.metrics import prompt_table
from cotbudget.oracle import OracleSpec, generate, straddle_lengths
from cotbudget.routing import (
    RoutingOutcome,
    budget_route,
    compare_to_frontier,
    verifier_cascade,
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
        out = verifier_cascade(m, ["p00", "p01"])
        assert out.accuracy == 1
        assert out.avg_tokens == Fraction(111, 2)  # (5 + 106) / 2
        assert out.spent.tolist() == [5, 106]
        assert out.path(1) == ("p00", "p01")

    def test_all_base_correct_equals_base_prompt(self):
        m = make_matrix([[5, 80], [6, 100]], [[True, True], [True, True]])
        out = verifier_cascade(m, ["p00", "p01"])
        base_row = prompt_table(m, profile(m))[0]
        assert out.accuracy == base_row.accuracy
        assert out.avg_tokens == base_row.avg_tokens

    def test_degenerate_fallback(self):
        # fallback == base: accuracy unchanged, failed questions pay double
        m = make_matrix([[5, 5], [6, 6]], [[True, True], [False, False]])
        out = verifier_cascade(m, ["p00", "p01"])
        assert out.accuracy == Fraction(1, 2)
        assert out.avg_tokens == Fraction(5 + 12, 2)

    def test_missing_cell_is_coverage_error(self):
        m = make_matrix(
            [[5, 80]], [[False, True]], present=[[True, False]]
        )
        with pytest.raises(CoverageError):
            verifier_cascade(m, ["p00", "p01"])

    def test_union_accuracy_identity(self, oracle_matrix):
        matrix, _ = oracle_matrix
        base, fallback = matrix.prompt_ids[0], matrix.prompt_ids[-1]
        out = verifier_cascade(matrix, [base, fallback])
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
        out = verifier_cascade(m, ["p00", "p01"])
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
        assert out.spent.tolist() == [1, 11, 111]
        assert out.policy_id == "verifier(p00->p01->p02)"

    def test_empty_chain_rejected(self):
        m = make_matrix([[1]], [[True]])
        with pytest.raises(ValueError):
            verifier_cascade(m, [])


class TestBudgetRoute:
    def test_selects_longest_within_budget(self):
        m = make_matrix([[5, 40, 200]], [[False, True, True]])
        out = budget_route(m, {"q00": 60}, ["p00", "p01", "p02"])
        assert out.path(0) == ("p01",)
        assert out.spent.tolist() == [40]

    def test_budget_below_everything_takes_shortest(self):
        m = make_matrix([[5, 40, 200]], [[False, True, True]])
        out = budget_route(m, {"q00": 2}, ["p00", "p01", "p02"])
        assert out.path(0) == ("p00",)

    def test_huge_budget_takes_longest(self):
        m = make_matrix([[5, 40, 200]], [[False, True, True]])
        out = budget_route(m, {"q00": 10**9}, ["p00", "p01", "p02"])
        assert out.path(0) == ("p02",)

    @pytest.mark.parametrize(
        "budgets, spent",
        [
            ({"q00": 2**62, "q01": 2**63}, [2**62, 2**62 + 1]),
            ({"q00": 2**62, "q01": 2**64}, [2**62, 2**62 + 1]),
            ({"q00": -(2**63) - 1, "q01": 2**62}, [2**62, 2**62]),
            ({"q00": -(2**70), "q01": 2**70}, [2**62, 2**62 + 1]),
        ],
    )
    def test_budgets_past_int64_compare_exactly(self, budgets, spent):
        m = make_matrix([[2**62, 2**62 + 1]] * 2, [[True, False]] * 2)
        out = budget_route(m, budgets, ["p00", "p01"])
        assert out.spent.tolist() == spent
        assert out == budget_route_loop(m, budgets, ["p00", "p01"])[0]

    def test_unknown_questions_ignored_with_warning(self, caplog):
        m = make_matrix([[5, 40]], [[False, True]])
        with caplog.at_level(logging.WARNING):
            out = budget_route(m, {"q00": 50, "ghost": 10, "phantom": 9}, ["p00", "p01"])
        assert out.path(0) == ("p01",)
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
    """Both raise the same CoverageError or ValueError, or both return equal outcomes."""
    try:
        want = oracle()
    except (CoverageError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
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
        assert [out.path(0), out.path(1)] == [("p00",), ("p00", "p01")]

    @pytest.mark.parametrize("chain", [["p00", "p00"], ["p00", "p01", "p00"]])
    def test_a_prompt_named_twice_is_refused(self, chain):
        """A second stage on the same prompt would charge its failed cell again."""
        m = make_matrix([[5, 80], [6, 100]], [[True, True], [False, True]])
        with pytest.raises(ValueError, match=f"names prompt '{chain[-1]}' twice"):
            verifier_cascade(m, chain)

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
        assert fitting.path(0) == ("p00",)
        shortest = budget_route(m, {"q00": 1}, ["p00", "p01", "p02", "p03"])
        assert shortest.path(0) == ("p01",)
        reordered = budget_route(m, {"q00": 50}, ["p02", "p00"])
        assert reordered.path(0) == ("p02",)

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


class TestOutcomeColumns:
    """spent, correct and path(i) of each policy against the per-question loops."""

    @staticmethod
    def _assert_same_routes(got, want, n):
        assert got.spent.dtype == np.int64
        assert got.correct.dtype == bool
        assert got.spent.tolist() == want.spent.tolist()
        assert got.correct.tolist() == want.correct.tolist()
        assert got.accuracy == Fraction(sum(want.correct.tolist()), n)
        assert got.avg_tokens == Fraction(sum(want.spent.tolist()), n)
        assert [got.path(i) for i in range(n)] == [want.path(i) for i in range(n)]

    @settings(max_examples=200)
    @given(case=cascades())
    def test_verifier_cascade(self, case):
        matrix, chain = case
        try:
            want = verifier_cascade_loop(matrix, chain)
        except (CoverageError, ValueError):
            return
        got = verifier_cascade(matrix, chain)
        self._assert_same_routes(got, want, matrix.n_questions)
        assert got.paths == tuple(tuple(chain[: s + 1]) for s in range(len(chain)))

    @settings(max_examples=200)
    @given(case=budget_cases())
    def test_budget_route(self, case):
        matrix, budgets, family = case
        try:
            want, _ = budget_route_loop(matrix, budgets, family)
        except CoverageError:
            return
        got = budget_route(matrix, budgets, family)
        self._assert_same_routes(got, want, matrix.n_questions)
        assert got.paths == tuple((p,) for p in family)

    def test_outcomes_differing_in_one_path_are_unequal(self):
        m = make_matrix([[5, 80], [6, 100]], [[True, True], [False, True]])
        out = verifier_cascade(m, ["p00", "p01"])
        swapped = dataclasses.replace(out, path_index=out.path_index[::-1])
        assert out != swapped
        assert out == dataclasses.replace(out, paths=out.paths + (("p09",),))

    def test_an_outcome_does_not_compare_with_another_type(self):
        out = verifier_cascade(make_matrix([[5, 80]], [[True, True]]), ["p00", "p01"])
        assert out.__eq__(out.spent) is NotImplemented
        assert out != "outcome"


class TestCompareToFrontier:
    def test_gap_on_breakpoint_is_zero(self, oracle_matrix):
        matrix, _ = oracle_matrix
        prof = profile(matrix)
        curve = frontier(prof)
        t, alpha = curve.breakpoints[-1]
        # Solve exactly the solvable questions, each at its complexity.
        on_curve = RoutingOutcome(
            "ideal", np.maximum(prof.tau, 0), prof.tau >= 0, (("oracle",),), np.zeros(3, int)
        )
        assert (on_curve.accuracy, on_curve.avg_tokens) == (alpha, t)
        gaps = dict(compare_to_frontier([on_curve], curve))
        assert gaps["ideal"] == 0

    def test_gap_subtraction(self):
        m = make_matrix([[10, 10], [20, 20], [30, 30], [40, 40]],
                        [[True, True], [True, True], [True, True], [False, False]])
        prof = profile(m)
        curve = frontier(prof)
        out = verifier_cascade(m, ["p00", "p01"])
        (policy, gap), = compare_to_frontier([out], curve)
        assert gap == curve.alpha_at(out.avg_tokens) - out.accuracy

    def test_oracle_routing_gap_non_negative(self, oracle_matrix):
        matrix, _ = oracle_matrix
        prof = profile(matrix)
        curve = frontier(prof)
        outcomes = [
            verifier_cascade(matrix, [matrix.prompt_ids[0], matrix.prompt_ids[-1]]),
            verifier_cascade(matrix, [matrix.prompt_ids[1], matrix.prompt_ids[-2]]),
        ]
        for _, gap in compare_to_frontier(outcomes, curve):
            assert gap >= 0


class TestCascadeSpendLimit:
    """A spend past 2**63 - 1 is a data error naming the question, never a wrapped total."""

    def test_two_huge_runs(self):
        m = make_matrix([[2**62, 2**62], [2**62, 2**62]], [[False, True], [True, True]])
        with pytest.raises(CotBudgetError, match=r"question 'q00' spends 9223372036854775808 "):
            verifier_cascade(m, ["p00", "p01"])

    def test_a_wrap_that_comes_back_positive_is_still_caught(self):
        # The int64 running total goes 2**62, -2**63, -2**62, 0, 2**62.
        m = make_matrix([[2**62] * 5], [[False] * 4 + [True]])
        with pytest.raises(CotBudgetError, match=r"'q00' spends 23058430092136939520 "):
            verifier_cascade(m, [f"p0{j}" for j in range(5)])

    def test_largest_spend_and_unread_cells_pass(self):
        m = make_matrix([[2**62, 2**62 - 1, 2**62], [5, 2**63 - 1, 2**63 - 1]],
                        [[False, True, True], [True, True, True]])
        out = verifier_cascade(m, ["p00", "p01", "p02"])
        assert out.spent.tolist() == [2**63 - 1, 5]
        assert out.avg_tokens == Fraction(2**63 + 4, 2)
