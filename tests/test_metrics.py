from __future__ import annotations

import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget.complexity import INFINITE, ComplexityProfile, profile
from cotbudget.errors import (
    ConsistencyError,
    CoverageError,
    UndefinedCorrelationError,
    ZeroAccuracyError,
)
from cotbudget.metrics import (
    PromptResult,
    adaptivity_split,
    complexity_correlations,
    err_score,
    midranks,
    prompt_table,
    spearman,
    validation_report,
)
from cotbudget.oracle import OracleSpec, generate, random_spec, scaled_lengths, straddle_lengths
from cotbudget.records import RunMatrix

from conftest import make_matrix, run_matrices
from loop_oracles import (
    adaptivity_split_loop,
    complexity_correlations_unique,
    midranks_loop,
    midranks_unique,
    prompt_table_loop,
)


def rank_oracle(values):
    """Independent midrank implementation: average the 1-based positions of ties."""
    ranks = []
    for v in values:
        below = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        ranks.append(below + (equal + 1) / 2)
    return ranks


def spearman_oracle(xs, ys):
    """Pearson correlation of independently computed midranks."""
    rx, ry = rank_oracle(xs), rank_oracle(ys)
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(
        sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
    )
    return num / den


def make_result(pid="p", acc=Fraction(1, 2), pred=Fraction(1, 2), tokens=Fraction(10)):
    return PromptResult(
        prompt_id=pid,
        accuracy=acc,
        avg_tokens=tokens,
        predicted_accuracy=pred,
        n_questions=4,
    )


class TestPromptTable:
    def test_single_question_prediction(self):
        m = make_matrix([[5, 30]], [[False, True]])
        rows = prompt_table(m, profile(m))
        assert [r.predicted_accuracy for r in rows] == [0, 1]
        assert [r.accuracy for r in rows] == [0, 1]

    def test_identical_prompts_identical_rows(self):
        m = make_matrix([[7, 7], [9, 9]], [[True, True], [False, False]])
        rows = prompt_table(m, profile(m))
        a, b = rows
        assert (a.accuracy, a.avg_tokens, a.predicted_accuracy) == (
            b.accuracy,
            b.avg_tokens,
            b.predicted_accuracy,
        )

    def test_accuracy_recount(self, oracle_matrix):
        matrix, _ = oracle_matrix
        rows = prompt_table(matrix, profile(matrix))
        for j, row in enumerate(rows):
            mask = matrix.present[:, j]
            assert row.accuracy == Fraction(
                int(matrix.correct[mask, j].sum()), int(mask.sum())
            )

    def test_model_mismatch_rejected(self, oracle_matrix):
        matrix, _ = oracle_matrix
        prof = profile(matrix)
        other = make_matrix([[5]], [[True]], model="other")
        with pytest.raises(ConsistencyError):
            prompt_table(other, prof)

    def test_present_cells_only(self):
        m = make_matrix(
            [[5, 30], [6, 40]],
            [[False, True], [True, True]],
            present=[[True, True], [False, True]],
        )
        rows = prompt_table(m, profile(m))
        assert rows[0].n_questions == 1
        assert rows[1].n_questions == 2


class TestErrScore:
    def test_perfect_prediction_is_zero(self):
        results = [
            make_result(acc=Fraction(4, 5), pred=Fraction(4, 5)),
            make_result(pid="p2", acc=Fraction(1, 2), pred=Fraction(1, 2)),
        ]
        assert err_score(results) == 0

    def test_single_prompt_discrepancy(self):
        results = [make_result(acc=Fraction(4, 5), pred=Fraction(3, 5))]
        assert err_score(results) == Fraction(1, 4)

    def test_zero_accuracy_rejected(self):
        results = [make_result(pid="dead", acc=Fraction(0), pred=Fraction(0))]
        with pytest.raises(ZeroAccuracyError) as exc:
            err_score(results)
        assert "dead" in str(exc.value)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            err_score([])


class TestSpearman:
    def test_identical_ordering(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed_ordering(self):
        assert spearman([1, 2, 3], [30, 20, 10]) == -1.0

    def test_tied_values_match_hand_computation(self):
        # ranks of (1,2,2,4): 1, 2.5, 2.5, 4; ranks of (10,30,20,40): 1, 3, 2, 4
        got = spearman([1, 2, 2, 4], [10, 30, 20, 40])
        assert got == pytest.approx(spearman_oracle([1, 2, 2, 4], [10, 30, 20, 40]), abs=1e-15)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1])

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([5, 5, 5], [1, 2, 3])

    @settings(max_examples=200)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=2, max_size=40
        )
    )
    def test_matches_independent_oracle(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        assert spearman(xs, ys) == pytest.approx(spearman_oracle(xs, ys), abs=1e-12)

    @given(
        xs=st.lists(st.integers(0, 100), min_size=2, max_size=30, unique=True),
        scale=st.integers(min_value=1, max_value=5),
        shift=st.integers(min_value=-50, max_value=50),
    )
    def test_invariant_under_increasing_transform(self, xs, scale, shift):
        ys = list(reversed(sorted(xs)))
        transformed = [scale * y + shift for y in ys]
        assert spearman(xs, ys) == pytest.approx(spearman(xs, transformed), abs=1e-12)

    @given(xs=st.lists(st.integers(0, 100), min_size=2, max_size=30, unique=True))
    def test_self_correlation_is_one(self, xs):
        assert spearman(xs, xs) == 1.0


class TestMidranks:
    @given(xs=st.lists(st.integers(0, 10), min_size=1, max_size=30))
    def test_matches_oracle(self, xs):
        assert list(midranks(xs)) == pytest.approx(rank_oracle(xs))

    def test_each_nan_keeps_its_own_rank(self):
        nan = float("nan")
        assert midranks([nan, 1.0, nan, 1.0, 0.0]).tolist() == [4.0, 2.5, 5.0, 2.5, 1.0]

    @given(
        xs=st.lists(
            st.one_of(st.integers(0, 5).map(float), st.just(float("nan"))), max_size=30
        )
    )
    def test_matches_loop_oracle_exactly(self, xs):
        assert midranks(xs).tolist() == midranks_loop(xs).tolist()

    @given(
        xs=st.lists(
            st.one_of(
                st.integers(0, 5).map(float),
                st.just(float("nan")),
                st.sampled_from([-0.0, math.inf, -math.inf]),
            ),
            max_size=40,
        )
    )
    def test_floats_match_np_unique_ranks(self, xs):
        assert _same_floats(midranks(xs), midranks_unique(xs))

    @given(
        xs=st.lists(
            st.integers(0, 4) | st.integers(2**53 - 2, 2**53 + 2) | st.integers(-(2**63), 2**63 - 1),
            max_size=40,
        )
    )
    def test_integers_match_np_unique_ranks(self, xs):
        xs = np.array(xs, dtype=np.int64)
        assert midranks(xs).tolist() == midranks_unique(xs).tolist()


class TestComplexityCorrelations:
    def test_difficulty_scaled_lengths_correlate(self):
        # lengths proportional to tau across questions: rho = 1 for every prompt
        taus = (10, 20, 40, 80)
        spec = OracleSpec(
            n=4,
            prompt_lengths=scaled_lengths(
                base=[4, 8, 16, 32, 64], multipliers=[t / 10 for t in taus]
            ),
            taus=taus,
        )
        matrix, _ = generate(spec)
        prof = profile(matrix)
        for pid, rho, n in complexity_correlations(matrix, prof):
            assert n == 4
            assert rho == pytest.approx(1.0)

    def test_infinite_questions_excluded(self, oracle_matrix):
        matrix, taus = oracle_matrix
        finite = sum(1 for t in taus if not math.isinf(t))
        for _, _, n in complexity_correlations(matrix, profile(matrix)):
            assert n == finite


def _same_floats(a, b):
    """Equal element by element under ==, NaN matching NaN."""
    return [x if x == x else "nan" for x in np.asarray(a).tolist()] == [
        x if x == x else "nan" for x in np.asarray(b).tolist()
    ]


class TestCorrelationsMatchNpUniqueRanks:
    """Every rho is bit-identical to the np.unique-ranked code it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        matrix=run_matrices(max_questions=30, max_prompts=6, max_tokens=5, absent_share=0.3)
        | run_matrices(max_tokens=2**63 - 1)
    )
    def test_rho_equal_under_eq(self, matrix):
        prof = profile(matrix)
        assert _same_or_both_nan(
            complexity_correlations(matrix, prof), complexity_correlations_unique(matrix, prof)
        )

    def test_replay_size_matrix(self):
        spec = random_spec(2000, seed=5, violation_rate=0.1)
        full, _ = generate(spec)
        absent = np.random.default_rng(5).random(full.tokens.shape) < 0.05
        matrix = RunMatrix(full.model, full.dataset, full.question_ids, full.prompt_ids,
                           full.tokens, full.correct, ~absent)
        prof = profile(matrix)
        assert _same_or_both_nan(
            complexity_correlations(matrix, prof), complexity_correlations_unique(matrix, prof)
        )


def _same_or_both_nan(a, b):
    return [(p, n, "nan" if math.isnan(r) else r) for p, r, n in a] == [
        (p, n, "nan" if math.isnan(r) else r) for p, r, n in b
    ]


class TestLoadedProfileMatchesInMemory:
    """A saved profile whose ids are a shuffled superset gives the same tables."""

    @settings(max_examples=150, deadline=None)
    @given(
        matrix=run_matrices(max_questions=8, max_prompts=5, max_tokens=2**62),
        extra=st.integers(0, 3),
        seed=st.randoms(use_true_random=False),
    )
    def test_prompt_table_and_correlations(self, matrix, extra, seed):
        prof = profile(matrix)
        obj = prof.to_json_dict()
        obj["entries"] += [
            {"question_id": f"zz{i}", "tau": i, "c_star": 0.5, "k_used": 2} for i in range(extra)
        ]
        seed.shuffle(obj["entries"])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "complexity.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            loaded = ComplexityProfile.load(path)
        assert loaded.question_ids != prof.question_ids or extra == 0
        try:
            want = prompt_table(matrix, prof)
        except CoverageError:
            with pytest.raises(CoverageError):
                prompt_table(matrix, loaded)
        else:
            assert prompt_table(matrix, loaded) == want
            taus = dict(zip(prof.question_ids, prof.tau.tolist()))
            for j, row in enumerate(want):
                cells = [
                    (int(matrix.tokens[i, j]), taus[q])
                    for i, q in enumerate(matrix.question_ids)
                    if matrix.present[i, j]
                ]
                hits = sum(1 for length, tau in cells if tau >= 0 and length >= tau)
                assert row.predicted_accuracy == Fraction(hits, len(cells))
        assert _same_or_both_nan(
            complexity_correlations(matrix, loaded), complexity_correlations(matrix, prof)
        )

    def test_missing_question_is_consistency_error(self, oracle_matrix):
        matrix, _ = oracle_matrix
        prof = profile(matrix)
        fewer = ComplexityProfile(
            prof.model, prof.dataset, prof.question_ids[1:], prof.tau[1:], prof.k_used[1:],
            prof.c_star[1:], prof.c_bar,
        )
        with pytest.raises(ConsistencyError, match=matrix.question_ids[0]):
            prompt_table(matrix, fewer)


class TestAdaptivitySplit:
    def test_two_question_split(self):
        # p00 is the split prompt: solves q00 only; p01 lengths 50 / 150
        m = make_matrix(
            [[5, 50], [5, 150]],
            [[True, False], [False, True]],
        )
        split = adaptivity_split(m, "p00")
        assert split == {"p01": (Fraction(50), Fraction(150))}

    def test_all_easy_leaves_hard_absent(self):
        m = make_matrix([[5, 50], [5, 60]], [[True, True], [True, True]])
        split = adaptivity_split(m, "p00")
        assert split["p01"] == (Fraction(55), None)

    def test_unknown_split_prompt_rejected(self):
        m = make_matrix([[5]], [[True]])
        with pytest.raises(ValueError):
            adaptivity_split(m, "nope")

    def test_oracle_data_is_adaptive(self):
        # lengths scale with difficulty, so solvable questions are cheaper
        # than unsolvable ones under every prompt
        taus = (5, 10, 30, INFINITE, INFINITE)
        spec = OracleSpec(
            n=5,
            prompt_lengths=straddle_lengths(taus, 9),
            taus=taus,
        )
        matrix, _ = generate(spec)
        split_prompt = matrix.prompt_ids[-1]  # longest runs: solves every finite question
        split = adaptivity_split(matrix, split_prompt)
        assert split
        for easy, hard in split.values():
            assert easy is not None and hard is not None
            assert easy < hard


class TestValidationReport:
    def test_oracle_report_is_exact(self, oracle_matrix):
        matrix, _ = oracle_matrix
        report = validation_report(matrix, profile(matrix))
        assert report.err == 0
        assert report.c_bar == 1


BIG = 2**62


class TestExactTokenTotals:
    """Column totals past 2**63 - 1 stay exact; integer ranks above 2**53 stay apart."""

    def test_prompt_table_average_of_huge_counts(self):
        m = make_matrix([[BIG, BIG], [BIG, BIG]], [[True, True], [False, True]])
        rows = prompt_table(m, profile(m))
        assert [r.avg_tokens for r in rows] == [BIG, BIG]

    def test_adaptivity_average_of_huge_counts(self):
        m = make_matrix([[BIG, BIG], [BIG, BIG]], [[True, True], [True, False]])
        assert adaptivity_split(m, "p00") == {"p01": (Fraction(BIG), None)}

    def test_spearman_keeps_integers_above_2_53_apart(self):
        assert spearman([2**53, 2**53 + 1, 2**53 + 2], [1, 2, 3]) == 1.0
        assert midranks([2**53 + 1, 2**53, 2**53 + 1]).tolist() == [2.5, 1.0, 2.5]

    @settings(max_examples=150, deadline=None)
    @given(matrix=run_matrices(max_tokens=2**63 - 1) | run_matrices())
    def test_prompt_table_matches_loop(self, matrix):
        prof = profile(matrix)
        try:
            want = prompt_table_loop(matrix, prof)
        except CoverageError as exc:
            with pytest.raises(CoverageError, match=str(exc)):
                prompt_table(matrix, prof)
            return
        assert prompt_table(matrix, prof) == want

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), matrix=run_matrices(max_tokens=2**63 - 1) | run_matrices())
    def test_adaptivity_split_matches_loop(self, data, matrix):
        split = data.draw(st.sampled_from(matrix.prompt_ids))
        assert adaptivity_split(matrix, split) == adaptivity_split_loop(matrix, split)
