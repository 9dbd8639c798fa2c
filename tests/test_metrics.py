from __future__ import annotations

import json
import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget import metrics
from cotbudget.complexity import INFINITE, ComplexityProfile, profile
from cotbudget.errors import (
    ConsistencyError,
    CoverageError,
    UndefinedCorrelationError,
    ZeroAccuracyError,
)
from cotbudget.inputs import TOKENS_MAX
from cotbudget.metrics import (
    COUNTING_FACTOR,
    PromptResult,
    adaptivity_split,
    complexity_correlations,
    err_score,
    midranks,
    prompt_table,
    spearman,
    validation_report,
)
from cotbudget.oracle import OracleSpec, generate, random_spec, straddle_lengths
from cotbudget.records import RunMatrix

from conftest import make_matrix, run_matrices, some_cells, with_cells
from loop_oracles import (
    adaptivity_split_loop,
    column_sums_whole,
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

    @given(data=st.data(), n=st.integers(1, 30),
           dtype=st.sampled_from([np.int64, np.int32, np.uint8, np.uint64]))
    def test_counting_ranks_equal_sorted_ranks(self, data, n, dtype):
        """Non-negative integers up to COUNTING_FACTOR times their number rank by
        counting, never an argsort, whatever the integer dtype."""
        values = st.integers(0, COUNTING_FACTOR * n)
        xs = np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
        with mock.patch.object(np, "argsort", side_effect=AssertionError("argsort path")):
            got = midranks(xs)
        assert got.tolist() == midranks_loop(xs).tolist()

    @given(data=st.data(), n=st.integers(1, 30), over=st.sampled_from([0, 1]),
           dtype=st.sampled_from([np.int64, np.int32, np.uint8, np.uint64]))
    def test_counting_bound_straddled(self, data, n, over, dtype):
        """A largest value at COUNTING_FACTOR times the size ranks by counting, one
        above it by sorting; both give the loop oracle's ranks."""
        xs = data.draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1))
        xs.insert(data.draw(st.integers(0, n - 1)), COUNTING_FACTOR * n + over)
        xs = np.array(xs, dtype=dtype)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = midranks(xs)
        assert argsort.called == bool(over)
        assert got.tolist() == midranks_loop(xs).tolist()

    @given(xs=st.lists(st.integers(-5, 5), min_size=1, max_size=30),
           dtype=st.sampled_from([np.int8, np.int32, np.int64]))
    def test_negative_integers_take_the_sort(self, xs, dtype):
        xs = np.array([-1, *xs], dtype=dtype)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = midranks(xs)
        assert argsort.called
        assert got.tolist() == midranks_loop(xs).tolist()

    @given(xs=st.lists(st.booleans(), min_size=1, max_size=30))
    def test_bools_rank_as_numbers(self, xs):
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = midranks(np.array(xs))
        assert argsort.called
        assert got.tolist() == midranks_loop(xs).tolist() == rank_oracle(xs)

    @given(xs=st.lists(st.integers(0, 4) | st.integers(2**64 - 4, 2**64 - 1), max_size=40))
    def test_large_unsigned_integers_stay_apart(self, xs):
        xs = np.array(xs, dtype=np.uint64)
        assert midranks(xs).tolist() == midranks_unique(xs).tolist()

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
            prompt_lengths=np.outer([t // 10 for t in taus], [4, 8, 16, 32, 64]),
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
        with mock.patch.object(np, "argsort", side_effect=AssertionError("argsort path")):
            got = complexity_correlations(matrix, prof)
        assert _same_or_both_nan(got, complexity_correlations_unique(matrix, prof))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 10), k=st.integers(1, 5),
           over=st.sampled_from([0, 1]))
    def test_counting_bound_straddled(self, data, n, k, over):
        """Every ranked array (each prompt's lengths and the complexities, n values
        each) has its largest value at the counting bound, where it ranks by
        counting, or one above it, where it ranks by sorting. Both give the rho of
        midranks_loop's ranks and of the np.unique ranks. Every other value is at
        most 3, below the smallest bound of 8."""
        top = COUNTING_FACTOR * n + over
        small = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        columns = []
        for _ in range(k):
            column = data.draw(small)
            column[data.draw(st.integers(0, n - 1))] = top
            columns.append(column)
        tau = data.draw(small)
        tau[data.draw(st.integers(0, n - 1))] = top
        correct = data.draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k))
        matrix = make_matrix(np.array(columns).T, np.reshape(correct, (n, k)))
        prof = ComplexityProfile(matrix.model, matrix.dataset, matrix.question_ids, tau,
                                 [k] * n, [Fraction(1)] * n, Fraction(1))
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = complexity_correlations(matrix, prof)
        assert argsort.call_count == (2 * k if over else 0)
        want = []
        for pid, column in zip(matrix.prompt_ids, columns):
            try:
                rho = metrics._rank_correlation(midranks_loop(column), midranks_loop(tau))
            except UndefinedCorrelationError:
                rho = float("nan")
            want.append((pid, rho, n))
        assert _same_or_both_nan(got, want)
        assert _same_or_both_nan(got, complexity_correlations_unique(matrix, prof))


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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), matrix=run_matrices(max_questions=8, max_prompts=5))
    def test_complexities_past_2_62_over_small_lengths(self, data, matrix):
        """Huge loaded complexities take the sorting ranks, with no table of their size."""
        obj = profile(matrix).to_json_dict()
        for i, _ in some_cells(data, matrix):
            obj["entries"][i]["tau"] = data.draw(st.integers(2**62, TOKENS_MAX))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "complexity.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            loaded = ComplexityProfile.load(path)
        tracemalloc.start()
        try:
            got = complexity_correlations(matrix, loaded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert _same_or_both_nan(got, complexity_correlations_unique(matrix, loaded))

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

    def test_no_scorable_prompt_names_every_prompt(self):
        matrix = make_matrix([[3, 5], [4, 6], [2, 9]], [[False, False]] * 3)
        with pytest.raises(ZeroAccuracyError) as exc:
            validation_report(matrix, profile(matrix))
        assert exc.value.prompt_ids == ("p00", "p01")

    def test_a_zero_accuracy_prompt_is_left_out_of_err(self):
        matrix = make_matrix([[3, 5], [4, 6]], [[False, True], [False, True]])
        report = validation_report(matrix, profile(matrix))
        assert [r.accuracy for r in report.per_prompt] == [0, 1]
        assert report.err == 0


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
    @given(matrix=run_matrices(max_tokens=2**63 - 1) | run_matrices()
           | run_matrices(absent_share=0.5))
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
    @given(data=st.data(), matrix=run_matrices(max_tokens=2**63 - 1) | run_matrices()
           | run_matrices(absent_share=0.5, empty_rows=True))
    def test_adaptivity_split_matches_loop(self, data, matrix):
        split = data.draw(st.sampled_from(matrix.prompt_ids))
        assert adaptivity_split(matrix, split) == adaptivity_split_loop(matrix, split)

    def test_a_row_with_an_absent_split_cell_is_on_neither_side(self):
        m = make_matrix([[1, 5, 7], [9, 100, 300], [2, 6, 8]],
                        [[True, True, False], [True, True, True], [False, False, True]],
                        [[True, True, True], [False, True, True], [True, True, False]])
        want = {"p01": (Fraction(5), Fraction(6)), "p02": (Fraction(7), None)}
        assert adaptivity_split(m, "p00") == adaptivity_split_loop(m, "p00") == want


class TestColumnSums:
    """_column_sums sums the whole matrix at once; the totals are exact Python ints."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), matrix=run_matrices(max_questions=12, max_tokens=2**63 - 1)
           | run_matrices(max_questions=12))
    def test_equal_to_the_whole_matrix_sum(self, data, matrix):
        rows = np.array(data.draw(st.lists(st.booleans(), min_size=matrix.n_questions,
                                           max_size=matrix.n_questions)), dtype=bool)
        tokens = matrix.tokens[rows]
        assert metrics._column_sums(tokens) == column_sums_whole(tokens, matrix.present[rows])

    def test_totals_past_int64(self):
        tokens = np.full((7, 2), TOKENS_MAX, dtype=np.int64)
        tokens[:, 1] = 0
        assert metrics._column_sums(tokens) == [TOKENS_MAX * tokens.shape[0], 0]

    def test_peak_memory_stays_one_block_at_20k(self):
        """No n x K copy: at n = 20k, K = 31 the int64 matrix alone is 5 MB."""
        rng = np.random.default_rng(7)
        n, k = 20_000, 31
        matrix = RunMatrix("m", "d", tuple(f"q{i:05d}" for i in range(n)),
                           tuple(f"p{j:02d}" for j in range(k)),
                           rng.integers(0, 10**6, (n, k)), rng.random((n, k)) < 0.5,
                           rng.random((n, k)) < 0.95)
        prof = profile(matrix)
        for call in (lambda: metrics._column_sums(matrix.tokens),
                     lambda: adaptivity_split(matrix, "p00"),
                     lambda: validation_report(matrix, prof)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * 2**20
