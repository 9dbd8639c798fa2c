from __future__ import annotations

import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from cotbudget import complexity
from cotbudget.complexity import INFINITE, ComplexityProfile, profile
from cotbudget.errors import CoverageError, RecordParseError, RecordSchemaError
from cotbudget.oracle import OracleSpec, generate, random_spec, straddle_lengths
from cotbudget.records import RunMatrix

from conftest import count_ids, estimate_one, make_matrix, run_matrices, some_cells, with_cells
from loop_oracles import (
    best_thresholds_stable,
    classify_accuracy,
    estimate_tau_loop,
    profile_from_file_loop,
    profile_from_json_dict_loop,
    profile_loop,
    question_runs,
    tau_aggregates_loop,
)

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


class TestOneQuestion:
    """profile on a one-row matrix: the estimate of a single question."""

    def test_clean_threshold(self):
        qc = estimate_one([5, 12, 20, 30, 50], [False, False, True, True, True])
        assert qc.tau_hat == 20
        assert qc.c_star == 1

    def test_tie_breaks_to_smallest_threshold(self):
        qc = estimate_one([5, 12, 20, 30], [True, False, True, True])
        assert qc.tau_hat == 5
        assert qc.c_star == Fraction(3, 4)

    def test_all_incorrect_is_infinite(self):
        qc = estimate_one([5, 12], [False, False])
        assert math.isinf(qc.tau_hat)
        assert qc.c_star == 1

    def test_infinite_only_when_strictly_better(self):
        # t=9 classifies both runs perfectly, tying nothing: finite must win
        qc = estimate_one([5, 9], [False, True])
        assert qc.tau_hat == 9

    @given(runs=runs_strategy)
    def test_matches_independent_scan(self, runs):
        lengths = [r[0] for r in runs]
        corrects = [r[1] for r in runs]
        qc = estimate_one(lengths, corrects)
        tau, acc = brute_force_best(lengths, corrects)
        assert qc.tau_hat == tau
        assert qc.c_star == acc

    @given(runs=runs_strategy)
    def test_matches_loop_oracle(self, runs):
        lengths = [r[0] for r in runs]
        corrects = [r[1] for r in runs]
        assert estimate_one(lengths, corrects) == estimate_tau_loop(lengths, corrects, "q00")

    def test_negative_lengths_rejected(self):
        with pytest.raises(ValueError):
            estimate_one([3, -1], [True, False])

    @given(runs=runs_strategy, seed=st.randoms())
    def test_permutation_invariant(self, runs, seed):
        shuffled = list(runs)
        seed.shuffle(shuffled)
        a = estimate_one([r[0] for r in runs], [r[1] for r in runs])
        b = estimate_one([r[0] for r in shuffled], [r[1] for r in shuffled])
        assert (a.tau_hat, a.c_star) == (b.tau_hat, b.c_star)

    @given(runs=runs_strategy)
    def test_floor_property(self, runs):
        """c_star never drops below the better constant classifier."""
        lengths = [r[0] for r in runs]
        corrects = [r[1] for r in runs]
        qc = estimate_one(lengths, corrects)
        p = Fraction(sum(corrects), len(corrects))
        assert qc.c_star >= max(p, 1 - p)

    @given(runs=runs_strategy, bump=st.integers(min_value=0, max_value=100))
    def test_adding_long_correct_run_never_hurts(self, runs, bump):
        lengths = [r[0] for r in runs]
        corrects = [r[1] for r in runs]
        before = estimate_one(lengths, corrects)
        assume(not math.isinf(before.tau_hat))  # no length can reach an infinite threshold
        after = estimate_one(lengths + [int(before.tau_hat) + bump], corrects + [True])
        assert after.c_star >= before.c_star


class TestProfile:
    def test_a_profile_does_not_compare_with_another_type(self):
        prof = profile(make_matrix([[5, 12]], [[False, True]]))
        assert prof.__eq__(prof.entries) is NotImplemented
        assert prof != "profile"

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
            lengths, corrects = question_runs(matrix, i)
            assert classify_accuracy(lengths, corrects, entry.tau_hat) == entry.c_star


class TestProfileMatchesLoopOracle:
    """The row-blocked kernel against the per-question loop it replaced."""

    @settings(max_examples=300)
    @given(matrix=run_matrices())
    def test_entries_and_aggregates_exactly_equal(self, matrix):
        got = profile(matrix)
        want = profile_loop(matrix)
        assert got.entries == want.entries
        assert got.c_bar == want.c_bar
        assert (got.a_star, got.tau_bar_over_n, got.tau_bar_finite_mean) == tau_aggregates_loop(
            [e.tau_hat for e in want.entries]
        )
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

    @settings(max_examples=150, deadline=None)
    @given(matrix=run_matrices(max_questions=12, max_prompts=40, max_tokens=3)
           | run_matrices(max_tokens=2**63 - 1))
    def test_row_sort_tie_order_does_not_matter(self, matrix):
        cells = (matrix.tokens, matrix.correct, matrix.present)
        for got, want in zip(complexity._best_thresholds(*cells), best_thresholds_stable(*cells)):
            assert got.tolist() == want.tolist()
        with mock.patch.object(complexity, "_best_thresholds", best_thresholds_stable):
            stable = profile(matrix)
        assert profile(matrix) == stable

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), matrix=run_matrices(max_questions=6, max_prompts=6, absent_share=0.3),
           top=st.sampled_from([2**62 - 1, 2**62, 2**63 - 1]))
    def test_packed_sort_limit_straddled(self, data, matrix, top):
        """Lengths on both sides of 2**62 and up to 2**63 - 1 take the one packed sort,
        never an argsort, and give the stable kernel's result. An extra row puts an
        absent cell next to a present length-0 miss, which shares its key, and a
        length-0 hit."""
        cells = some_cells(data, matrix)
        ties = st.sampled_from([top, top - 1, top - 2, 0])
        lengths = [top, *(data.draw(ties) for _ in cells[1:])]
        matrix = with_cells(matrix, cells, lengths)
        k = matrix.n_prompts
        tokens = np.vstack([matrix.tokens, [0, 0, 0][:k] + [top] * (k - 3)])
        correct = np.vstack([matrix.correct, [False, False, True][:k] + [True] * (k - 3)])
        present = np.vstack([matrix.present, [k == 1] + [True] * (k - 1)])
        assert tokens[present].max() == top
        kernel_input = (tokens, correct, present)
        with mock.patch.object(np, "argsort", side_effect=AssertionError("argsort path")):
            got = complexity._best_thresholds(*kernel_input)
            packed = profile(matrix)
        for column, want in zip(got, best_thresholds_stable(*kernel_input)):
            assert column.tolist() == want.tolist()
        assert packed == profile_loop(matrix)

    def test_replay_size_matrix_takes_the_packed_sort(self):
        matrix, _ = generate(random_spec(2000, seed=5, violation_rate=0.1))
        with mock.patch.object(np, "argsort", side_effect=AssertionError("argsort path")):
            got = profile(matrix)
        assert got == profile_loop(matrix)

    def test_finite_taus_cached_sorted_and_summed(self, oracle_matrix):
        matrix, _ = oracle_matrix
        prof = profile(matrix)
        assert prof.sorted_finite_taus == (10, 20)
        assert prof.tau_prefix_sums == (10, 30)


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


ONE = Fraction(1)
# (keyword changes to a valid one-question profile, the ValueError's message)
PROFILE_REFUSALS = [
    ({"question_ids": ("q1", "q1"), "tau": [5, 7], "k_used": [2, 2], "c_star": (ONE, ONE)},
     "question_ids repeat 'q1'"),
    ({"question_ids": ("",)}, "question_ids hold an empty id"),
    ({"question_ids": (1,)}, "question_ids hold a non-string id 1"),
    ({"k_used": [0]}, "k_used must be at least 1, got 0"),
    ({"model": ""}, "model must be a non-empty string, got ''"),
    ({"dataset": None}, "dataset must be a non-empty string, got None"),
    ({"tau": [-5]}, r"tau must be -1 \(infinite\) or at least 0, got -5"),
    ({"question_ids": (), "tau": [], "k_used": [], "c_star": ()},
     "a profile must hold at least one question"),
]


class TestProfileRefusesWhatItsFileRefuses:
    """What load refuses, the constructor (or, for c_star, save) refuses too."""

    VALID = {"model": "m", "dataset": "d", "question_ids": ("q1",), "tau": [5], "k_used": [2],
             "c_star": (ONE,), "c_bar": ONE}

    @pytest.mark.parametrize("changes, message", PROFILE_REFUSALS)
    def test_constructor_refuses(self, changes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ComplexityProfile(**{**self.VALID, **changes})

    @pytest.mark.parametrize("c, shown", [(Fraction(3, 2), "1.5"), (Fraction(-1, 10), "-0.1"),
                                          (float("nan"), "nan")])
    def test_save_refuses_c_star_outside_0_1(self, tmp_path, c, shown):
        prof = ComplexityProfile(**{**self.VALID, "c_star": (c,)})
        with pytest.raises(ValueError, match=rf"^c_star must be in \[0, 1\], got {shown}$"):
            prof.save(tmp_path / "complexity.json")
        assert not (tmp_path / "complexity.json").exists()

    @settings(max_examples=200, deadline=None)
    @given(
        labels=st.lists(st.text(min_size=1, max_size=4), min_size=2, max_size=2),
        ids=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=6, unique=True),
        data=st.data(),
    )
    def test_every_accepted_profile_saves_and_loads_back(self, labels, ids, data):
        """Valid columns, with one time in four one odd value; c_star stays in [0, 1]."""
        n = len(ids)
        columns = {
            "labels": labels, "ids": ids,
            "tau": data.draw(st.lists(st.integers(-1, 2**63 - 1), min_size=n, max_size=n)),
            "k_used": data.draw(st.lists(st.integers(1, 2**63 - 1), min_size=n, max_size=n)),
        }
        if data.draw(st.integers(0, 3)) == 3:
            column = columns[data.draw(st.sampled_from(sorted(columns)))]
            odd = data.draw(st.sampled_from(["", -2, 0, ids[0]]))
            column[data.draw(st.integers(0, len(column) - 1))] = odd
        c_star = data.draw(st.lists(st.fractions(0, 1), min_size=n, max_size=n))
        try:
            prof = ComplexityProfile(*labels, ids, columns["tau"], columns["k_used"], c_star, ONE)
        except ValueError:
            reject()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "complexity.json"
            prof.save(path)
            loaded = ComplexityProfile.load(path)
        assert (loaded.model, loaded.dataset, loaded.question_ids) == (*labels, tuple(ids))
        assert loaded.tau.tolist() == columns["tau"]
        assert loaded.k_used.tolist() == columns["k_used"]


def test_profile_takes_the_matrix_ids_as_they_are(monkeypatch):
    """RunMatrix checked its ids when it was built, so profile checks none again."""
    matrix = make_matrix([[5, 12], [3, 4]], [[False, True], [True, True]])
    built = count_ids(monkeypatch)
    prof = profile(matrix)
    assert prof.question_ids is matrix.question_ids
    assert built == []


def test_a_caller_that_changes_what_it_passed_changes_no_profile():
    ids, tau, k_used = ["q1", "q2"], np.array([3, -1]), np.array([2, 2])
    prof = ComplexityProfile("m", "d", ids, tau, k_used, [ONE, ONE], ONE)
    ids[0], tau[0], k_used[0] = "q9", 99, 9
    assert prof.question_ids == ("q1", "q2")
    assert prof.tau.tolist() == [3, -1] and prof.k_used.tolist() == [2, 2]


def _valid_file(tmp_path, matrix=None):
    """(path, parsed object) of a complexity file saved from a 4-question profile."""
    if matrix is None:
        matrix = make_matrix(
            [[5, 12, 20], [3, 4, 9], [7, 7, 7], [1, 2, 3]],
            [[False, True, True], [False, False, False], [True, True, True], [True, False, True]],
        )
    path = tmp_path / "complexity.json"
    profile(matrix).save(path)
    return path, json.loads(path.read_text())


def _rewritten(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


class TestProfileFileRoundTrip:
    @settings(max_examples=100)
    @given(matrix=run_matrices(max_tokens=2**62))
    def test_save_load_round_trips(self, matrix):
        prof = profile(matrix)
        with tempfile.TemporaryDirectory() as tmp:
            first, second, third = (Path(tmp) / f"{name}.json" for name in "abc")
            prof.save(first)
            loaded = ComplexityProfile.load(first)
            loaded.save(second)
            assert ComplexityProfile.load(second) == loaded
            # c_bar is the mean of the rounded c_stars, so only the entries
            # are byte-stable on the first pass; from then on, all of it.
            again = json.loads(second.read_text())
            assert again["entries"] == json.loads(first.read_text())["entries"]
            ComplexityProfile.load(second).save(third)
            assert third.read_bytes() == second.read_bytes()
        assert loaded.question_ids == prof.question_ids
        assert loaded.tau.tolist() == prof.tau.tolist()
        assert loaded.k_used.tolist() == prof.k_used.tolist()
        assert loaded.c_star == tuple(Fraction(str(round(float(c), 6))) for c in prof.c_star)
        assert loaded.c_bar == sum(loaded.c_star, Fraction(0)) / prof.n_questions
        assert (loaded.a_star, loaded.tau_bar_over_n, loaded.tau_bar_finite_mean) == (
            prof.a_star, prof.tau_bar_over_n, prof.tau_bar_finite_mean
        )

    def test_entries_are_built_from_the_columns(self, oracle_matrix):
        matrix, taus = oracle_matrix
        prof = profile(matrix)
        assert prof.tau.tolist() == [10, 20, -1]
        assert prof.entries == tuple(
            estimate_tau_loop(*question_runs(matrix, i), question_id=q)
            for i, q in enumerate(matrix.question_ids)
        )
        assert prof.entries is prof.entries  # built once

    def test_columns_are_read_only(self, oracle_matrix):
        prof = profile(oracle_matrix[0])
        with pytest.raises(ValueError):
            prof.tau[0] = 3


class TestProfileFileChecks:
    """Each bad value is a RecordSchemaError naming the file and the JSON location."""

    @pytest.mark.parametrize(
        "mutate, location",
        [
            (lambda o: o["entries"][3].__setitem__("tau", -5), "entries[3].tau"),
            (lambda o: o["entries"][3].__setitem__("tau", 12.7), "entries[3].tau"),
            (lambda o: o["entries"][3].__setitem__("tau", True), "entries[3].tau"),
            (lambda o: o["entries"][3].__setitem__("tau", 2**63), "entries[3].tau"),
            (lambda o: o["entries"][3].__setitem__("tau", "12"), "entries[3].tau"),
            (lambda o: o["entries"].append(dict(o["entries"][0])), "entries[4].question_id"),
            (lambda o: o.__setitem__("entries", []), "entries"),
            (lambda o: o.__setitem__("entries", {"q": 1}), "entries"),
            (lambda o: o.pop("entries"), "entries"),
            (lambda o: o["entries"][2].pop("k_used"), "entries[2].k_used"),
            (lambda o: o["entries"][2].__setitem__("k_used", 0), "entries[2].k_used"),
            (lambda o: o["entries"][2].__setitem__("k_used", 2.0), "entries[2].k_used"),
            (lambda o: o["entries"][1].__setitem__("c_star", "abc"), "entries[1].c_star"),
            (lambda o: o["entries"][1].__setitem__("c_star", True), "entries[1].c_star"),
            (lambda o: o["entries"][1].__setitem__("c_star", 1.5), "entries[1].c_star"),
            (lambda o: o["entries"][1].__setitem__("c_star", float("nan")), "entries[1].c_star"),
            (lambda o: o["entries"][1].__setitem__("c_star", float("inf")), "entries[1].c_star"),
            (lambda o: o["entries"][0].__setitem__("question_id", ""), "entries[0].question_id"),
            (lambda o: o["entries"][0].__setitem__("question_id", 7), "entries[0].question_id"),
            (lambda o: o["entries"].__setitem__(1, None), "entries[1]"),
            (lambda o: o.__setitem__("model", ""), "model"),
            (lambda o: o.pop("dataset"), "dataset"),
        ],
    )
    def test_bad_value_names_its_location(self, tmp_path, mutate, location):
        path, obj = _valid_file(tmp_path)
        mutate(obj)
        with pytest.raises(RecordSchemaError) as exc:
            ComplexityProfile.load(_rewritten(path, obj))
        assert str(exc.value).startswith(f"{path}: {location} ")
        assert exc.value.path == str(path)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = tmp_path / "complexity.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(RecordSchemaError, match="must hold a JSON object, got list"):
            ComplexityProfile.load(path)

    def test_malformed_json_and_non_utf8_name_the_line(self, tmp_path):
        path = tmp_path / "complexity.json"
        path.write_text('{"model": "m",\n "dataset": }\n')
        with pytest.raises(RecordParseError, match=r"complexity\.json:2: malformed JSON"):
            ComplexityProfile.load(path)
        path.write_bytes(b'{"model": "m",\n "dataset": "\xff"}\n')
        with pytest.raises(RecordParseError, match=r"complexity\.json:2: not UTF-8"):
            ComplexityProfile.load(path)

    def test_int_c_star_and_extra_keys_are_accepted(self, tmp_path):
        path, obj = _valid_file(tmp_path)
        obj["entries"][0]["c_star"] = 1
        obj["entries"][1]["note"] = "kept out"
        obj["c_bar"] = "ignored: recomputed from the entries"
        loaded = ComplexityProfile.load(_rewritten(path, obj))
        assert loaded.c_star[0] == 1
        assert loaded == profile_from_file_loop(obj)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.sampled_from([2**63 - 1, 2**63, -(2**63), 10**30])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, 0.5, 1.0, 1e-7, 0.999999])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
ENTRY_KEYS = ("question_id", "tau", "k_used", "c_star", "extra")
TOP_KEYS = ("model", "dataset", "entries", "c_bar", "extra")
# Values each entry field may validly take, so that some edits keep the file valid.
VALID_VALUES = {
    "question_id": st.text(min_size=1, max_size=3),
    "tau": st.none() | st.integers(0, 2**63 - 1),
    "k_used": st.integers(1, 2**63 - 1),
    "c_star": st.floats(0, 1) | st.integers(0, 1),
    "extra": JSON_VALUES,
}
EDITS = ("set", "delete", "entry_set", "entry_delete", "duplicate", "retype_entry", "retype_file")


@st.composite
def mutations(draw, obj):
    """A copy of a complexity file's object with one to three random edits.

    Half the examples only give entry fields values from their valid
    ranges, which keeps the file valid unless two ids collide.
    """
    obj = json.loads(json.dumps(obj))
    valid_only = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        entries = obj.get("entries") if isinstance(obj, dict) else None
        kind = "entry_valid" if valid_only else draw(st.sampled_from(EDITS))
        if kind in ("entry_valid", "entry_set", "entry_delete", "duplicate", "retype_entry"):
            if not isinstance(entries, list) or not entries:
                continue
            i = draw(st.integers(0, len(entries) - 1))
            if kind == "duplicate":
                entries.append(json.loads(json.dumps(entries[i])))
            elif kind == "retype_entry":
                entries[i] = draw(JSON_VALUES)
            elif isinstance(entries[i], dict):
                key = draw(st.sampled_from(ENTRY_KEYS))
                if kind == "entry_valid":
                    entries[i][key] = draw(VALID_VALUES[key])
                elif kind == "entry_set":
                    entries[i][key] = draw(JSON_VALUES)
                else:
                    entries[i].pop(key, None)
        elif kind == "retype_file":
            obj = draw(JSON_VALUES)
        elif isinstance(obj, dict):
            key = draw(st.sampled_from(TOP_KEYS))
            if kind == "set":
                obj[key] = draw(JSON_VALUES)
            else:
                obj.pop(key, None)
    return obj


class TestProfileFileMutations:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), matrix=run_matrices(max_questions=4, max_prompts=4))
    def test_every_mutation_loads_equal_or_is_a_schema_error(self, data, matrix):
        valid = profile(matrix).to_json_dict()
        obj = data.draw(mutations(valid))
        want = profile_from_file_loop(obj)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "complexity.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            if want is None:
                with pytest.raises(RecordSchemaError) as exc:
                    ComplexityProfile.load(path)
                assert str(exc.value).startswith(f"{path}: ")
            else:
                assert ComplexityProfile.load(path) == want


def _loaded(obj):
    """from_json_dict's profile, or the type and message of the schema error it raised."""
    try:
        return "ok", ComplexityProfile.from_json_dict(obj)
    except RecordSchemaError as exc:
        return type(exc), str(exc)


def _loaded_loop(obj):
    try:
        return "ok", profile_from_json_dict_loop(obj)
    except RecordSchemaError as exc:
        return type(exc), str(exc)


class TestOnePassLoader:
    """The one-pass loader against the per-entry loader it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), matrix=run_matrices(max_questions=6, max_prompts=4))
    def test_same_profile_or_same_first_error(self, data, matrix):
        obj = data.draw(mutations(profile(matrix).to_json_dict()))
        got, want = _loaded(obj), _loaded_loop(obj)
        assert got == want
        if want[0] == "ok":
            assert got[1].c_bar == want[1].c_bar
            assert got[1].c_star == want[1].c_star

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0, 1, 0.0, 1.0, -0.0, 0.5, 1 / 3, 0.333333, 1e-7]),
                        min_size=1, max_size=30)
    )
    def test_equal_values_of_two_types_share_one_exact_mean(self, values):
        obj = {"model": "m", "dataset": "d", "entries": [
            {"question_id": f"q{i}", "tau": None, "k_used": 1, "c_star": c}
            for i, c in enumerate(values)
        ]}
        got = ComplexityProfile.from_json_dict(obj)
        want = profile_from_json_dict_loop(obj)
        assert got == want
        assert got.c_bar == want.c_bar == sum(map(Fraction, map(str, values)), Fraction(0)) / len(values)

    def test_each_bad_field_keeps_its_order(self):
        entry = {"question_id": "q0", "tau": -1, "k_used": 0, "c_star": 2}
        obj = {"model": "m", "dataset": "d", "entries": [dict(entry, tau=1, k_used=1, c_star=1)]}
        for bad in ({**entry, "question_id": "q0"}, {**entry, "question_id": "q1"},
                    {**entry, "question_id": "q1", "tau": 3},
                    {**entry, "question_id": "q1", "tau": 3, "k_used": 2}):
            assert _loaded({**obj, "entries": obj["entries"] + [bad]}) == _loaded_loop(
                {**obj, "entries": obj["entries"] + [bad]}
            )
