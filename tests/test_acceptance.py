"""Acceptance suite: one test per release criterion, printing a line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside pytest's own verdicts.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cotbudget.bounds import alpha_star, frontier, lossless_bound, t_star
from cotbudget.cli import main
from cotbudget.collect import (
    JsonlWriter,
    Question,
    SweepConfig,
    grade,
    sweep,
)
from cotbudget.complexity import INFINITE, profile
from cotbudget.grading import Choice
from cotbudget.metrics import spearman, validation_report
from cotbudget.mockserver import MockChatEndpoint
from cotbudget.oracle import OracleSpec, generate, random_spec, straddle_lengths
from cotbudget.prompts import QUESTION_TEMPLATE, PromptCatalog, fixed_spec
from cotbudget.records import load_records, read_matrices
from cotbudget.routing import compare_to_frontier, verifier_cascade

from conftest import estimate_one, make_matrix
from loop_oracles import present_cells


class criterion:
    """Prints '[acceptance] criterion N PASS/FAIL: <label>' around a test body."""

    def __init__(self, number: int, label: str) -> None:
        self.number = number
        self.label = label

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number} {verdict}: {self.label}")
        return False


def random_taus(rng: np.random.Generator, n: int) -> list[int | float]:
    taus: list[int | float] = [int(rng.integers(1, 80)) for _ in range(n)]
    for i in range(n):
        if rng.random() < 0.25:
            taus[i] = INFINITE
    return taus


def profile_from_taus(taus):
    spec = OracleSpec(
        n=len(taus),
        prompt_lengths=straddle_lengths(taus, 8),
        taus=tuple(taus),
    )
    matrix, _ = generate(spec)
    return profile(matrix)


def subset_sums(finite: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(sizes, total weights) of every subset, via the bit trick."""
    m = len(finite)
    idx = np.arange(1 << m, dtype=np.uint32)
    bits = ((idx[:, None] >> np.arange(m)) & 1).astype(np.int64)
    return bits.sum(axis=1), bits @ np.asarray(finite, dtype=np.int64)


def test_criterion_1_oracle_recovery():
    with criterion(1, "oracle recovery at n=200, K=31 in under 1 s"):
        rng = np.random.default_rng(11)
        taus = random_taus(rng, 200)
        spec = OracleSpec(
            n=200,
            prompt_lengths=straddle_lengths(taus, 31),
            taus=tuple(taus),
            violation_rate=0.0,
        )
        start = time.perf_counter()
        matrix, true_taus = generate(spec)
        prof = profile(matrix)
        report = validation_report(matrix, prof)
        elapsed = time.perf_counter() - start
        assert tuple(e.tau_hat for e in prof.entries) == true_taus
        assert prof.c_bar == 1
        assert report.err == 0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_knapsack_equivalence():
    with criterion(2, "alpha_star matches exhaustive subset enumeration (50x20, n<=12)"):
        rng = np.random.default_rng(22)
        start = time.perf_counter()
        for _ in range(50):
            n = int(rng.integers(1, 13))
            taus = random_taus(rng, n)
            prof = profile_from_taus(taus)
            finite = prof.sorted_finite_taus
            sizes, weights = subset_sums(finite)
            upper = max(1, sum(finite))
            for _ in range(20):
                num = int(rng.integers(0, 2 * upper))
                den = int(rng.integers(1, 5))
                budget = Fraction(num, den)
                # subset fits iff sum/n <= num/den, i.e. sum * den <= num * n
                feasible = weights * den <= num * n
                expected = Fraction(int(sizes[feasible].max()), n)
                assert alpha_star(prof, budget) == expected
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_criterion_3_frontier_consistency():
    with criterion(3, "frontier is a tight non-decreasing step function with exact endpoints"):
        rng = np.random.default_rng(33)
        profiles = [profile_from_taus(random_taus(rng, int(rng.integers(1, 30)))) for _ in range(25)]
        for prof in profiles:
            curve = frontier(prof)
            budgets = [t for t, _ in curve.breakpoints]
            alphas = [a for _, a in curve.breakpoints]
            assert budgets == sorted(budgets)
            assert alphas == sorted(alphas)
            a_star_val, t_lossless = lossless_bound(prof)
            finite = prof.sorted_finite_taus
            assert t_lossless == Fraction(sum(finite), prof.n_questions)
            if curve.breakpoints:
                assert alphas[-1] == a_star_val
                assert budgets[-1] == t_lossless
            else:
                assert a_star_val == 0
            for i in range(100):
                alpha = a_star_val * Fraction(i, 99)
                assert alpha_star(prof, t_star(prof, alpha)) >= alpha


TABLE3_ROWS = [
    # (dataset, model, DefaultCoT tokens, BeConcise tokens, T*(A*),
    #  published BeConcise reduction, published upper-bound reduction)
    ("MATH-500", "GPT-4o", 635, 505, 172, 1.26, 3.69),
    ("MATH-500", "GPT-4o-mini", 611, 528, 164, 1.16, 3.72),
    ("MATH-500", "Claude-3.5-Sonnet", 373, 283, 105, 1.32, 3.56),
    ("MATH-500", "Claude-3.5-Haiku", 373, 287, 143, 1.30, 2.61),
    ("MATH-500", "Llama-3.3-70B", 549, 475, 93, 1.16, 5.88),
    ("GSM8K", "GPT-4o", 266, 190, 24, 1.40, 10.90),
    ("GSM8K", "GPT-4o-mini", 292, 216, 35, 1.35, 8.29),
    ("GSM8K", "Claude-3.5-Sonnet", 200, 136, 18, 1.47, 11.16),
    ("GSM8K", "Claude-3.5-Haiku", 212, 169, 42, 1.25, 5.00),
    ("GSM8K", "Llama-3.3-70B", 195, 148, 27, 1.32, 7.24),
    ("MMLU-Pro-Math", "GPT-4o", 586, 415, 121, 1.41, 4.83),
    ("MMLU-Pro-Math", "GPT-4o-mini", 506, 419, 132, 1.21, 3.85),
    ("MMLU-Pro-Math", "Claude-3.5-Sonnet", 324, 227, 59, 1.43, 5.50),
    ("MMLU-Pro-Math", "Claude-3.5-Haiku", 296, 237, 93, 1.25, 3.20),
    ("MMLU-Pro-Math", "Llama-3.3-70B", 552, 443, 75, 1.25, 7.36),
]


def reduction_ratio(default_tokens: int, other_tokens: int) -> float:
    return default_tokens / other_tokens


def test_criterion_4_reference_ratio_replay():
    with criterion(4, "published-token-count ratio replay (attainable cells)"):
        # The two named reference values replay exactly within tolerance.
        assert reduction_ratio(635, 505) == pytest.approx(1.26, abs=0.01)
        assert reduction_ratio(635, 172) == pytest.approx(3.69, abs=0.01)
        # Every concise-reduction cell replays from the published integers.
        for _, _, default_t, concise_t, _, published, _ in TABLE3_ROWS:
            assert reduction_ratio(default_t, concise_t) == pytest.approx(
                published, abs=0.01
            )
        # The upper-bound column replays only where the published integer
        # T*(A*) carries enough precision; assert the cells that do.
        replayable = [row for row in TABLE3_ROWS
                      if abs(reduction_ratio(row[2], row[4]) - row[6]) <= 0.01]
        assert len(replayable) == 6
        for _, _, default_t, _, t_star_val, _, published in replayable:
            assert reduction_ratio(default_t, t_star_val) == pytest.approx(
                published, abs=0.01
            )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "9 of 15 upper-bound reduction ratios cannot be reproduced from the "
        "published integer token counts (the table divided by unrounded "
        "averages before rounding, e.g. 266/24 = 11.08 vs the published "
        "10.90); see the per-cell report this test prints"
    ),
)
def test_criterion_4_strict_all_cells_replay():
    with criterion(4, "published-token-count ratio replay (strict, all 30 cells)"):
        failures = []
        for dataset, model, default_t, concise_t, t_star_val, pub_concise, pub_bound in TABLE3_ROWS:
            got_concise = reduction_ratio(default_t, concise_t)
            got_bound = reduction_ratio(default_t, t_star_val)
            if abs(got_concise - pub_concise) > 0.01:
                failures.append(
                    f"{dataset}/{model} concise: {got_concise:.4f} vs {pub_concise}"
                )
            if abs(got_bound - pub_bound) > 0.01:
                failures.append(
                    f"{dataset}/{model} bound: {got_bound:.4f} vs {pub_bound}"
                )
        for line in failures:
            print(f"[acceptance]   criterion 4 cell mismatch: {line}")
        assert not failures


def test_criterion_5_spearman_correctness():
    with criterion(5, "spearman matches an independent midrank oracle (100x, 1e-12)"):

        def oracle_rho(xs, ys):
            def ranks(vs):
                return [
                    sum(1 for w in vs if w < v) + (sum(1 for w in vs if w == v) + 1) / 2
                    for v in vs
                ]

            rx, ry = ranks(xs), ranks(ys)
            n = len(rx)
            mx, my = sum(rx) / n, sum(ry) / n
            num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
            den = math.sqrt(
                sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
            )
            return num / den

        rng = np.random.default_rng(55)
        for _ in range(100):
            xs = rng.integers(0, 10, size=30).tolist()  # heavy ties
            ys = (rng.integers(0, 8, size=30) + np.asarray(xs)).tolist()
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert spearman(xs, ys) == pytest.approx(oracle_rho(xs, ys), abs=1e-12)
        x = rng.permutation(60).tolist()  # tie-free
        assert spearman(x, x) == 1.0
        reversed_ranks = [-v for v in x]
        assert spearman(x, reversed_ranks) == -1.0


def test_criterion_6_verifier_routing_identities(oracle_matrix):
    with criterion(6, "verifier routing identities exact; oracle gap non-negative"):
        matrix, _ = oracle_matrix
        rng = np.random.default_rng(66)
        matrices = [matrix]
        for _ in range(20):
            n = int(rng.integers(1, 15))
            tokens = rng.integers(0, 300, size=(n, 2))
            correct = rng.random(size=(n, 2)) < 0.5
            matrices.append(make_matrix(tokens, correct))
        for m in matrices:
            base, fallback = m.prompt_ids[0], m.prompt_ids[-1]
            out = verifier_cascade(m, [base, fallback])
            b, f = m.prompt_index(base), m.prompt_index(fallback)
            union = int(np.count_nonzero(m.correct[:, b] | m.correct[:, f]))
            assert out.accuracy == Fraction(union, m.n_questions)
            closed_form = Fraction(
                int(m.tokens[:, b].sum())
                + int(m.tokens[~m.correct[:, b], f].sum()),
                m.n_questions,
            )
            assert out.avg_tokens == closed_form
        # violation-free oracle data cannot beat the frontier
        prof = profile(matrix)
        curve = frontier(prof)
        routed = verifier_cascade(matrix, [matrix.prompt_ids[0], matrix.prompt_ids[-1]])
        for _, gap in compare_to_frontier([routed], curve):
            assert gap >= 0


def test_criterion_7_threshold_classifier_floor():
    with criterion(7, "c_star >= max(p, 1-p) over 1000 random questions"):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            k = int(rng.integers(1, 40))
            lengths = rng.integers(0, 300, size=k).tolist()
            corrects = (rng.random(size=k) < rng.random()).tolist()
            qc = estimate_one(lengths, corrects)
            p = Fraction(sum(corrects), k)
            assert qc.c_star >= max(p, 1 - p)


def test_criterion_8_collect_integration(tmp_path):
    with criterion(8, "mock-endpoint sweep: schema, preamble, retry, resume, grading"):
        questions = [
            Question(question_id="q1", text="One plus one?", gold_answer="2"),
            Question(question_id="q2", text="Two plus two?", gold_answer="4"),
        ]
        catalog = PromptCatalog(
            specs=(fixed_spec("NoCoT"), fixed_spec("BeConcise"), fixed_spec("DefaultCoT"))
        )
        out = tmp_path / "records.jsonl"
        with MockChatEndpoint(answers={"One plus one?": "2", "Two plus two?": "4"}) as mock:
            config = SweepConfig(
                endpoint=mock.url,
                model="mock-model",
                dataset="mock-ds",
                catalog=catalog,
            )
            with JsonlWriter(out) as writer:
                summary = sweep(questions, config, writer)
            bodies = list(mock.requests)
        assert summary.succeeded == 6
        records = load_records(out)  # schema-validated on load
        assert len(records) == 6
        for body in bodies:
            assert body["messages"][0]["content"].startswith(
                QUESTION_TEMPLATE.partition("{prompt}")[0]
            )

        # retry contract: two 500s then success, with retries=3
        with MockChatEndpoint(fail_first=2) as mock:
            config = SweepConfig(
                endpoint=mock.url,
                model="mock-model",
                dataset="mock-ds",
                catalog=PromptCatalog(specs=(fixed_spec("NoCoT"),)),
                retries=3,
            )
            retry_out = tmp_path / "retry.jsonl"
            with JsonlWriter(retry_out) as writer:
                summary = sweep(questions[:1], config, writer)
        assert summary.succeeded == 1
        assert summary.retries == 2
        assert len(load_records(retry_out)) == 1

        # resume contract: already-collected cells are never re-issued
        with MockChatEndpoint() as mock:
            config = SweepConfig(
                endpoint=mock.url,
                model="mock-model",
                dataset="mock-ds",
                catalog=catalog,
            )
            resume_out = tmp_path / "resume.jsonl"
            with JsonlWriter(resume_out) as writer:
                sweep(questions[:1], config, writer)
            after_first = mock.request_count
            skip = present_cells(read_matrices(resume_out)["mock-model", "mock-ds"])
            with JsonlWriter(resume_out, append=True) as writer:
                sweep(questions, config, writer, skip=skip)
            assert after_first == 3
            assert mock.request_count == 6
        assert len(load_records(resume_out)) == 6

        # grading reproduces the lettered multiple-choice reference example
        mc = Question(
            question_id="mc",
            text="order of Z18?",
            gold_answer="G",
            choices=(Choice("F", "17"), Choice("G", "18")),
        )
        assert grade("Answer: (G)", mc) == (True, "G")


def test_criterion_9_cli_determinism(tmp_path, isolated_record_cache):
    with criterion(9, "every CLI subcommand is byte-deterministic on identical inputs"):
        questions = tmp_path / "questions.jsonl"
        questions.write_text(
            json.dumps({"question_id": "q1", "text": "One plus one?", "gold_answer": "2"})
            + "\n"
            + json.dumps({"question_id": "q2", "text": "Two plus two?", "gold_answer": "4"})
            + "\n",
            encoding="utf-8",
        )
        catalog_path = tmp_path / "catalog.json"
        PromptCatalog(
            specs=(fixed_spec("NoCoT"), fixed_spec("BeConcise"), fixed_spec("DefaultCoT"))
        ).save(catalog_path)

        def twice(argv: list[str]) -> None:
            """Run a record-reading command on an empty record cache (a miss), then
            again (a hit); both print and write the same bytes."""
            shutil.rmtree(isolated_record_cache, ignore_errors=True)
            out = Path(argv[argv.index("--out") + 1])
            runs = []
            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()) as printed:
                    assert main(argv) == 0
                runs.append((printed.getvalue(), out.read_bytes()))
            assert runs[0] == runs[1], f"{argv[0]} differs between a cache miss and a hit"

        def run_all(tag: str) -> dict[str, bytes]:
            d = tmp_path / tag
            d.mkdir()
            records = d / "records.jsonl"
            taus = d / "taus.json"
            comp = d / "complexity.json"
            budgets = d / "budgets.jsonl"
            collected = d / "collected.jsonl"
            assert main(["synth", "--out", str(records), "--n", "10", "--prompts", "6",
                         "--seed", "4", "--violation-rate", "0.1",
                         "--taus-out", str(taus)]) == 0
            twice(["complexity", "--records", str(records), "--out", str(comp)])
            twice(["predict", "--records", str(records), "--complexity", str(comp),
                   "--out", str(d / "validation.json")])
            assert main(["bounds", "--complexity", str(comp),
                         "--out", str(d / "frontier.csv")]) == 0
            twice(["bounds", "--records", str(records), "--out", str(d / "frontier_records.csv")])
            twice(["tradeoff", "--records", str(records), "--complexity", str(comp),
                   "--out", str(d / "tradeoff.csv")])
            budgets.write_text(
                "".join(
                    json.dumps({"question_id": f"q{i}", "budget": 40}) + "\n"
                    for i in range(10)
                ),
                encoding="utf-8",
            )
            twice(["routing", "--records", str(records), "--complexity", str(comp),
                   "--base-prompt", "p0", "--fallback-prompt", "p5",
                   "--budgets", str(budgets), "--family", "p0,p3,p5",
                   "--out", str(d / "routing.csv")])
            twice(["correlate", "--records", str(records), "--complexity", str(comp),
                   "--out", str(d / "correlate.csv")])
            twice(["adaptivity", "--records", str(records), "--split-prompt", "p5",
                   "--out", str(d / "adaptivity.csv")])
            with MockChatEndpoint(answers={"One plus one?": "2"}) as mock:
                assert main(["collect", "--endpoint", mock.url,
                             "--model", "mock-model", "--dataset", "mock-ds",
                             "--questions", str(questions),
                             "--catalog", str(catalog_path),
                             "--out", str(collected)]) == 0
            return {
                p.name: p.read_bytes()
                for p in sorted(d.iterdir())
                if p.is_file()
            }

        first = run_all("run1")
        second = run_all("run2")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
