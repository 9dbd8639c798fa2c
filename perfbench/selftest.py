"""Self-test of the benchmark's own helpers.

Run from the checkout root with ``python3 -m pytest perfbench/selftest.py``.
The file name does not match pytest's test_*.py pattern, so the repository's
test suite never collects it.
"""
from __future__ import annotations

import random
import statistics
import sys
from fractions import Fraction

import numpy as np
import pytest

from harness import (
    Launcher,
    Span,
    coverage,
    measure_child,
    median,
    percentile,
    quartiles,
    self_times,
    spread,
    tail_percentile,
)
import reference


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.5, 6.0, 5.5, 3.5]
    assert median(values) == statistics.median(values)
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5], 99.9) == 5


@pytest.mark.parametrize(
    "n, expected_p",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_p):
    values = [float(v) for v in range(n)]
    got = tail_percentile(values)
    if expected_p is None:
        assert got is None
    else:
        p, value = got
        assert p == expected_p
        assert sum(1 for v in values if v > value) >= 10


ALLOCATE_96_MB = (
    "import sys; block = bytearray(96 * 1024 * 1024); "
    "block[::4096] = b'x' * len(block[::4096]); sys.exit(3)"
)


def test_launcher_reports_peak_rss_wall_and_exit_code(tmp_path):
    with Launcher() as launcher:
        result = launcher.run("alloc", [sys.executable, "-c", ALLOCATE_96_MB], env={},
                              log_dir=tmp_path)
        small = launcher.run("small", [sys.executable, "-c", "pass"], env={}, log_dir=tmp_path)
    assert result.returncode == 3 and not result.ok
    assert result.rss_mb >= 96
    assert 0 < result.wall_s == result.end - result.start
    assert small.ok and small.rss_mb < 48


def test_launcher_children_do_not_inherit_the_callers_peak_rss(tmp_path):
    with Launcher() as launcher:
        ballast = bytearray(160 * 1024 * 1024)
        ballast[::4096] = b"x" * len(ballast[::4096])
        through_launcher = launcher.run("small", [sys.executable, "-c", "pass"], env={},
                                        log_dir=tmp_path)
        direct = measure_child([sys.executable, "-c", "pass"], {}, str(tmp_path / "d.out"),
                               str(tmp_path / "d.err"), 30.0)
        del ballast
    assert through_launcher.rss_mb < 48
    assert direct["rss_mb"] >= 160  # why the launcher exists


def _span(span_id, parent, name, start, end):
    return Span(span_id, parent, name, start, end, "w", "r")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, "bench.pass", 0.0, 10.0),
        _span(2, 1, "cli.process", 0.0, 9.0),
        _span(3, 2, "records.load_records", 1.0, 5.0),
        _span(4, 2, "collect.post", 4.0, 6.0),  # overlaps the load, as threads do
        _span(5, 2, "collect.post", 5.5, 6.5),
    ]
    got = self_times(spans)
    assert got["cli"] == pytest.approx(9.0 - 5.5)
    assert got["records"] == pytest.approx(4.0)
    assert got["collect"] == pytest.approx(3.0)
    assert coverage(spans, [(0.0, 10.0)]) == pytest.approx(0.9)


def _brute_tau(lengths, corrects):
    k = len(lengths)
    best_tau, best = float("inf"), Fraction(sum(1 for c in corrects if not c), k)
    for t in sorted(set(lengths)):
        acc = Fraction(sum(1 for v, c in zip(lengths, corrects) if (v >= t) == c), k)
        if acc > best or (acc == best and t < best_tau):
            best_tau, best = t, acc
    return best_tau, best


def test_reference_estimator_matches_the_per_question_rule():
    rng = np.random.default_rng(7)
    n, width = 300, 9
    tokens = rng.integers(0, 12, size=(n, width))
    correct = rng.random((n, width)) < 0.5
    present = rng.random((n, width)) < 0.8
    present[:, 0] = True
    m = reference.Matrix(tuple(f"q{i}" for i in range(n)), tuple(f"p{j}" for j in range(width)),
                         tokens, correct, present)
    est = reference.estimate(m)
    for i in range(n):
        row = present[i]
        tau, c_star = _brute_tau([int(v) for v in tokens[i, row]], [bool(c) for c in correct[i, row]])
        assert (est.tau[i], est.c_star(i)) == (tau, c_star)


def test_reference_routing_matches_per_question_loops():
    rng = random.Random(3)
    n, width = 200, 5
    tokens = np.array([[rng.randint(1, 30) for _ in range(width)] for _ in range(n)])
    correct = np.array([[rng.random() < 0.4 for _ in range(width)] for _ in range(n)])
    qids = tuple(f"q{i}" for i in range(n))
    m = reference.Matrix(qids, ("a", "b", "c", "d", "e"), tokens, correct, np.ones((n, width), bool))
    order = [2, 0, 4]
    solved = spent = 0
    for i in range(n):
        for j in order:
            spent += int(tokens[i, j])
            if correct[i, j]:
                solved += 1
                break
    assert reference.cascade(m, ["c", "a", "e"]) == (Fraction(solved, n), Fraction(spent, n))
    budgets = {q: rng.randint(0, 30) for q in qids[: n - 10]}
    solved = spent = 0
    for i, q in enumerate(qids):
        cells = [(int(tokens[i, j]), bool(correct[i, j])) for j in range(width)]
        fitting = [c for c in cells if c[0] <= budgets.get(q, 0)]
        choice = max(fitting, key=lambda c: c[0]) if fitting else min(cells, key=lambda c: c[0])
        spent += choice[0]
        solved += choice[1]
    assert reference.budget_route(m, budgets, list(m.prompt_ids)) == (Fraction(solved, n), Fraction(spent, n))


def test_frontier_invariants_flag_a_broken_curve():
    taus = [3.0, float("inf"), 1.0, 2.0]
    points = reference.frontier(taus, 4)
    assert points == [(Fraction(1, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(2, 4)),
                      (Fraction(6, 4), Fraction(3, 4))]
    assert reference.frontier_problems(points, taus, 4) == []
    assert reference.frontier_problems(points[:-1], taus, 4)
    assert reference.frontier_problems(list(reversed(points)), taus, 4)
