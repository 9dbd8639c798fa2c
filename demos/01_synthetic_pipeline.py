#!/usr/bin/env python3
"""Walkthrough: generate synthetic runs, estimate complexities, validate predictions.

The synthetic generator builds a run matrix where a cell is correct exactly
when its token length reaches the question's true complexity. Estimation
should then recover every complexity and predict per-prompt accuracy
perfectly. Run: python demos/01_synthetic_pipeline.py
"""
import numpy as np

from cotbudget import (
    INFINITE,
    OracleSpec,
    generate,
    profile,
    straddle_lengths,
    validation_report,
)

rng = np.random.default_rng(0)

# 40 questions: mostly solvable at 5..120 tokens, a few unsolvable at any length
taus = rng.integers(5, 121, size=40).tolist()
for i in rng.choice(40, size=6, replace=False):
    taus[i] = INFINITE

spec = OracleSpec(
    n=40,
    prompt_lengths=straddle_lengths(taus, n_prompts=15, shuffle_seed=0),
    taus=tuple(taus),
    violation_rate=0.0,
)
matrix, true_taus = generate(spec)
print(f"generated a {matrix.n_questions}x{matrix.n_prompts} run matrix "
      f"({int(matrix.correct.sum())} correct cells)")

# The profile keeps one int64 tau per question, -1 where it is infinite.
prof = profile(matrix)
truth = np.array([-1 if t == INFINITE else t for t in true_taus])
recovered = int((prof.tau == truth).sum())
print(f"recovered {recovered}/{len(true_taus)} true complexities exactly")
print(f"mean classifier accuracy c_bar = {float(prof.c_bar):.4f}")
print(f"max attainable accuracy A* = {float(prof.a_star):.4f}")
print(f"complexity mass tau_bar_over_n = {float(prof.tau_bar_over_n):.2f} tokens")

# With the hypothesis holding exactly, predicted accuracy matches actual
# accuracy for every prompt and the relative discrepancy is zero.
report = validation_report(matrix, prof)
print(f"\n{'prompt':<8} {'avg tokens':>10} {'accuracy':>9} {'predicted':>10}")
for row in report.per_prompt:
    print(f"{row.prompt_id:<8} {float(row.avg_tokens):>10.1f} "
          f"{float(row.accuracy):>9.3f} {float(row.predicted_accuracy):>10.3f}")
print(f"\nmean relative discrepancy Err = {float(report.err):.6f}")

# Now inject 10% violations: correctness no longer follows length exactly,
# so recovery degrades and Err becomes positive.
noisy_spec = OracleSpec(
    n=40,
    prompt_lengths=spec.prompt_lengths,
    taus=spec.taus,
    violation_rate=0.10,
    seed=1,
)
noisy_matrix, _ = generate(noisy_spec)
noisy_prof = profile(noisy_matrix)
noisy_report = validation_report(noisy_matrix, noisy_prof)
print(f"\nwith 10% violations: c_bar = {float(noisy_prof.c_bar):.4f}, "
      f"Err = {float(noisy_report.err):.4f}")
