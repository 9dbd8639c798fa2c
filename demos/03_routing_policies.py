#!/usr/bin/env python3
"""Walkthrough: replaying adaptive routing policies against recorded runs.

Two policies from the analysis toolkit, replayed over the same matrix:
verifier routing (try the cheapest prompt, escalate only on a verified
miss) and budget routing (per question, pick the longest recorded run that
fits a predicted budget). Both are scored against the oracle frontier.
Run: python demos/03_routing_policies.py
"""
import numpy as np

from cotbudget import (
    INFINITE,
    OracleSpec,
    budget_route,
    compare_to_frontier,
    frontier,
    generate,
    profile,
    prompt_table,
    straddle_lengths,
    verifier_cascade,
)

rng = np.random.default_rng(21)
taus = rng.integers(5, 150, size=50).tolist()
for i in rng.choice(50, size=7, replace=False):
    taus[i] = INFINITE

spec = OracleSpec(
    n=50,
    prompt_lengths=straddle_lengths(taus, 13, shuffle_seed=21),
    taus=tuple(taus),
)
matrix, true_taus = generate(spec)
prof = profile(matrix)
curve = frontier(prof)

cheap, mid, verbose = matrix.prompt_ids[0], matrix.prompt_ids[6], matrix.prompt_ids[-1]
rows = {r.prompt_id: r for r in prompt_table(matrix, prof)}
print("static prompts for reference:")
for pid in (cheap, mid, verbose):
    r = rows[pid]
    print(f"  {pid}: accuracy {float(r.accuracy):.3f} at {float(r.avg_tokens):.1f} tokens")

outcomes = [
    verifier_cascade(matrix, [cheap, verbose]),
    verifier_cascade(matrix, [cheap, mid, verbose]),
]

# Budget routing with a perfect difficulty signal: budget = true complexity.
budgets = {
    qid: t if t != INFINITE else 1
    for qid, t in zip(matrix.question_ids, true_taus)
}
outcomes.append(budget_route(matrix, budgets, list(matrix.prompt_ids)))

print("\nrouted policies vs the oracle frontier:")
print(f"{'policy':<42} {'accuracy':>9} {'tokens':>8} {'gap':>7}")
for (policy_id, gap), outcome in zip(compare_to_frontier(outcomes, curve), outcomes):
    print(f"{policy_id:<42} {float(outcome.accuracy):>9.3f} "
          f"{float(outcome.avg_tokens):>8.1f} {float(gap):>7.3f}")

print("\nper-question trace of the two-stage verifier (first 8 questions):")
verifier = outcomes[0]
for i, qid in enumerate(matrix.question_ids[:8]):
    path = " -> ".join(verifier.path(i))
    print(f"  {qid}: {path:<14} spent {verifier.spent[i]:>4} tokens, "
          f"{'solved' if verifier.correct[i] else 'missed'}")
