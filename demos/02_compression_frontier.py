#!/usr/bin/env python3
"""Walkthrough: the oracle accuracy-compression frontier and the lossless bound.

Once per-question complexities are known, the best possible accuracy under an
average token budget is a greedy knapsack: solve the cheapest questions
first. The frontier below is that step function; its right endpoint T*(A*)
is the cheapest average spend that still reaches maximum accuracy.
Run: python demos/02_compression_frontier.py
"""
import numpy as np

from cotbudget import (
    INFINITE,
    OracleSpec,
    alpha_star,
    frontier,
    generate,
    lossless_bound,
    profile,
    prompt_table,
    straddle_lengths,
    t_star,
)

rng = np.random.default_rng(7)
taus = rng.integers(10, 200, size=60).tolist()
for i in rng.choice(60, size=8, replace=False):
    taus[i] = INFINITE

spec = OracleSpec(n=60, prompt_lengths=straddle_lengths(taus, 21), taus=tuple(taus))
matrix, _ = generate(spec)
prof = profile(matrix)

a_star, t_lossless = lossless_bound(prof)
print(f"max attainable accuracy A* = {float(a_star):.4f}")
print(f"lossless compression bound T*(A*) = {float(t_lossless):.2f} tokens/question")

curve = frontier(prof)
print(f"\nfrontier has {len(curve.breakpoints)} exact breakpoints; sampled view:")
print(f"{'budget':>10} {'best accuracy':>14}")
for i in range(12):
    budget = t_lossless * i / 11
    accuracy = curve.alpha_at(budget)
    bar = "#" * int(40 * float(accuracy))
    print(f"{float(budget):>10.1f} {float(accuracy):>14.3f}  {bar}")

# Compare what prompts actually spend against the bound. The most verbose
# prompt solves everything solvable but pays far more than T*(A*).
rows = prompt_table(matrix, prof)
verbose = max(rows, key=lambda r: r.avg_tokens)
print(f"\nmost verbose prompt {verbose.prompt_id}: "
      f"{float(verbose.avg_tokens):.1f} tokens at accuracy {float(verbose.accuracy):.3f}")
print(f"same accuracy is reachable at {float(t_star(prof, verbose.accuracy)):.1f} tokens")
print(f"potential reduction: "
      f"{float(verbose.avg_tokens) / float(t_star(prof, verbose.accuracy)):.2f}x")

# Budget sweep: how much accuracy does each extra token of budget buy?
print(f"\n{'budget':>8} {'alpha*(budget)':>15}")
for budget in (0, 10, 25, 50, 100, 200):
    print(f"{budget:>8} {float(alpha_star(prof, budget)):>15.3f}")
