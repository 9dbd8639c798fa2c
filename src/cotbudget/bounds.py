"""Oracle accuracy-compression frontier computed from estimated complexities.

Under the threshold model the best average-budget allocation is a unit-value
knapsack: sort questions by complexity and solve the cheapest ones until the
budget is spent. That greedy structure makes the frontier a right-continuous
step function with one breakpoint per prefix of the sorted finite
complexities. The profile caches those sorted complexities
(``sorted_finite_taus``) and their running totals (``tau_prefix_sums``) once,
as Python ints, so alpha_star is one bisection of the prefix sums, t_star one
lookup, and the frontier a slice of them. Every budget and accuracy shares
the denominator n, so the arithmetic stays on exact integer numerators and
a Fraction is built only for a value handed back to the caller.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .complexity import ComplexityProfile
from .errors import InfeasibleAccuracyError

Rational = int | float | Fraction


def _as_fraction(value: Rational, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a finite rational, got {value!r}") from exc


@dataclass(frozen=True)
class FrontierCurve:
    """Oracle tradeoff: accuracy as a step function of average budget.

    Step i sits at average budget ``budget_numerators[i] / n`` and reaches
    accuracy ``solved[i] / n``. Both columns are Python ints, so budget
    totals past 2**63 stay exact; the numerators strictly increase.
    ``breakpoints`` holds the same steps as (budget, accuracy) Fractions,
    built on first use.
    """

    n: int
    budget_numerators: tuple[int, ...]
    solved: tuple[int, ...]
    a_star: Fraction
    t_lossless: Fraction

    @cached_property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The exact (budget, accuracy) steps in increasing budget order."""
        n = self.n
        return tuple(
            (Fraction(p, n), Fraction(m, n)) for p, m in zip(self.budget_numerators, self.solved)
        )

    def alpha_at(self, budget: Rational) -> Fraction:
        """Step-function value: best accuracy attainable at the given average budget.

        Exact: a step p / n fits the budget t iff the integer p is at most
        floor(t * n), so the lookup bisects the numerators.
        """
        t = _as_fraction(budget, "budget")
        idx = bisect_right(self.budget_numerators, t.numerator * self.n // t.denominator)
        return Fraction(self.solved[idx - 1], self.n) if idx else Fraction(0)


def alpha_star(profile: ComplexityProfile, budget: Rational) -> Fraction:
    """Maximum accuracy under an average token budget per question.

    Greedy over ascending finite complexities: the answer is m/n where m is
    the longest prefix whose total cost fits n * budget, i.e. the number of
    (integer) prefix sums at or below floor(n * budget).
    """
    t = _as_fraction(budget, "budget")
    if t < 0:
        raise ValueError(f"budget must be non-negative, got {budget!r}")
    n = profile.n_questions
    return Fraction(bisect_right(profile.tau_prefix_sums, t.numerator * n // t.denominator), n)


def t_star(profile: ComplexityProfile, alpha: Rational) -> Fraction:
    """Minimum average token spend achieving accuracy alpha.

    Equals the mean of the ceil(alpha * n) smallest finite complexities over
    all n questions. Raises InfeasibleAccuracyError above A*.
    """
    a = _as_fraction(alpha, "alpha")
    if a < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha!r}")
    if a > profile.a_star:
        raise InfeasibleAccuracyError(a, profile.a_star)
    n = profile.n_questions
    m = math.ceil(a * n)
    return Fraction(profile.tau_prefix_sums[m - 1] if m else 0, n)


def lossless_bound(profile: ComplexityProfile) -> tuple[Fraction, Fraction]:
    """(A*, T*(A*)): max attainable accuracy and the average spend it requires."""
    return profile.a_star, profile.tau_bar_over_n


def frontier(profile: ComplexityProfile) -> FrontierCurve:
    """Exact frontier steps, one per prefix of the sorted finite complexities.

    Two prefixes cost the same only when the longer one adds a zero
    complexity, and zeros sort first, so of the leading zero-cost prefixes
    only the last (the highest accuracy) is a step.
    """
    prefix = profile.tau_prefix_sums
    start = max(bisect_right(profile.sorted_finite_taus, 0) - 1, 0)
    a_star_val, t_lossless = lossless_bound(profile)
    return FrontierCurve(
        n=profile.n_questions,
        budget_numerators=prefix[start:],
        solved=tuple(range(start + 1, len(prefix) + 1)),
        a_star=a_star_val,
        t_lossless=t_lossless,
    )
