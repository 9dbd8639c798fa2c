"""Oracle accuracy-compression frontier computed from estimated complexities.

Under the threshold model the best average-budget allocation is a unit-value
knapsack: sort questions by complexity and solve the cheapest ones until the
budget is spent. That greedy structure makes the frontier a right-continuous
step function with one breakpoint per prefix of the sorted finite
complexities. The profile caches those sorted complexities and their
prefix sums once, so alpha_star is one bisection of the prefix sums and
t_star one lookup. All arithmetic is exact (integer sums over Fractions),
so breakpoint equalities are exact.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

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
    """Sampled oracle tradeoff: accuracy as a step function of average budget.

    ``breakpoints`` holds the exact (budget, accuracy) steps in increasing
    budget order; ``plot_points`` is a densified rendering for display only.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    a_star: Fraction
    t_lossless: Fraction
    plot_points: tuple[tuple[Fraction, Fraction], ...] = ()

    def alpha_at(self, budget: Rational) -> Fraction:
        """Step-function value: best accuracy attainable at the given average budget."""
        t = _as_fraction(budget, "budget")
        idx = bisect_right(self.breakpoints, t, key=itemgetter(0))
        return self.breakpoints[idx - 1][1] if idx else Fraction(0)


def alpha_star(profile: ComplexityProfile, budget: Rational) -> Fraction:
    """Maximum accuracy under an average token budget per question.

    Greedy over ascending finite complexities: the answer is m/n where m is
    the longest prefix whose total cost fits n * budget, i.e. the number of
    prefix sums at or below it.
    """
    t = _as_fraction(budget, "budget")
    if t < 0:
        raise ValueError(f"budget must be non-negative, got {budget!r}")
    n = profile.n_questions
    return Fraction(bisect_right(profile.tau_prefix_sums, n * t), n)


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
    prefix = profile.tau_prefix_sums
    return profile.a_star, Fraction(prefix[-1] if prefix else 0, profile.n_questions)


def frontier(profile: ComplexityProfile, samples: int = 2) -> FrontierCurve:
    """Exact frontier breakpoints, one per prefix of the sorted finite complexities.

    ``samples`` only controls the densified plot_points grid (>= 2); the
    breakpoints themselves are always exact and complete.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    n = profile.n_questions
    breakpoints: list[tuple[Fraction, Fraction]] = []
    last_prefix = None
    for m, prefix in enumerate(profile.tau_prefix_sums, start=1):
        point = (Fraction(prefix, n), Fraction(m, n))
        if prefix == last_prefix:
            breakpoints[-1] = point  # zero-cost tie: keep the higher accuracy
        else:
            breakpoints.append(point)
        last_prefix = prefix
    a_star_val, t_lossless = lossless_bound(profile)
    curve = FrontierCurve(
        breakpoints=tuple(breakpoints), a_star=a_star_val, t_lossless=t_lossless
    )
    if breakpoints:
        step = t_lossless / (samples - 1)
        grid = tuple(
            (step * i, curve.alpha_at(step * i)) for i in range(samples)
        )
    else:
        grid = ()
    return FrontierCurve(
        breakpoints=curve.breakpoints,
        a_star=a_star_val,
        t_lossless=t_lossless,
        plot_points=grid,
    )
