"""Synthetic run matrices that satisfy the threshold model by construction.

The generator is the constructive converse of the estimator: choose true
complexities, choose per-cell token lengths, and mark a cell correct exactly
when its length reaches the question's complexity (optionally flipping cells
at a controlled violation rate). Every estimator and bound in the package is
tested against matrices built here.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import GenerationError
from .inputs import INFINITE, TOKENS_MAX, write_json
from .records import RunMatrix

# random_spec's inclusive range of finite taus, and its share of infinite ones.
TAU_RANGE = (4, 160)
INFINITE_SHARE = 1 / 6


def _tau_column(taus: Sequence[int | float]) -> np.ndarray:
    """The taus as one int64 column, -1 where a tau is INFINITE.

    A finite tau is a Python int in [1, TOKENS_MAX] and an infinite one is
    INFINITE. Anything else (a float, a Fraction, a bool, a numpy scalar,
    -inf, NaN) is a ValueError naming the first such tau.
    """
    for t in taus:
        if not (type(t) is int and 1 <= t <= TOKENS_MAX or type(t) is float and t == INFINITE):
            raise ValueError(f"taus must be integers in [1, {TOKENS_MAX}] or INFINITE, got {t!r}")
    return np.array([-1 if type(t) is float else t for t in taus], dtype=np.int64)


def straddle_lengths(
    taus: Sequence[int | float],
    n_prompts: int,
    shuffle_seed: int | None = None,
) -> np.ndarray:
    """Lengths spread geometrically around each question's true complexity.

    Returns the (len(taus), n_prompts) int64 lengths. The factor grid always
    contains values below 1 and the value 1 exactly, so every
    finite-complexity question gets runs on both sides of its threshold and
    one run of exactly threshold length (which makes the estimate recover
    the true value). Infinite-complexity questions reuse a long proxy
    length; their runs are all incorrect regardless.

    Without shuffling, a prompt's factor is the same for every question, so
    prompts solve all finite questions or none. shuffle_seed permutes the
    factor assignment per question, giving prompts graded accuracies while
    keeping each question's length multiset (and thus recovery) intact. The
    permutations come from one call that shuffles every row in order, which
    draws the same stream as one ``rng.permutation(n_prompts)`` per question.

    The taus follow OracleSpec's rule. A finite tau is anchored at its
    float64 value, and every length is floor(factor * anchor) in float64, so
    a finite tau past 2**53, where float64 stops holding every int, is a
    ValueError naming the first one.
    """
    if n_prompts < 2:
        raise ValueError("straddle_lengths needs at least 2 prompts")
    tau = _tau_column(taus)
    too_long = tau > 2**53
    if too_long.any():
        first = int(tau[np.argmax(too_long)])
        raise ValueError(f"straddle_lengths needs finite taus of at most 2**53, got {first}")
    anchors = tau.astype(float)
    longest = int(tau.max(initial=0))
    anchors[tau < 0] = 2 * longest if longest > 0 else 64
    n_below = max(1, (n_prompts - 1) // 2)
    n_above = n_prompts - 1 - n_below
    factors = np.array(
        [0.25 + 0.65 * b / max(1, n_below) for b in range(n_below)]
        + [1.0]
        + [1.0 + 1.0 * (a + 1) / max(1, n_above) for a in range(n_above)]
    )
    if shuffle_seed is None:
        cell_factors = np.broadcast_to(factors, (anchors.size, n_prompts))
    else:
        order = np.tile(np.arange(n_prompts), (anchors.size, 1))
        np.random.default_rng(shuffle_seed).permuted(order, axis=1, out=order)
        cell_factors = factors[order]
    return np.floor(cell_factors * anchors[:, None]).astype(np.int64)


@dataclass(frozen=True, eq=False)
class OracleSpec:
    """Recipe for one synthetic matrix; identical specs generate identical matrices.

    ``prompt_lengths`` holds the token length of every cell: an (n, K) array,
    or a (1, K) one that every question shares. It is kept as a read-only
    int64 array, with non-integer values truncated toward zero. ``taus``
    holds each question's true complexity: a Python int in [1, TOKENS_MAX],
    or INFINITE; any other tau is a ValueError naming the first one. Specs
    compare and hash by identity.
    """

    n: int
    prompt_lengths: np.ndarray
    taus: tuple[int | float, ...]
    violation_rate: float = 0.0
    seed: int = 0
    model: str = "oracle"
    dataset: str = "synthetic"

    def __post_init__(self) -> None:
        lengths = np.array(self.prompt_lengths, dtype=np.int64)
        lengths.setflags(write=False)
        object.__setattr__(self, "prompt_lengths", lengths)
        object.__setattr__(self, "taus", tuple(self.taus))
        if lengths.ndim != 2 or lengths.shape[0] not in (1, self.n):
            raise ValueError(f"prompt_lengths must be (1, K) or (n, K), got shape {lengths.shape}")
        if len(self.taus) != self.n:
            raise ValueError(f"need {self.n} taus, got {len(self.taus)}")
        if not 0.0 <= self.violation_rate <= 1.0:
            raise ValueError(f"violation_rate must be in [0, 1], got {self.violation_rate}")
        # The checked column, kept so generate need not check the taus again.
        tau = _tau_column(self.taus)
        tau.setflags(write=False)
        object.__setattr__(self, "_tau", tau)


def generate(spec: OracleSpec) -> tuple[RunMatrix, tuple[int | float, ...]]:
    """Build the matrix for a spec; returns it with the true taus, spec.taus.

    A cell is correct when its length reaches its question's finite tau,
    compared exactly in int64; no length reaches INFINITE.

    Raises GenerationError when some finite-complexity question lacks runs on
    both sides of its threshold (the straddle guarantee), since such a
    question could never be estimated.
    """
    lengths = np.broadcast_to(spec.prompt_lengths, (spec.n, spec.prompt_lengths.shape[1]))
    negative = lengths < 0
    if negative.any():
        row, col = np.argwhere(negative)[0]
        raise GenerationError(f"prompt_lengths holds {lengths[row, col]} at cell ({row}, {col})")
    tau = spec._tau
    finite = tau >= 0
    correct = (lengths >= tau[:, None]) & finite[:, None]
    straddled = correct.any(axis=1) & ~correct.all(axis=1)
    unstraddled = finite & ~straddled
    if unstraddled.any():
        i = int(np.argmax(unstraddled))
        row = lengths[i]
        raise GenerationError(
            f"question {i} (tau={spec.taus[i]}) has no straddling lengths: "
            f"min={int(row.min())}, max={int(row.max())}"
        )
    if spec.violation_rate > 0:
        rng = np.random.default_rng(spec.seed)
        flips = rng.random(lengths.shape) < spec.violation_rate
        correct = correct ^ flips
    qw = len(str(spec.n - 1))
    pw = len(str(lengths.shape[1] - 1))
    matrix = RunMatrix(
        model=spec.model,
        dataset=spec.dataset,
        question_ids=tuple("q" + str(i).zfill(qw) for i in range(spec.n)),
        prompt_ids=tuple("p" + str(k).zfill(pw) for k in range(lengths.shape[1])),
        tokens=lengths,
        correct=correct,
        present=np.ones(lengths.shape, dtype=bool),
    )
    return matrix, spec.taus


def random_spec(
    n: int, seed: int = 0, violation_rate: float = 0.0, n_prompts: int = 31
) -> OracleSpec:
    """Seeded random spec with difficulty-correlated straddling lengths.

    Taus are drawn uniformly from TAU_RANGE; a share INFINITE_SHARE of the
    questions, rounded, gets an infinite complexity instead. Each quantity
    is one generator call over all n questions, which draws the same stream
    as one call per question. n must be at least 1.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    rng = np.random.default_rng(seed)
    lo, hi = TAU_RANGE
    taus = rng.integers(lo, hi + 1, size=n).tolist()
    n_inf = int(round(INFINITE_SHARE * n))
    if n_inf:
        for i in rng.choice(n, size=n_inf, replace=False).tolist():
            taus[i] = INFINITE
    return OracleSpec(
        n=n,
        prompt_lengths=straddle_lengths(taus, n_prompts, shuffle_seed=seed),
        taus=tuple(taus),
        violation_rate=violation_rate,
        seed=seed,
    )


def save_taus(
    taus: Sequence[int | float], question_ids: Sequence[str], path: str | Path
) -> None:
    """Ground-truth sidecar: question_id -> true tau (null for INFINITE).

    The taus follow OracleSpec's rule. Taus and ids of different lengths, or
    a repeated id, are a ValueError raised before the file is opened.
    """
    if len(taus) != len(question_ids):
        raise ValueError(f"{len(taus)} taus for {len(question_ids)} question ids")
    if len(set(question_ids)) != len(question_ids):
        raise ValueError("question ids must not repeat")
    by_id = sorted(zip(question_ids, _tau_column(taus).tolist()))
    write_json(path, {"taus": {q: (t if t >= 0 else None) for q, t in by_id}})
