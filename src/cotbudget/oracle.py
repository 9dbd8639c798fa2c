"""Synthetic run matrices that satisfy the threshold model by construction.

The generator is the constructive converse of the estimator: choose true
complexities, choose per-cell token lengths, and mark a cell correct exactly
when its length reaches the question's complexity (optionally flipping cells
at a controlled violation rate). Every estimator and bound in the package is
tested against matrices built here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .complexity import INFINITE, is_finite
from .errors import GenerationError, RecordSchemaError
from .inputs import NON_EMPTY_STRING, NULL_OR_TOKENS, checked, read_json
from .records import RunMatrix

# random_spec's inclusive range of finite taus, and its share of infinite ones.
TAU_RANGE = (4, 160)
INFINITE_SHARE = 1 / 6


def _float_taus(taus: Sequence[float]) -> np.ndarray | None:
    """The taus as one float64 array when each is a Python float or int, else None.

    numpy converts a Python int as float() does, and truncating a float is
    exact, so float(int(t)) and the checks on int(t) can be read from this
    array. Other types take the per-question path: float(Fraction(2**54 - 1, 2))
    rounds up to 2**53, but int() of it truncates to 2**53 - 1. An int too large
    for a float also gives None, so the per-question path raises what it raised.
    """
    if not set(map(type, taus)) <= {float, int}:
        return None
    try:
        return np.array(taus, dtype=float)
    except OverflowError:
        return None


def straddle_lengths(
    taus: Sequence[float],
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

    A finite tau is anchored at float(int(tau)); a NaN raises what int()
    raises.
    """
    if n_prompts < 2:
        raise ValueError("straddle_lengths needs at least 2 prompts")
    values = _float_taus(taus)
    if values is None or np.isnan(values).any():
        values = np.array([int(t) if is_finite(t) else INFINITE for t in taus], dtype=float)
    finite = ~np.isinf(values)
    anchors = np.trunc(values)
    if not finite.all():
        anchors[~finite] = 2 * int(anchors[finite].max()) if finite.any() else 64
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
    int64 array, with non-integer values truncated toward zero. Specs
    compare and hash by identity.
    """

    n: int
    prompt_lengths: np.ndarray
    taus: tuple[float, ...]
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
        values = _float_taus(self.taus)
        finite = None if values is None else values[~np.isinf(values)]
        if finite is None or not ((np.trunc(finite) == finite) & (finite >= 1)).all():
            for t in self.taus:  # names the first bad tau; int() of a NaN raises
                if is_finite(t) and (int(t) != t or t < 1):
                    raise ValueError(f"finite taus must be positive integers, got {t!r}")


def generate(spec: OracleSpec) -> tuple[RunMatrix, tuple[float, ...]]:
    """Build the matrix for a spec; returns it with the true taus.

    Raises GenerationError when some finite-complexity question lacks runs on
    both sides of its threshold (the straddle guarantee), since such a
    question could never be estimated.
    """
    lengths = np.broadcast_to(spec.prompt_lengths, (spec.n, spec.prompt_lengths.shape[1]))
    negative = lengths < 0
    if negative.any():
        row, col = np.argwhere(negative)[0]
        raise GenerationError(f"prompt_lengths holds {lengths[row, col]} at cell ({row}, {col})")
    # A valid spec's finite taus are positive, so abs only turns -inf into inf.
    tau_col = np.abs(np.array(spec.taus, dtype=float)).reshape(-1, 1)
    correct = lengths >= tau_col
    straddled = correct.any(axis=1) & ~correct.all(axis=1)
    unstraddled = np.isfinite(tau_col[:, 0]) & ~straddled
    if unstraddled.any():
        i = int(np.argmax(unstraddled))
        row = lengths[i]
        raise GenerationError(
            f"question {i} (tau={int(spec.taus[i])}) has no straddling lengths: "
            f"min={int(row.min())}, max={int(row.max())}"
        )
    if spec.violation_rate > 0:
        rng = np.random.default_rng(spec.seed)
        flips = rng.random(lengths.shape) < spec.violation_rate
        correct = correct ^ flips
    qw = len(str(max(spec.n - 1, 0)))
    pw = len(str(max(lengths.shape[1] - 1, 0)))
    matrix = RunMatrix(
        model=spec.model,
        dataset=spec.dataset,
        question_ids=tuple(f"q{i:0{qw}d}" for i in range(spec.n)),
        prompt_ids=tuple(f"p{k:0{pw}d}" for k in range(lengths.shape[1])),
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
    taus = rng.integers(lo, hi + 1, size=n).astype(float)
    n_inf = int(round(INFINITE_SHARE * n))
    if n_inf:
        taus[rng.choice(n, size=n_inf, replace=False)] = INFINITE
    taus = taus.tolist()
    return OracleSpec(
        n=n,
        prompt_lengths=straddle_lengths(taus, n_prompts, shuffle_seed=seed),
        taus=tuple(taus),
        violation_rate=violation_rate,
        seed=seed,
    )


def save_taus(taus: Sequence[float], question_ids: Sequence[str], path: str | Path) -> None:
    """Ground-truth sidecar: question_id -> true tau (null for infinite)."""
    payload = {
        "taus": {
            q: (int(t) if is_finite(t) else None) for q, t in zip(question_ids, taus)
        }
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_taus(path: str | Path) -> dict[str, int | float]:
    """Read a sidecar written by save_taus; bad content is a RecordParseError or a
    RecordSchemaError naming the file and the JSON location (``taus.q1``).

    A finite tau loads as the exact Python int the file holds; null loads as
    INFINITE.
    """
    payload = read_json(path)
    try:
        if type(payload) is not dict:
            raise RecordSchemaError(f"the file must hold a JSON object, got {payload!r:.60}")
        taus = checked(payload, "taus", "", _OBJECT)
        out = {}
        for qid in taus:
            if not NON_EMPTY_STRING[0](qid):
                raise RecordSchemaError(f"taus keys must be non-empty strings, got {qid!r}")
            tau = checked(taus, qid, "taus", NULL_OR_TOKENS)
            out[qid] = INFINITE if tau is None else tau
    except RecordSchemaError as exc:
        raise RecordSchemaError(exc.reason, path=str(path)) from None
    return out


_OBJECT = (lambda v: type(v) is dict, "be an object")
