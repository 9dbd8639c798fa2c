from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from cotbudget.complexity import INFINITE
from cotbudget.oracle import OracleSpec, generate, straddle_lengths
from cotbudget.records import EvalRecord, RunMatrix


def make_record(qid="q1", pid="p1", tokens=10, correct=True, model="m", dataset="d", **kw):
    return EvalRecord(
        model=model,
        dataset=dataset,
        question_id=qid,
        prompt_id=pid,
        tokens=tokens,
        correct=correct,
        **kw,
    )


def make_matrix(tokens, correct, present=None, model="m", dataset="d"):
    """RunMatrix from plain nested lists, auto-naming questions and prompts."""
    tokens = np.asarray(tokens)
    n, k = tokens.shape
    if present is None:
        present = np.ones((n, k), dtype=bool)
    return RunMatrix(
        model=model,
        dataset=dataset,
        question_ids=tuple(f"q{i:02d}" for i in range(n)),
        prompt_ids=tuple(f"p{j:02d}" for j in range(k)),
        tokens=tokens,
        correct=np.asarray(correct, dtype=bool),
        present=np.asarray(present, dtype=bool),
    )


ROW_KINDS = ("mixed", "all_correct", "all_wrong", "single_run")


@st.composite
def run_matrices(draw, max_questions=8, max_prompts=8, max_tokens=6, absent_share=0.2,
                 empty_rows=False):
    """Small RunMatrix with masked cells and lengths drawn from a narrow range.

    A narrow token range makes tied and zero lengths common. Each row is
    mixed, all correct, all wrong or has a single present run (k_i = 1).
    Every row keeps at least one present run unless empty_rows is set.
    """
    n = draw(st.integers(1, max_questions))
    k = draw(st.integers(1, max_prompts))
    cells = st.lists(st.integers(0, max_tokens), min_size=k, max_size=k)
    tokens, correct, present = [], [], []
    for _ in range(n):
        kind = draw(st.sampled_from(ROW_KINDS))
        tokens.append(draw(cells))
        if kind == "mixed":
            correct.append(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
        else:
            correct.append([kind == "all_correct"] * k)
        if kind == "single_run":
            keep = draw(st.integers(0, k - 1))
            row = [j == keep for j in range(k)]
        else:
            row = [draw(st.floats(0, 1)) >= absent_share for _ in range(k)]
            if not any(row) and not empty_rows:
                row[draw(st.integers(0, k - 1))] = True
        present.append(row)
    return make_matrix(tokens, correct, present)


@pytest.fixture
def oracle_matrix():
    """Violation-free 3-question fixture with taus (10, 20, inf)."""
    spec = OracleSpec(
        n=3,
        prompt_lengths=straddle_lengths([10, 20, INFINITE], 6),
        taus=(10, 20, INFINITE),
    )
    matrix, taus = generate(spec)
    return matrix, taus
