from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from cotbudget.complexity import INFINITE, profile
from cotbudget.oracle import OracleSpec, generate, straddle_lengths
from cotbudget.records import EvalRecord, Ids, RunMatrix


@pytest.fixture(autouse=True)
def isolated_record_cache(tmp_path_factory, monkeypatch):
    """Give each test an empty record cache of its own, never the user's ~/.cache.

    Subprocesses a test starts inherit the variable.
    """
    folder = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(folder))
    return folder / "cotbudget"


@pytest.fixture
def clean_env(monkeypatch):
    """No proxy, CA bundle or API key variables from the caller's environment.

    Subprocesses a test starts inherit the cleaned environment.
    """
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
                 "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE", "COTBUDGET_API_KEY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)
    return monkeypatch


def without_usage(reply: dict) -> dict:
    """A MockChatEndpoint rewrite: the reply without its usage object."""
    reply.pop("usage", None)
    return reply


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


def count_ids(monkeypatch) -> list[tuple]:
    """The arguments of every Ids built from now on, in a list that grows; an
    Ids handed back as it is was not built."""
    built, new = [], Ids.__new__

    def counting(cls, *args):
        ids = new(cls, *args)
        if ids is not args[0]:
            built.append(args)
        return ids

    monkeypatch.setattr(Ids, "__new__", staticmethod(counting))
    return built


def estimate_one(lengths, corrects):
    """profile's entry for a one-question matrix ("q00") holding the given runs."""
    return profile(make_matrix([lengths], [corrects])).entries[0]


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


def with_cells(matrix, cells, values):
    """A copy of matrix with each (row, column) of cells present and holding its value."""
    tokens, present = matrix.tokens.copy(), matrix.present.copy()
    for (i, j), value in zip(cells, values):
        tokens[i, j] = value
        present[i, j] = True
    return make_matrix(tokens, matrix.correct, present)


def some_cells(data, matrix, max_size=4):
    """Draw distinct (row, column) positions of matrix, at least one."""
    n, k = matrix.tokens.shape
    position = st.tuples(st.integers(0, n - 1), st.integers(0, k - 1))
    return data.draw(st.lists(position, min_size=1, max_size=max_size, unique=True))


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
