"""Kill `cotbudget collect` part-way, then resume until no cell is left.

A sweep runs as one child process against an in-process mock whose replies
take about 5 ms. The child gets SIGKILL at seeded points: once k records are
on disk, while it retries dropped connections and error replies, and once k
failures are in the sidecar. Resumes then run to completion. Whatever the
kill left, every cell must end up exactly once across the records file and
the sidecar, the files must read, and the matrix must equal that of a sweep
that was never interrupted. The children run one at a time.
"""
from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cotbudget.cli import main
from cotbudget.inputs import read_jsonl
from cotbudget.mockserver import MockChatEndpoint
from cotbudget.prompts import PromptCatalog, fixed_spec
from cotbudget.records import read_matrices

SRC = Path(__file__).resolve().parent.parent / "src"
QUESTIONS = 8
PROMPTS = ("NoCoT", "BeConcise", "DefaultCoT", "BulletPoints")
CELLS = QUESTIONS * len(PROMPTS)
MAX_RESUMES = 3
# Records on disk at the kill; at most CELLS - 3, so the two replies in flight
# cannot finish the sweep first.
KILL_AFTER = random.Random(1).sample(range(1, CELLS - 2), 3)
# The mock drops the first DROPS requests, then fails the next FAILS; the kill
# comes once it has seen k of them, so the child is retrying.
DROPS, FAILS = 2, 4
KILL_AFTER_REQUESTS = random.Random(2).sample(range(1, DROPS + FAILS + 1), 2)
# Failures in the sidecar at the kill; the odd questions' cells fail once.
KILL_AFTER_FAILURES = random.Random(3).sample(range(1, 9), 2)


def slow_reply(question_text: str, body: dict) -> tuple[str, int]:
    """About 5 ms a reply; the count and the answer vary with the prompt."""
    time.sleep(0.005)
    prompt = body["messages"][0]["content"]
    answer = question_text.split()[-1] if len(prompt) % 3 else "wrong"
    return f"Answer: {answer}", len(prompt) % 50


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """(collect argv without --endpoint and --out, the records of an uninterrupted sweep)."""
    base = tmp_path_factory.mktemp("kill-inputs")
    questions = base / "questions.jsonl"
    questions.write_text("".join(
        json.dumps({"question_id": f"q{i}", "text": f"Echo {i}", "gold_answer": str(i)}) + "\n"
        for i in range(QUESTIONS)
    ))
    catalog = base / "catalog.json"
    PromptCatalog(specs=tuple(fixed_spec(family) for family in PROMPTS)).save(catalog)
    argv = ["collect", "--model", "m", "--dataset", "d", "--questions", str(questions),
            "--catalog", str(catalog), "--max-parallel", "2"]
    whole = base / "whole.jsonl"
    with MockChatEndpoint(reply_fn=slow_reply) as mock:
        assert main([*argv, "--endpoint", mock.url, "--out", str(whole)]) == 0
    return argv, whole


def cli(*argv: str) -> list[str]:
    return [sys.executable, "-c", "import sys; from cotbudget.cli import main; sys.exit(main())",
            *argv]


def line_count(path: Path) -> int:
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def kill_then_resume(argv, out, mock, killed, *options):
    """Run one sweep child until killed(), SIGKILL it, then resume until no cell is left."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    args = [*argv, "--endpoint", mock.url, "--out", str(out), *options]
    child = subprocess.Popen(cli(*args), env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while child.poll() is None and not killed():
            assert time.monotonic() < deadline, "the sweep stalled"
            time.sleep(0.001)
        child.send_signal(signal.SIGKILL)
    finally:
        _, err = child.communicate(timeout=60)
    assert child.returncode in (0, -signal.SIGKILL), err.decode()
    for _ in range(MAX_RESUMES):
        done = subprocess.run(cli(*args, "--resume"), env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        if read_matrices(out)["m", "d"].present.sum() == CELLS:
            return
    pytest.fail(f"cells still missing after {MAX_RESUMES} resumes")


def assert_each_cell_once(out: Path, whole: Path) -> None:
    sidecar = out.with_suffix(".failures.jsonl")
    recorded = [(obj["question_id"], obj["prompt_id"]) for _, obj in read_jsonl(out)]
    failed = [(obj["question_id"], obj["prompt_id"]) for _, obj in read_jsonl(sidecar)] \
        if sidecar.exists() else []
    assert len(recorded) + len(failed) == CELLS
    assert len(set(recorded + failed)) == CELLS
    assert read_matrices(out) == read_matrices(whole)


@pytest.mark.parametrize("kill_after", KILL_AFTER)
def test_killed_sweep_resumes_to_the_uninterrupted_matrix(sweep_inputs, tmp_path, kill_after):
    argv, whole = sweep_inputs
    out = tmp_path / "records.jsonl"
    with MockChatEndpoint(reply_fn=slow_reply) as mock:
        kill_then_resume(argv, out, mock, lambda: line_count(out) >= kill_after)
    assert_each_cell_once(out, whole)


@pytest.mark.parametrize("kill_after", KILL_AFTER_REQUESTS)
def test_sweep_killed_while_retrying_resumes(sweep_inputs, tmp_path, kill_after):
    argv, whole = sweep_inputs
    out = tmp_path / "records.jsonl"
    with MockChatEndpoint(reply_fn=slow_reply, drop_first=DROPS, fail_first=FAILS,
                          fail_status=503) as mock:
        # One retry a cell, so a cell that meets two faults goes to the sidecar.
        kill_then_resume(argv, out, mock, lambda: mock.request_count >= kill_after,
                         "--retries", "1")
        assert mock.drop_remaining == mock.fail_remaining == 0
    assert_each_cell_once(out, whole)


@pytest.mark.parametrize("kill_after", KILL_AFTER_FAILURES)
def test_sweep_killed_among_sidecar_writes_resumes(sweep_inputs, tmp_path, kill_after):
    argv, whole = sweep_inputs
    out = tmp_path / "records.jsonl"
    sidecar = out.with_suffix(".failures.jsonl")
    failed_once: set[str] = set()

    def odd_questions_fail_once(question_text, body):
        content, tokens = slow_reply(question_text, body)
        prompt = body["messages"][0]["content"]
        if int(question_text.split()[-1]) % 2 and prompt not in failed_once:
            failed_once.add(prompt)
            return content, None  # no usage: the cell fails without a retry
        return content, tokens

    with MockChatEndpoint(reply_fn=odd_questions_fail_once) as mock:
        kill_then_resume(argv, out, mock, lambda: line_count(sidecar) >= kill_after)
    assert len(failed_once) == CELLS // 2
    assert_each_cell_once(out, whole)
