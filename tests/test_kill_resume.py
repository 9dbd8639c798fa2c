"""Kill `cotbudget collect` part-way, then resume until no cell is left.

A sweep runs as one child process against an in-process mock whose replies
take about 5 ms. The child gets SIGKILL once k records are on disk, for three
seeded values of k. Resumes then run to completion. Whatever the kill left,
every cell must end up in the records file exactly once, the files must read,
and the matrix must equal that of a sweep that was never interrupted. The
children run one at a time.
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


@pytest.mark.parametrize("kill_after", KILL_AFTER)
def test_killed_sweep_resumes_to_the_uninterrupted_matrix(sweep_inputs, tmp_path, kill_after):
    argv, whole = sweep_inputs
    out = tmp_path / "records.jsonl"
    sidecar = out.with_suffix(".failures.jsonl")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with MockChatEndpoint(reply_fn=slow_reply) as mock:
        args = [*argv, "--endpoint", mock.url, "--out", str(out)]
        child = subprocess.Popen(cli(*args), env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while child.poll() is None and line_count(out) < kill_after:
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
            if len(read_matrices(out)["m", "d"].cells()) == CELLS:
                break
        else:
            pytest.fail(f"cells still missing after {MAX_RESUMES} resumes")

    recorded = [(obj["question_id"], obj["prompt_id"]) for _, obj in read_jsonl(out)]
    failed = [(obj["question_id"], obj["prompt_id"]) for _, obj in read_jsonl(sidecar)] \
        if sidecar.exists() else []
    assert len(recorded) + len(failed) == CELLS
    assert len(set(recorded + failed)) == CELLS
    assert read_matrices(out) == read_matrices(whole)
