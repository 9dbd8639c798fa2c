"""What concurrent and killed `collect` runs leave in --out and the failures sidecar.

`collect` locks --out before it reads or writes it, so a second run on the
same file is a usage error raised before any request or write. A SIGKILL
while a resume rewrites its sidecar leaves the old sidecar or the new one,
never a mix. The children run one at a time, except the two that race for
one --out.
"""
from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from cotbudget.cli import main
from cotbudget.mockserver import MockChatEndpoint
from cotbudget.prompts import PromptCatalog, fixed_spec
from cotbudget.records import read_matrices

fcntl = pytest.importorskip("fcntl")

SRC = Path(__file__).resolve().parent.parent / "src"
QUESTIONS = 4
PROMPTS = ("NoCoT", "BeConcise", "DefaultCoT", "BulletPoints")
CELLS = QUESTIONS * len(PROMPTS)
SIDECAR_LINES = 100_000  # enough that the rewrite takes a visible time


def echo_reply(question_text: str, body: dict) -> tuple[str, int]:
    return f"Answer: {question_text.split()[-1]}", 5


def held_until(release: threading.Event):
    """An echo_reply that waits until release is set (60 s at most)."""
    def reply(question_text: str, body: dict) -> tuple[str, int]:
        release.wait(60)
        return echo_reply(question_text, body)
    return reply


@pytest.fixture
def argv(tmp_path):
    """collect's argv without --endpoint, --out and --resume."""
    questions = tmp_path / "questions.jsonl"
    questions.write_text("".join(
        json.dumps({"question_id": f"q{i}", "text": f"Echo {i}", "gold_answer": str(i)}) + "\n"
        for i in range(QUESTIONS)
    ))
    catalog = tmp_path / "catalog.json"
    PromptCatalog(specs=tuple(fixed_spec(family) for family in PROMPTS)).save(catalog)
    return ["collect", "--model", "m", "--dataset", "d", "--questions", str(questions),
            "--catalog", str(catalog), "--max-parallel", "2"]


def cli(*args: str) -> list[str]:
    return [sys.executable, "-c", "import sys; from cotbudget.cli import main; sys.exit(main())",
            *args]


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def record_line(question_id: str, prompt_id: str) -> str:
    return json.dumps({"model": "m", "dataset": "d", "question_id": question_id,
                       "prompt_id": prompt_id, "tokens": 5, "correct": True}) + "\n"


def failure_line(question_id: str, prompt_id: str) -> str:
    return json.dumps({"question_id": question_id, "prompt_id": prompt_id,
                       "error": "HTTP 503"}) + "\n"


@pytest.mark.parametrize("resume", [False, True])
def test_a_locked_out_is_a_usage_error_before_any_request(argv, tmp_path, capsys, resume):
    """Neither file changes: a resume would cut the torn tail and drop the
    settled failure, and a fresh run would empty both files."""
    out = tmp_path / "records.jsonl"
    failures = out.with_suffix(".failures.jsonl")
    out.write_text(record_line("q0", "NoCoT") + '{"torn', encoding="utf-8")
    failures.write_text(failure_line("q1", "NoCoT"), encoding="utf-8")
    before = out.read_bytes(), failures.read_bytes()
    with MockChatEndpoint(reply_fn=echo_reply) as mock, open(out, "ab") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code = main([*argv, "--endpoint", mock.url, "--out", str(out),
                     *(["--resume"] if resume else [])])
        assert mock.request_count == 0
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage error: --out {out} is locked by another process, such as a collect writing it\n"
    )
    assert (out.read_bytes(), failures.read_bytes()) == before


def test_two_collects_on_one_new_out_run_one(argv, tmp_path):
    """The winner's replies wait until the loser has exited, so the two overlap
    whichever starts first; the loser sends nothing and the file reads."""
    out = tmp_path / "records.jsonl"
    release = threading.Event()
    with MockChatEndpoint(reply_fn=held_until(release)) as mock:
        children = [
            subprocess.Popen(
                cli(*argv, "--endpoint", mock.url, "--out", str(out), "--resume",
                    "--failures", str(tmp_path / f"failures{i}.jsonl")),
                env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for i in range(2)
        ]
        try:
            deadline = time.monotonic() + 60
            while all(c.poll() is None for c in children):
                assert time.monotonic() < deadline, "neither collect stopped: both write --out"
                time.sleep(0.01)
        finally:
            release.set()
            errors = [c.communicate(timeout=60)[1] for c in children]
        requests = mock.request_count
    codes = [c.returncode for c in children]
    assert sorted(codes) == [0, 2], errors
    loser = errors[codes.index(2)]
    assert loser.startswith(f"usage error: --out {out} is locked by another process")
    assert requests == CELLS
    assert main(["complexity", "--records", str(out), "--out", str(tmp_path / "c.json")]) == 0
    assert read_matrices(out)["m", "d"].present.sum() == CELLS


def test_a_killed_holder_leaves_no_lock(argv, tmp_path):
    """A flock dies with its process, so the resume after a SIGKILL runs."""
    out = tmp_path / "records.jsonl"
    release = threading.Event()
    with MockChatEndpoint(reply_fn=held_until(release)) as mock:
        holder = subprocess.Popen(cli(*argv, "--endpoint", mock.url, "--out", str(out)),
                                  env=child_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            while mock.request_count == 0:
                assert holder.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            holder.send_signal(signal.SIGKILL)
        finally:
            holder.communicate(timeout=60)
            release.set()
        assert main([*argv, "--endpoint", mock.url, "--out", str(out), "--resume"]) == 0
    assert read_matrices(out)["m", "d"].present.sum() == CELLS


def test_an_analysis_command_reads_a_locked_records_file(tmp_path):
    records = tmp_path / "records.jsonl"
    records.write_text("".join(record_line(f"q{i}", p) for i in range(2) for p in PROMPTS),
                       encoding="utf-8")
    with open(records, "ab") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert main(["complexity", "--records", str(records),
                     "--out", str(tmp_path / "c.json")]) == 0


@pytest.mark.parametrize("code", [errno.ENOLCK, errno.EOPNOTSUPP, None])
def test_where_nothing_can_be_locked_collect_runs_unlocked(argv, tmp_path, monkeypatch, code):
    """A filesystem that refuses locks with ``code``, or, for None, no fcntl
    module at all, as on Windows."""
    if code is None:
        monkeypatch.setitem(sys.modules, "fcntl", None)
    else:
        def refuse(fd, operation):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(fcntl, "flock", refuse)
    out = tmp_path / "records.jsonl"
    with MockChatEndpoint(reply_fn=echo_reply) as mock:
        assert main([*argv, "--endpoint", mock.url, "--out", str(out)]) == 0
    assert read_matrices(out)["m", "d"].present.sum() == CELLS


def test_another_lock_error_is_a_data_error_before_any_request(argv, tmp_path, monkeypatch,
                                                               capsys):
    def fail(fd, operation):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(fcntl, "flock", fail)
    out = tmp_path / "records.jsonl"
    out.write_text(record_line("q0", "NoCoT"), encoding="utf-8")
    with MockChatEndpoint(reply_fn=echo_reply) as mock:
        assert main([*argv, "--endpoint", mock.url, "--out", str(out)]) == 1
        assert mock.request_count == 0
    assert capsys.readouterr().err == f"data error: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"
    assert out.read_text(encoding="utf-8") == record_line("q0", "NoCoT")


def test_a_kill_during_the_sidecar_rewrite_leaves_the_old_or_the_new_sidecar(argv, tmp_path):
    """--out holds q0's cells. The sidecar holds a failure for each cell of q1,
    which the resume settles, then SIDECAR_LINES failures of an earlier grid,
    which it keeps. The resume is killed once its scratch file has bytes."""
    out = tmp_path / "records.jsonl"
    sidecar = out.with_suffix(".failures.jsonl")
    out.write_text("".join(record_line("q0", p) for p in PROMPTS), encoding="utf-8")
    new = "".join(failure_line(f"old{i}", "NoCoT") for i in range(SIDECAR_LINES)).encode()
    old = "".join(failure_line("q1", p) for p in PROMPTS).encode() + new
    sidecar.write_bytes(old)

    def scratch_files() -> list[Path]:
        return sorted(tmp_path.glob(sidecar.name + ".*.tmp"))

    with MockChatEndpoint(reply_fn=echo_reply) as mock:
        args = [*argv, "--endpoint", mock.url, "--out", str(out), "--resume"]
        resume = subprocess.Popen(cli(*args), env=child_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while resume.poll() is None and not any(p.stat().st_size for p in scratch_files()):
                assert time.monotonic() < deadline, "the rewrite never started"
                time.sleep(0.0005)
            resume.send_signal(signal.SIGKILL)
        finally:
            _, err = resume.communicate(timeout=60)
        assert resume.returncode == -signal.SIGKILL, f"the rewrite ended first: {err.decode()}"
        assert mock.request_count == 0
        assert sidecar.read_bytes() in (old, new)
        # SIGKILL skips the rewrite's clean-up: its scratch file stays beside the sidecar.
        left = scratch_files()
        assert len(left) == 1

        done = subprocess.run(cli(*args), env=child_env(), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert mock.request_count == CELLS - len(PROMPTS)
    assert sidecar.read_bytes() == new
    assert read_matrices(out)["m", "d"].present.sum() == CELLS
    assert scratch_files() == left  # nothing removes it later
