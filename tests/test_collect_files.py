"""What concurrent and killed `collect` runs leave in --out and the failures sidecar.

`collect` locks --out, and then the failures sidecar itself, its links
resolved, before it reads or writes either, so a second run on the same
--out or the same sidecar, however it is spelled, is a usage error raised
before any request or write. Every run writes its sidecar anew through one
fixed scratch file, ``.<sidecar>.cotbudget-tmp``, which it locks before the
scratch replaces the sidecar, so the sidecar's path names a locked file at
every instant. A SIGKILL while a resume rewrites its sidecar leaves the old
sidecar or the new one, never a mix, and the next run takes the scratch
over. The children run one at a time, except the two that race for one file.
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


@pytest.mark.parametrize("resume", [False, True])
def test_a_locked_sidecar_is_a_usage_error_before_any_request(argv, tmp_path, capsys, resume):
    """Another run holds the sidecar's lock. Neither file changes: a resume
    would cut the torn tails and drop the settled failure, and a fresh run
    would empty both files."""
    out = tmp_path / "records.jsonl"
    failures = tmp_path / "shared.failures.jsonl"
    out.write_text(record_line("q0", "NoCoT") + '{"torn', encoding="utf-8")
    failures.write_text(failure_line("q1", "NoCoT") + '{"torn', encoding="utf-8")
    before = out.read_bytes(), failures.read_bytes()
    with MockChatEndpoint(reply_fn=echo_reply) as mock, open(failures, "ab") as held:
        fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
        code = main([*argv, "--endpoint", mock.url, "--out", str(out), "--failures", str(failures),
                     *(["--resume"] if resume else [])])
        assert mock.request_count == 0
    assert code == 2
    assert capsys.readouterr().err == (
        f"usage error: --failures {failures} is locked by another process, such as a collect "
        "writing it\n"
    )
    assert (out.read_bytes(), failures.read_bytes()) == before


@pytest.mark.parametrize("resume", [False, True])
def test_two_collects_that_share_only_a_sidecar_run_one(tmp_path, resume):
    """Each run has its own --out and questions (3 x 31 cells) and --retries 0,
    and every reply lacks its choices, so every cell fails. The second run
    starts once the first has sent a request, whose reply waits until the
    second has exited: the second sends nothing and changes no file, and the
    sidecar lists each of the first run's cells once. In a resume, the first
    run has rewritten the sidecar, which it found, before its first request,
    and the second names the sidecar through a symbolic link."""
    release = threading.Event()
    runs = []
    for run in ("first", "second"):
        questions = tmp_path / f"{run}.questions.jsonl"
        questions.write_text("".join(
            json.dumps({"question_id": f"{run}{i}", "text": f"{run} {i}", "gold_answer": "1"})
            + "\n" for i in range(3)
        ))
        out = tmp_path / f"{run}.jsonl"
        out.write_text(record_line("q0", "NoCoT"), encoding="utf-8")
        runs.append(["collect", "--model", "m", "--dataset", "d", "--questions", str(questions),
                     "--out", str(out), "--retries", "0", *(["--resume"] if resume else [])])
    sidecar = tmp_path / "shared.failures.jsonl"
    kept, named = "", sidecar
    if resume:
        kept, named = failure_line("old", "NoCoT"), tmp_path / "link.failures.jsonl"
        sidecar.write_text(failure_line("q0", "NoCoT") + kept, encoding="utf-8")  # q0 is settled
        named.symlink_to(sidecar)
    with MockChatEndpoint(reply_fn=held_until(release), rewrite=lambda reply: {"id": "mock"}) as mock:
        first, second = (
            [*run, "--endpoint", mock.url, "--failures", str(path)]
            for run, path in zip(runs, (sidecar, named))
        )
        winner = subprocess.Popen(cli(*first), env=child_env(), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 60
            while mock.request_count == 0:
                assert winner.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            held = sidecar.read_bytes()
            assert held == kept.encode()
            loser = subprocess.run(cli(*second), env=child_env(), capture_output=True, text=True,
                                   timeout=60)
            assert mock.request_count == 1
            assert sidecar.read_bytes() == held
        finally:
            release.set()
            _, err = winner.communicate(timeout=60)
        requests = [body["messages"][0]["content"] for body in mock.requests]
    assert (winner.returncode, loser.returncode) == (3, 2), err
    assert loser.stderr == (
        f"usage error: --failures {named} is locked by another process, such as a collect "
        "writing it\n"
    )
    assert len(requests) == 93 and not any("second" in content for content in requests)
    text = sidecar.read_text(encoding="utf-8")
    assert text.startswith(kept) and named.resolve() == sidecar
    lines = [json.loads(line) for line in text[len(kept):].splitlines()]
    assert len({(line["question_id"], line["prompt_id"]) for line in lines}) == len(lines) == 93
    assert {line["question_id"] for line in lines} == {"first0", "first1", "first2"}
    assert (tmp_path / "second.jsonl").read_text(encoding="utf-8") == record_line("q0", "NoCoT")


def test_a_sidecar_replaced_before_its_lock_is_taken_counts_as_held(argv, tmp_path, monkeypatch,
                                                                   capsys):
    """Another run replaced the sidecar between this run's open and its flock, so the
    lock is on a file the path no longer names: the run stops before any request."""
    out = tmp_path / "records.jsonl"
    failures = out.with_suffix(".failures.jsonl")
    flock = fcntl.flock

    def replaced_first(fd, operation):
        if fd.name == os.path.realpath(failures):
            (tmp_path / "theirs").write_bytes(b"theirs\n")
            os.replace(tmp_path / "theirs", failures)
        flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", replaced_first)
    with MockChatEndpoint(reply_fn=echo_reply) as mock:
        assert main([*argv, "--endpoint", mock.url, "--out", str(out)]) == 2
        assert mock.request_count == 0
    assert capsys.readouterr().err == (
        f"usage error: --failures {failures} is locked by another process, such as a collect "
        "writing it\n"
    )
    assert failures.read_bytes() == b"theirs\n"


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


@pytest.mark.parametrize("failing", ["--out", "--failures"])
def test_another_lock_error_is_a_data_error_before_any_request(argv, tmp_path, monkeypatch,
                                                               capsys, failing):
    """flock fails with EIO on --out's lock, or on the sidecar's; the error names that file."""
    out = tmp_path / "records.jsonl"
    failures = out.with_suffix(".failures.jsonl")

    def fail(fd, operation):
        if fd.name == {"--out": str(out), "--failures": os.path.realpath(failures)}[failing]:
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(fcntl, "flock", fail)
    out.write_text(record_line("q0", "NoCoT"), encoding="utf-8")
    with MockChatEndpoint(reply_fn=echo_reply) as mock:
        assert main([*argv, "--endpoint", mock.url, "--out", str(out)]) == 1
        assert mock.request_count == 0
    named = out if failing == "--out" else failures
    assert capsys.readouterr().err == (
        f"data error: cannot lock {failing} {named}: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"
    )
    assert out.read_text(encoding="utf-8") == record_line("q0", "NoCoT")
    # A sidecar is created to be locked, so it exists, empty, once its lock failed.
    assert (failures.read_bytes() if failures.exists() else None) == (
        b"" if failing == "--failures" else None
    )


@pytest.mark.parametrize("tail, mended", [
    (b"", b""),
    (failure_line("last", "NoCoT").encode()[:-1], failure_line("last", "NoCoT").encode()),
    (b'{"question_id": "la', b""),
], ids=["whole", "parses", "torn"])
def test_a_kill_during_the_sidecar_rewrite_leaves_the_old_or_the_new_sidecar(argv, tmp_path,
                                                                            tail, mended):
    """--out holds q0's cells. The sidecar holds a failure for each cell of q1,
    which the resume settles, then SIDECAR_LINES failures of an earlier grid,
    which it keeps, then a final line without its newline, which it mends or
    cuts. The resume is killed once its scratch file has bytes."""
    out = tmp_path / "records.jsonl"
    sidecar = out.with_suffix(".failures.jsonl")
    out.write_text("".join(record_line("q0", p) for p in PROMPTS), encoding="utf-8")
    kept = "".join(failure_line(f"old{i}", "NoCoT") for i in range(SIDECAR_LINES)).encode()
    old = "".join(failure_line("q1", p) for p in PROMPTS).encode() + kept + tail
    new = kept + mended
    sidecar.write_bytes(old)

    def scratch_files() -> list[Path]:
        return sorted(tmp_path.glob(f".{sidecar.name}.cotbudget-tmp"))

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
        assert len(scratch_files()) == 1

        done = subprocess.run(cli(*args), env=child_env(), capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert mock.request_count == CELLS - len(PROMPTS)
    assert sidecar.read_bytes() == new
    assert read_matrices(out)["m", "d"].present.sum() == CELLS
    assert scratch_files() == []  # the next run takes it over


def test_a_resume_leaves_every_other_file_beside_the_sidecar(argv, tmp_path):
    """Files named like the sidecar's scratch, or like the random scratch names
    of earlier versions, keep their bytes."""
    out = tmp_path / "records.jsonl"
    sidecar = out.with_suffix(".failures.jsonl")
    out.write_text("".join(record_line("q0", p) for p in PROMPTS), encoding="utf-8")
    sidecar.write_text(failure_line("q1", "NoCoT"), encoding="utf-8")
    others = [
        f".{sidecar.name}.abc_123x.cotbudget-tmp",  # as earlier versions named the scratch
        f".{sidecar.name}.q.cotbudget-tmp",
        f"{sidecar.name}.backup.tmp",  # a user's copy
        f"{sidecar.name}.cotbudget-tmp",  # not hidden
        f".{sidecar.name}.cotbudget-tmp.bak",
        f".other.{sidecar.name}.cotbudget-tmp",
        ".records.jsonl.cotbudget-tmp",  # another sidecar's
    ]
    for name in others:
        (tmp_path / name).write_text(name, encoding="utf-8")
    with MockChatEndpoint(reply_fn=echo_reply) as mock:
        assert main([*argv, "--endpoint", mock.url, "--out", str(out), "--resume"]) == 0
    assert sidecar.read_bytes() == b""
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([
        *others, "catalog.json", "questions.jsonl", out.name, sidecar.name,
    ])
    assert all((tmp_path / name).read_text(encoding="utf-8") == name for name in others)


def test_a_resume_through_a_symlinked_sidecar_rewrites_its_target(argv, tmp_path):
    out = tmp_path / "records.jsonl"
    real, link = tmp_path / "real.failures.jsonl", tmp_path / "link.failures.jsonl"
    out.write_text("".join(record_line("q0", p) for p in PROMPTS), encoding="utf-8")
    real.write_text(failure_line("q1", "NoCoT") + failure_line("old", "NoCoT"), encoding="utf-8")
    link.symlink_to(real.name)
    with MockChatEndpoint(reply_fn=echo_reply) as mock:
        assert main([*argv, "--endpoint", mock.url, "--out", str(out), "--resume",
                     "--failures", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_text(encoding="utf-8") == failure_line("old", "NoCoT")
    assert read_matrices(out)["m", "d"].present.sum() == CELLS


def test_no_run_leaves_a_lock_file(argv, tmp_path):
    """Not a fresh run, a resume, or a run refused because another holds --out."""
    out = tmp_path / "records.jsonl"
    with MockChatEndpoint(reply_fn=echo_reply) as mock:
        run = [*argv, "--endpoint", mock.url, "--out", str(out)]
        assert main(run) == 0
        assert list(tmp_path.rglob("*.lock")) == []
        assert main([*run, "--resume"]) == 0
        assert list(tmp_path.rglob("*.lock")) == []
        with open(out, "ab") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert main(run) == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "catalog.json", "questions.jsonl", "records.failures.jsonl", "records.jsonl"]
