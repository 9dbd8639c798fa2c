"""Hostile input files through the analysis commands, in process.

A small valid records, complexity or budgets file gets one to three edits:
a changed byte, a value JSON treats specially (NaN, Infinity, 2**63, a lone
surrogate escape), a raw byte that is not UTF-8, NUL or CR, a duplicated or
deleted line, or a cut. Whatever the edits, a command ends with exit 0
(success), 1 (data error) or 2 (usage error), prints no traceback, and a
failing command creates or changes no ``--out`` file. The same holds when
one input arrives through a pipe, which can be read only once.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import threading
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget.cli import main
from cotbudget.complexity import profile
from cotbudget.oracle import generate, random_spec
from cotbudget.records import save_matrix

# Each command's flags past --records and --out; {name} is an input file.
COMMANDS = {
    "complexity": [],
    "predict": ["--complexity", "{complexity}"],
    "bounds": ["--complexity", "{complexity}"],
    "routing": ["--complexity", "{complexity}", "--base-prompt", "p0", "--fallback-prompt", "p2",
                "--budgets", "{budgets}", "--family", "p0,p1,p2"],
    "correlate": ["--complexity", "{complexity}"],
    "adaptivity": ["--split-prompt", "p1"],
}
SPECIAL = [
    b"NaN", b"Infinity", b"-Infinity", b"9223372036854775808", b"1e400", b"-1", b"1.5",
    b'"\\ud800"', b"\xff", b"\x00", b"\r", b"null", b"true", b"{}", b"[]",
]


@cache
def base_files() -> dict[str, bytes]:
    """Valid inputs: four questions under three prompts, their profile and budgets."""
    matrix, _ = generate(random_spec(n=4, seed=1, violation_rate=0.2, n_prompts=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        save_matrix(matrix, path)
        records = path.read_bytes()
    complexity = (json.dumps(profile(matrix).to_json_dict(), indent=2) + "\n").encode()
    budgets = b"".join(
        json.dumps({"question_id": q, "budget": 20 * (i + 1)}).encode() + b"\n"
        for i, q in enumerate(matrix.question_ids)
    )
    return {"records": records, "complexity": complexity, "budgets": budgets}


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data with one to three edits."""
    for _ in range(draw(st.integers(1, 3))):
        lines = data.split(b"\n")
        kind = draw(st.sampled_from(
            ["byte", "insert", "number", "string", "duplicate", "delete", "truncate"]
        ))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "byte" and data:
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + draw(st.sampled_from(SPECIAL)) + data[at:]
        elif kind in ("number", "string"):
            # Replace the value that starts at the first digit or quote at or after `at`.
            stops = b"0123456789" if kind == "number" else b'"'
            start = next((i for i in range(at, len(data)) if data[i] in stops), None)
            if start is not None:
                end = start + 1
                while end < len(data) and data[end] not in b',}]\n"':
                    end += 1
                if kind == "string":
                    end += 1  # past the closing quote
                data = data[:start] + draw(st.sampled_from(SPECIAL)) + data[end:]
        elif kind == "duplicate":
            i = draw(st.integers(0, len(lines) - 1))
            data = b"\n".join(lines[:i + 1] + lines[i:])
        elif kind == "delete" and len(lines) > 1:
            i = draw(st.integers(0, len(lines) - 1))
            data = b"\n".join(lines[:i] + lines[i + 1:])
        elif kind == "truncate":
            data = data[:at]
    return data


def readable(command: str) -> list[str]:
    """The inputs a command reads."""
    return ["records"] + [name for name in ("complexity", "budgets")
                          if "{" + name + "}" in COMMANDS[command]]


@st.composite
def runs(draw):
    """(command, input files, whether --out exists before the run)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    inputs = dict(base_files())
    for name in draw(st.lists(st.sampled_from(readable(command)), min_size=1, max_size=2,
                              unique=True)):
        inputs[name] = draw(mutated(inputs[name]))
    return command, inputs, draw(st.booleans())


def run_main(run, piped: str | None = None) -> None:
    """Run one example in process; ``piped`` names the input sent through an os.pipe() path."""
    command, inputs, out_exists = run
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.in" for name in inputs}
        for name, data in inputs.items():
            paths[name].write_bytes(data)
        writer = None
        if piped is not None:
            read_end, write_end = os.pipe()
            paths[piped] = f"/dev/fd/{read_end}"
            writer = threading.Thread(target=feed, args=(write_end, inputs[piped]), daemon=True)
            writer.start()
        out = Path(tmp) / "out"
        if out_exists:
            out.write_bytes(b"earlier output\n")
        argv = [command, "--records", str(paths["records"]), "--out", str(out)]
        argv += [flag.format(**paths) for flag in COMMANDS[command]]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            if writer is not None:
                os.close(read_end)  # a writer the command never read from gets EPIPE
                writer.join(timeout=30)
        assert code in (0, 1, 2), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            if out_exists:
                assert out.read_bytes() == b"earlier output\n"
            else:
                assert not out.exists()


def feed(fd: int, data: bytes) -> None:
    """Write data to a pipe's write end, then close it, whether or not it is read."""
    try:
        with open(fd, "wb") as sink:
            sink.write(data)
    except BrokenPipeError:
        pass


@settings(max_examples=200, deadline=None)
@given(run=runs())
def test_hostile_inputs_exit_cleanly(run):
    run_main(run)


@pytest.mark.skipif(sys.platform != "linux", reason="reads an os.pipe() through /dev/fd")
@settings(max_examples=60, deadline=None)
@given(run=runs(), data=st.data())
def test_hostile_inputs_through_a_pipe_exit_cleanly(run, data):
    run_main(run, piped=data.draw(st.sampled_from(readable(run[0]))))
