"""The content-addressed record cache behind records.read_matrices.

A miss, a hit and the per-record loop give the same matrices. A bad entry is a
silent miss that rewrites it; an unusable cache directory, a pipe or a bad
records file never changes what a command prints, writes or exits with.
"""
from __future__ import annotations

import ast
import contextlib
import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget import cache, records
from cotbudget.cli import _load_budgets, main
from cotbudget.collect import load_questions
from cotbudget.complexity import ComplexityProfile, profile
from cotbudget.errors import CotBudgetError, RecordParseError
from cotbudget.inputs import read_jsonl
from cotbudget.oracle import generate, random_spec
from cotbudget.prompts import PromptCatalog, default_catalog
from cotbudget.records import load_records, read_matrices
from cotbudget.sweepfiles import prior_cells

from conftest import count_ids
from loop_oracles import load_records_loop, pivot_loop, present_cells

ROOT = Path(__file__).resolve().parent.parent
PAIRS = [("m", "d"), ("m2", "d"), ("modèle", "数据")]
# Trailing NULs, non-ASCII, a lone surrogate (JSON-escaped in the file) and quotes.
QUESTION_IDS = ["q1", "q1\x00", "q10", "é", "🙂", "\ud800", 'q"x']
PROMPT_IDS = ["p1", "p\x00", "ü", "p2"]


def record_line(model, dataset, qid, pid, tokens, correct) -> str:
    return json.dumps({"model": model, "dataset": dataset, "question_id": qid,
                       "prompt_id": pid, "tokens": tokens, "correct": correct}) + "\n"


def entries(folder: Path) -> list[Path]:
    return sorted(folder.glob("*.npz"))


def cache_messages(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "cotbudget.cache"]


def assert_same_matrices(got, want) -> None:
    assert got == want
    assert (got.question_ids, got.prompt_ids) == (want.question_ids, want.prompt_ids)
    for name in ("tokens", "correct", "present"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


# ---------------------------------------------------------------------------
# miss, hit and the per-record loop agree
# ---------------------------------------------------------------------------

record_cells = st.dictionaries(
    st.tuples(st.sampled_from(PAIRS), st.sampled_from(QUESTION_IDS), st.sampled_from(PROMPT_IDS)),
    st.tuples(st.integers(0, 2**63 - 1) | st.integers(0, 9), st.booleans()),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(cells=record_cells, order=st.randoms())
def test_miss_hit_and_record_loop_agree(cells, order):
    items = sorted(cells.items())
    order.shuffle(items)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, XDG_CACHE_HOME=tmp):
        path = Path(tmp) / "r.jsonl"
        path.write_text("".join(record_line(*pair, q, p, t, c) for (pair, q, p), (t, c) in items),
                        encoding="utf-8")
        miss = read_matrices(path)
        assert len(entries(Path(tmp, "cotbudget"))) == 1
        with mock.patch.object(records, "_parse", side_effect=AssertionError("parsed")):
            hit = read_matrices(path)
        loaded = load_records_loop(path)
        pairs = sorted({(r.model, r.dataset) for r in loaded})
        assert list(miss) == list(hit) == pairs
        for pair in pairs:
            want = pivot_loop(loaded, *pair)
            assert_same_matrices(miss[pair], want)
            assert_same_matrices(hit[pair], want)
            assert present_cells(miss[pair]) == present_cells(hit[pair]) == {
                (r.question_id, r.prompt_id) for r in loaded if (r.model, r.dataset) == pair
            }


# ---------------------------------------------------------------------------
# a bad entry is a silent miss, and is written again
# ---------------------------------------------------------------------------


@pytest.fixture
def cached(tmp_path, isolated_record_cache):
    """Two pairs, the first with an absent cell (q2, p2): (path, matrices, entry)."""
    path = tmp_path / "r.jsonl"
    path.write_text(
        record_line("m", "d", "q1", "p1", 5, True)
        + record_line("m", "d", "q1", "p2", 7, False)
        + record_line("m", "d", "q2", "p1", 3, False)
        + record_line("m2", "d", "q1", "p1", 2, True),
        encoding="utf-8",
    )
    matrices = read_matrices(path)
    [entry] = entries(isolated_record_cache)
    return path, matrices, entry


def rewrite(entry: Path, edit) -> None:
    """Apply edit(meta, arrays) to an entry; the header is re-encoded unless edit sets it."""
    with np.load(entry, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    meta = json.loads(arrays.pop("header").tobytes())
    edit(meta, arrays)
    arrays.setdefault("header", np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    with entry.open("wb") as fh:
        np.savez(fh, **arrays)


def swap_pairs(meta, arrays):
    meta["pairs"].reverse()
    for name in cache.ARRAYS:
        arrays[f"{name}0"], arrays[f"{name}1"] = arrays[f"{name}1"], arrays[f"{name}0"]


def reverse_rows(meta, arrays):
    meta["pairs"][0][2].reverse()
    for name in cache.ARRAYS:
        arrays[f"{name}0"] = arrays[f"{name}0"][::-1].copy()


def empty_row(meta, arrays):
    arrays["present0"][1] = False
    arrays["tokens0"][1] = 0
    arrays["correct0"][1] = False


def no_ids(rows: bool, columns: bool):
    """An edit that empties pair 0's question ids, prompt ids or both, and its arrays."""
    def edit(meta, arrays):
        for axis, empty in ((2, rows), (3, columns)):
            if empty:
                meta["pairs"][0][axis] = []
        for name in cache.ARRAYS:
            kept = arrays[f"{name}0"][: 0 if rows else None, : 0 if columns else None]
            arrays[f"{name}0"] = kept.copy()
    return edit


ENTRY_EDITS = {
    "stale format version": lambda meta, a: meta.update(version=cache.FORMAT_VERSION - 1),
    "no format version": lambda meta, a: meta.pop("version"),
    "unsorted question ids": reverse_rows,
    "duplicate question ids": lambda meta, a: meta["pairs"][0].__setitem__(2, ["q1", "q1"]),
    "duplicate prompt ids": lambda meta, a: meta["pairs"][0].__setitem__(3, ["p1", "p1"]),
    "an empty id": lambda meta, a: meta["pairs"][0].__setitem__(2, ["", "q2"]),
    "an empty model": lambda meta, a: meta["pairs"][0].__setitem__(0, ""),
    "pairs out of order": swap_pairs,
    "ids as a numpy string array": lambda meta, a: a.update(header=np.array([json.dumps(meta)])),
    "header not JSON": lambda meta, a: a.update(header=np.frombuffer(b"{", dtype=np.uint8)),
    "nonzero token padding": lambda meta, a: a["tokens0"].__setitem__((1, 1), 9),
    "true correct padding": lambda meta, a: a["correct0"].__setitem__((1, 1), True),
    "negative tokens": lambda meta, a: a["tokens0"].__setitem__((0, 0), -1),
    "an empty row": empty_row,
    "no question ids": no_ids(rows=True, columns=False),
    "no prompt ids": no_ids(rows=False, columns=True),
    "no question or prompt ids": no_ids(rows=True, columns=True),
    "int32 tokens": lambda meta, a: a.update(tokens0=a["tokens0"].astype(np.int32)),
    "big-endian tokens": lambda meta, a: a.update(tokens0=a["tokens0"].astype(">i8")),
    "uint8 present": lambda meta, a: a.update(present0=a["present0"].astype(np.uint8)),
    "wrong shape": lambda meta, a: a.update(tokens0=a["tokens0"][:, :1].copy()),
    "Fortran order": lambda meta, a: a.update(tokens0=np.asfortranarray(a["tokens0"])),
    "object array": lambda meta, a: a.update(tokens0=a["tokens0"].astype(object)),
    "missing member": lambda meta, a: a.pop("present1"),
    "extra member": lambda meta, a: a.update(extra=np.zeros(1)),
}


def truncate(entry):
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])


def foreign_npz(entry):
    with entry.open("wb") as fh:
        np.savez(fh, a=np.arange(3))


def plain_npy(entry):
    with entry.open("wb") as fh:
        np.save(fh, np.arange(3))


FILE_EDITS = {
    "truncated zip": truncate,
    "foreign npz": foreign_npz,
    "an .npy array": plain_npy,
    "an empty file": lambda entry: entry.write_bytes(b""),
    "a pickle": lambda entry: entry.write_bytes(b"\x80\x04K\x01."),
}


@pytest.mark.parametrize(
    "corrupt",
    [pytest.param(lambda e, edit=edit: rewrite(e, edit), id=name)
     for name, edit in ENTRY_EDITS.items()]
    + [pytest.param(edit, id=name) for name, edit in FILE_EDITS.items()],
)
def test_bad_entry_is_a_silent_miss_and_is_rewritten(cached, caplog, corrupt):
    path, matrices, entry = cached
    corrupt(entry)
    with caplog.at_level(logging.DEBUG, logger="cotbudget.cache"):
        again = read_matrices(path)
        assert cache_messages(caplog)[0].startswith("record cache miss (bad entry: ")
        assert cache_messages(caplog)[1] == f"record cache wrote: {entry}"
        caplog.clear()
        third = read_matrices(path)
        assert cache_messages(caplog) == [f"record cache hit: {entry}"]
    assert list(again) == list(third) == list(matrices)
    for pair, want in matrices.items():
        assert_same_matrices(again[pair], want)
        assert_same_matrices(third[pair], want)


def test_a_hit_and_a_miss_build_equal_matrices_that_hold_ids(cached, monkeypatch):
    """The entry's id lists become the matrix's Ids, checked once, as a miss's ids are."""
    path, matrices, entry = cached
    built = count_ids(monkeypatch)
    hit = read_matrices(path)
    entry.unlink()
    miss = read_matrices(path)
    assert list(hit) == list(miss) == list(matrices)
    for pair, want in matrices.items():
        assert_same_matrices(hit[pair], want)
        assert_same_matrices(miss[pair], want)
        for matrix in (hit[pair], miss[pair], want):
            assert type(matrix.question_ids) is records.Ids is type(matrix.prompt_ids)
    assert len(built) == 2 * 2 * len(matrices)  # each axis of each pair, on the hit and the miss


def test_the_fixture_entry_is_valid(cached, caplog):
    """The fault table starts from an entry that loads as a hit."""
    path, matrices, entry = cached
    with caplog.at_level(logging.DEBUG, logger="cotbudget.cache"):
        assert read_matrices(path) == matrices
    assert cache_messages(caplog) == [f"record cache hit: {entry}"]


def test_no_code_loads_with_pickle_allowed():
    for source in (ROOT / "src" / "cotbudget").glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.load":
                flags = {k.arg: ast.unparse(k.value) for k in node.keywords}
                assert flags.get("allow_pickle") == "False", f"{source.name}:{node.lineno}"


# ---------------------------------------------------------------------------
# what an entry is keyed by, and how many are kept
# ---------------------------------------------------------------------------


def test_key_comes_from_the_bytes_parsed(cached, caplog, monkeypatch):
    """A file whose hash changed between the lookup and the parse is stored under
    the hash of what was parsed."""
    path, matrices, entry = cached
    entry.unlink()
    with monkeypatch.context() as m:
        m.setattr(cache, "content_digest", lambda source: b"\0" * 32)
        assert read_matrices(path) == matrices
    assert entries(entry.parent) == [entry]
    with caplog.at_level(logging.DEBUG, logger="cotbudget.cache"):
        read_matrices(path)
    assert cache_messages(caplog) == [f"record cache hit: {entry}"]


def test_key_covers_the_reader_and_the_content(cached, monkeypatch):
    path, matrices, entry = cached
    with monkeypatch.context() as m:
        m.setattr(cache, "_reader_digest", lambda: b"another reader")
        assert read_matrices(path) == matrices
    assert len(entries(entry.parent)) == 2
    with path.open("a", encoding="utf-8") as fh:
        fh.write("\n")  # a blank line: the same records, other bytes
    assert read_matrices(path) == matrices
    assert len(entries(entry.parent)) == 3


@pytest.mark.parametrize("name", ["inputs.py", "records.py", "cache.py"])
def test_key_covers_every_file_of_the_parser(name, monkeypatch):
    """An edit to read_jsonl's module, or to any other the parser runs, is another key."""
    before = cache._reader_digest.__wrapped__()
    read_bytes = Path.read_bytes
    edited = Path(cache.__file__).with_name(name)
    monkeypatch.setattr(Path, "read_bytes",
                        lambda path: read_bytes(path) + b"#" * (path == edited))
    assert cache._reader_digest.__wrapped__() != before


def test_key_covers_every_file_the_parser_runs(tmp_path, monkeypatch):
    """Every cotbudget file that one records._parse executes is one _reader_digest hashes."""
    keyed = set()
    read_bytes = Path.read_bytes
    with monkeypatch.context() as m:
        m.setattr(Path, "read_bytes", lambda path: keyed.add(path.resolve()) or read_bytes(path))
        cache._reader_digest.__wrapped__()
    path = tmp_path / "r.jsonl"
    extra = json.dumps({"model": "m", "dataset": "d", "question_id": "é", "prompt_id": "p1",
                        "tokens": 4, "correct": True, "response": "4", "extracted_answer": "4",
                        "note": [1]})
    path.write_text(
        record_line("m", "d", "q1", "p1", 5, True) + "\n" + extra + "\n"
        + record_line("m", "d", "q1", "p2", 7, False) + record_line("m2", "d", "q1", "p1", 2, True),
        encoding="utf-8",
    )
    ran = set()

    def profiler(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code.co_filename)

    previous = sys.getprofile()
    with path.open("rb", buffering=0) as raw:
        sys.setprofile(profiler)
        try:
            matrices = records._parse(path, cache.HashingReader(raw))
        finally:
            sys.setprofile(previous)
    assert list(matrices) == [("m", "d"), ("m2", "d")]
    package = Path(cache.__file__).resolve().parent
    executed = {Path(name).resolve() for name in ran if Path(name).resolve().parent == package}
    assert {package / "records.py", package / "inputs.py"} <= executed
    assert executed <= keyed


def test_least_recently_used_entries_go_first(tmp_path, isolated_record_cache, monkeypatch):
    monkeypatch.setattr(cache, "MAX_ENTRIES", 3)
    paths, made = [], []
    for i in range(4):
        paths.append(tmp_path / f"r{i}.jsonl")
        paths[-1].write_text(record_line("m", "d", "q1", "p1", i, True), encoding="utf-8")
    for i, path in enumerate(paths[:3]):
        before = set(entries(isolated_record_cache))
        read_matrices(path)
        [new] = set(entries(isolated_record_cache)) - before
        os.utime(new, ns=(10**9 * (i + 1), 10**9 * (i + 1)))
        made.append(new)
    read_matrices(paths[0])  # a hit makes r0's entry the most recently used
    read_matrices(paths[3])
    remaining = set(entries(isolated_record_cache))
    assert len(remaining) == 3
    assert made[0] in remaining and made[2] in remaining and made[1] not in remaining


def test_cache_directory_is_private(tmp_path, isolated_record_cache):
    path = tmp_path / "r.jsonl"
    path.write_text(record_line("m", "d", "q1", "p1", 1, True), encoding="utf-8")
    read_matrices(path)
    assert isolated_record_cache.stat().st_mode & 0o777 == 0o700
    [entry] = entries(isolated_record_cache)
    assert entry.stat().st_mode & 0o077 == 0
    assert [p.name for p in isolated_record_cache.iterdir()] == [entry.name]  # no temp file left


# ---------------------------------------------------------------------------
# the CLI prints, writes and exits the same in every case
# ---------------------------------------------------------------------------


@pytest.fixture
def synth_file(tmp_path, capsys):
    records_path = tmp_path / "records.jsonl"
    assert main(["synth", "--out", str(records_path), "--n", "12", "--prompts", "7",
                 "--seed", "3", "--violation-rate", "0.2",
                 "--taus-out", str(tmp_path / "taus.json")]) == 0
    capsys.readouterr()
    return records_path


def run_command(capsys, out: Path, *argv) -> tuple[int, str, str, bytes | None]:
    """(exit code, stdout, stderr, output file bytes) of one command."""
    out.unlink(missing_ok=True)
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


def test_unusable_cache_changes_no_output(tmp_path, capsys, monkeypatch, synth_file,
                                          isolated_record_cache):
    out = tmp_path / "correlate.csv"
    argv = ("correlate", "--records", str(synth_file))
    want = run_command(capsys, out, *argv)
    assert want[0] == 0
    assert run_command(capsys, out, *argv) == want  # a hit

    def check(describe: str) -> None:
        for entry in entries(isolated_record_cache):
            entry.unlink()
        assert run_command(capsys, out, *argv) == want, describe
        assert entries(isolated_record_cache) == [], describe

    with monkeypatch.context() as m:
        m.setattr(cache.tempfile, "mkstemp", mock.Mock(side_effect=PermissionError(13, "denied")))
        check("unwritable")
    uid = os.geteuid()
    with monkeypatch.context() as m:
        m.setattr(cache.os, "geteuid", lambda: uid + 1)
        check("foreign-owned")
    for mode in (0o770, 0o707):
        isolated_record_cache.chmod(mode)
        check(f"mode {mode:o}")
    isolated_record_cache.chmod(0o700)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    check("cache home is a file")


def test_pipe_is_read_uncached(tmp_path, synth_file, isolated_record_cache):
    if not Path("/dev/stdin").exists():
        pytest.skip("no /dev/stdin")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(records_arg: str, stdin: bytes) -> tuple[int, bytes, bytes, bytes]:
        out = tmp_path / "tradeoff.csv"
        out.unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, "-m", "cotbudget.cli", "tradeoff", "--records", records_arg,
             "--out", str(out)],
            input=stdin, capture_output=True, env=env, timeout=120,
        )
        return done.returncode, done.stdout, done.stderr, out.read_bytes()

    piped = run("/dev/stdin", synth_file.read_bytes())
    assert entries(isolated_record_cache) == []
    assert piped == run(str(synth_file), b"")
    assert piped[0] == 0 and piped[2] == b""


def test_fifo_is_read_uncached(tmp_path, synth_file, caplog, isolated_record_cache):
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    data = synth_file.read_bytes()
    writer = threading.Thread(target=lambda: fifo.write_bytes(data), daemon=True)
    writer.start()
    try:
        with caplog.at_level(logging.DEBUG, logger="cotbudget.cache"):
            got = read_matrices(fifo)
    finally:
        writer.join(timeout=30)
    assert cache_messages(caplog) == [f"record cache skipped (not a regular file): {fifo}"]
    assert entries(isolated_record_cache) == []
    assert got == read_matrices(synth_file)


@pytest.mark.parametrize(
    "text",
    [
        record_line("m", "d", "q1", "p1", 1, True) + record_line("m", "d", "q1", "p1", 2, True)
        + record_line("m", "d", "q2", "p1", -1, True),
        record_line("m", "d", "q1", "p1", 1, True) + "{not json\n"
        + record_line("m", "d", "q1", "p1", 2, True),
        record_line("m", "d", "q1", "p1", 1, True) + record_line("m2", "d", "q1", "p1", 1, True)
        + record_line("m2", "d", "q1", "p1", 2, True) + record_line("m", "d", "q1", "p1", 2, True),
        record_line("m2", "d", "q1", "p1", 1, True) + record_line("m", "d", "q1", "p1", 1, True)
        + record_line("m", "d", "q1", "p1", 2, True) + "[1]\n",
    ],
    ids=["repeat-then-bad", "bad-then-repeat", "later-pair-repeats-first", "repeat-across-pairs"],
)
def test_fifo_gives_the_first_error_in_one_read(tmp_path, text, isolated_record_cache):
    """A FIFO cannot be read twice, so the first error comes from the one pass."""
    regular = tmp_path / "records.jsonl"
    regular.write_text(text, encoding="utf-8")
    with pytest.raises(CotBudgetError) as loop:
        load_records_loop(regular)
    fifo = tmp_path / "records.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_text(text, encoding="utf-8"), daemon=True)
    writer.start()
    try:
        with pytest.raises(CotBudgetError) as exc:
            read_matrices(fifo)
    finally:
        writer.join(timeout=30)
    assert type(exc.value) is type(loop.value)
    assert str(exc.value).replace(str(fifo), "{path}") == str(loop.value).replace(str(regular),
                                                                                 "{path}")
    assert entries(isolated_record_cache) == []


def _jsonl(line) -> bytes:
    return "".join(line(i) for i in range(4)).encode()


def _whole_file(save) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        save(path)
        return path.read_bytes()


RECORDS = _jsonl(lambda i: record_line("m", "d", f"q{i}", "p1", i, True))
# (loader, the valid file it reads), for every reader of a JSONL or JSON input
READERS = {
    "read_jsonl": (lambda p: list(read_jsonl(p)), RECORDS),
    "load_records": (load_records, RECORDS),
    "read_matrices": (read_matrices, RECORDS),
    "prior_cells": (lambda p: prior_cells(p, "m", "d"), RECORDS),
    "budgets": (_load_budgets, _jsonl(lambda i: json.dumps({"question_id": f"q{i}",
                                                           "budget": i}) + "\n")),
    "questions": (load_questions, _jsonl(lambda i: json.dumps(
        {"question_id": f"q{i}", "text": "t", "gold_answer": "1"}) + "\n")),
    "complexity": (ComplexityProfile.load, _whole_file(lambda path: profile(
        generate(random_spec(n=4, seed=1, n_prompts=3))[0]).save(path))),
    "catalog": (PromptCatalog.load, _whole_file(default_catalog().save)),
}


def _outcome(load, path: str):
    """load(path)'s result, or the type and message (path as {path}) of what it raised."""
    try:
        return "ok", load(path)
    except Exception as exc:  # noqa: BLE001 (the exception is the outcome compared)
        return type(exc), str(exc).replace(path, "{path}")


def _read_once(kind: str, tmp_path: Path, data: bytes, load):
    """_outcome of load on data sent through an os.pipe() path or a FIFO.

    The reader runs in a daemon thread, so a reader that blocks, as one that
    opened a FIFO a second time would, fails the test instead of hanging it.
    """
    if kind == "pipe":
        read_end, write_end = os.pipe()
        path, sink = f"/dev/fd/{read_end}", write_end
    else:
        path = sink = str(tmp_path / "input.fifo")
        os.mkfifo(path)

    def write() -> None:
        with contextlib.suppress(BrokenPipeError), open(sink, "wb") as fh:
            fh.write(data)

    got = []
    reader = threading.Thread(target=lambda: got.append(_outcome(load, path)), daemon=True)
    threading.Thread(target=write, daemon=True).start()
    reader.start()
    reader.join(timeout=30)
    if kind == "pipe":
        os.close(read_end)
    assert not reader.is_alive(), f"the reader still blocks on a {kind}"
    return got[0]


@pytest.mark.skipif(sys.platform != "linux", reason="reads an os.pipe() through /dev/fd")
@pytest.mark.parametrize("kind", ["pipe", "fifo"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_pipe_and_fifo_give_the_regular_file_utf8_error(tmp_path, name, kind,
                                                         isolated_record_cache):
    """A byte that is not UTF-8 is found in the one read a pipe allows."""
    load, valid = READERS[name]
    lines = valid.split(b"\n")
    data = b"\n".join(lines[:2] + [b'"caf\xe9"'] + lines[2:])
    regular = tmp_path / "input"
    regular.write_bytes(data)
    want = _outcome(load, str(regular))
    assert want[0] is RecordParseError
    assert want[1].startswith("{path}:3: not UTF-8: byte 0xe9 at column 5")
    assert _read_once(kind, tmp_path, data, load) == want


@pytest.mark.parametrize(
    "text",
    [
        record_line("m", "d", "q1", "p1", 1, True) + "{not json\n",
        record_line("m", "d", "q1", "p1", 1, True) + record_line("m", "d", "q1", "p1", 2, True),
        record_line("m", "d", "q1", "p1", -1, True),
        record_line("m", "d", "q1", "p1", 2**63, True),
        record_line("m", "d", "q1", "p1", 1, True).encode() + b"\xff\n",
        "[1]\n",
    ],
    ids=["malformed", "duplicate", "negative", "above int64", "not UTF-8", "not an object"],
)
def test_bad_records_file_is_the_same_error_and_writes_no_entry(tmp_path, capsys, text,
                                                                 isolated_record_cache):
    path = tmp_path / "r.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(CotBudgetError) as want:
        load_records(path)
    for _ in range(2):
        with pytest.raises(type(want.value)) as got:
            read_matrices(path)
        assert str(got.value) == str(want.value)
        code, out, err, written = run_command(capsys, tmp_path / "c.json", "complexity",
                                              "--records", str(path))
        assert (code, out, err, written) == (1, "", f"data error: {want.value}\n", None)
    assert not isolated_record_cache.exists() or entries(isolated_record_cache) == []


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_records_path_gives_the_same_message(tmp_path, capsys, kind):
    path = tmp_path / "records.jsonl"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(OSError) as want:
        load_records_loop(path)
    code, out, err, written = run_command(capsys, tmp_path / "c.json", "complexity",
                                          "--records", str(path))
    assert (code, out, err, written) == (1, "", f"data error: {want.value}\n", None)


def test_a_missing_pair_is_the_same_error_on_a_hit(tmp_path, capsys, synth_file):
    argv = ("complexity", "--records", str(synth_file), "--model", "nope", "--dataset", "x")
    first = run_command(capsys, tmp_path / "c.json", *argv)
    assert first == (1, "", "data error: no records for model='nope' dataset='x'\n", None)
    assert run_command(capsys, tmp_path / "c.json", *argv) == first


# ---------------------------------------------------------------------------
# logging and where the cache lives
# ---------------------------------------------------------------------------


def test_debug_log_names_each_outcome(cached, caplog, isolated_record_cache):
    path, matrices, entry = cached
    entry.unlink()
    with caplog.at_level(logging.DEBUG, logger="cotbudget.cache"):
        read_matrices(path)
        read_matrices(path)
        isolated_record_cache.chmod(0o770)
        read_matrices(path)
    assert cache_messages(caplog) == [
        f"record cache miss: {entry}",
        f"record cache wrote: {entry}",
        f"record cache hit: {entry}",
        f"record cache skipped ({isolated_record_cache} is group- or world-writable): {path}",
    ]


def test_tier1_never_touches_the_home_cache(tmp_path, synth_file, isolated_record_cache):
    """With XDG_CACHE_HOME set (as for every test here) HOME/.cache is never
    created; without it, entries go to HOME/.cache/cotbudget. Neither prints a
    line to stderr."""
    assert Path(os.environ["XDG_CACHE_HOME"]) == isolated_record_cache.parent
    home = tmp_path / "home"
    home.mkdir()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "HOME": str(home)}
    argv = [sys.executable, "-m", "cotbudget.cli", "complexity", "--records", str(synth_file),
            "--out", str(tmp_path / "c.json")]
    for _ in range(2):
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
    assert not (home / ".cache").exists()
    assert len(entries(isolated_record_cache)) == 1
    for xdg in (None, "relative/cache"):  # the XDG spec ignores a relative path
        env.pop("XDG_CACHE_HOME", None)
        if xdg:
            env["XDG_CACHE_HOME"] = xdg
        shutil.rmtree(home / ".cache", ignore_errors=True)
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120,
                              cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert len(entries(home / ".cache" / "cotbudget")) == 1
    assert not (tmp_path / "relative").exists()
