"""The files of one ``collect`` sweep: ``--out``, its failures sidecar, their locks and a resume.

``open_sweep`` owns the whole protocol, so a caller makes one call and gets
the sweep's writers. It locks ``--out`` and then the sidecar, its links
resolved; on a resume it repairs ``--out``'s torn final line and reads the
cells ``--out`` holds; it rewrites the sidecar through a fixed scratch file
that replaces it still locked. A final line without its newline is judged
by one rule, in ``--out`` and in the sidecar alike (see _final_line).
"""
from __future__ import annotations

import contextlib
import json
import logging
import os
import threading
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import CotBudgetError
from .grading import Question
from .inputs import PairCells, record_cells
from .prompts import PromptSpec

log = logging.getLogger(__name__)

TAIL_BLOCK_BYTES = 1 << 16
_TORN = object()


class JsonlWriter:
    """Append-style JSONL sink; the lock is the sweep's single serialization point.

    A line is ``json.dumps(obj, ensure_ascii=False)`` in UTF-8, except that a
    lone surrogate, which a reply's content can hold and UTF-8 cannot encode,
    is written as its JSON escape (``\\ud83d``), so the line still parses.
    """

    def __init__(self, path: str | Path, append: bool = False) -> None:
        self.path = Path(path)
        self._fh = self.path.open(
            "a" if append else "w", encoding="utf-8", errors="backslashreplace", newline="\n"
        )
        self._lock = threading.Lock()

    def write(self, obj: dict) -> None:
        line = json.dumps(obj, ensure_ascii=False)
        with self._lock:
            # Two writes, so the line is not copied to add its newline. A kill
            # between them leaves a final line that parses; a resume keeps it.
            self._fh.write(line)
            self._fh.write("\n")
            self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> JsonlWriter:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _final_line(path: str | Path, line: bytes, at: int) -> object:
    """``line``, the final line of ``path`` at byte ``at`` with no newline, parsed; or, when
    it is not UTF-8 JSON, as a crash in a write leaves it, _TORN, logged as cut off."""
    try:
        return json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError, JSONDecodeError, too deep
        log.warning("%s: cut off a torn final line (%d bytes, no newline) at byte %d; "
                    "its cell will be requested again", path, len(line), at)
        return _TORN


def drop_torn_tail(path: str | Path) -> int:
    """Make a records file safe to append to; returns the number of bytes cut.

    A torn final line (see _final_line) is cut off. A final line that
    parses but lacks its newline gets one. Lines before the last are left
    for the loader to judge.
    """
    with Path(path).open("r+b") as fh:
        start, tail = fh.seek(0, os.SEEK_END), b""
        while start > 0:
            step = min(TAIL_BLOCK_BYTES, start)
            fh.seek(start - step)
            block = fh.read(step)
            newline = block.rfind(b"\n")
            if newline >= 0:
                start -= step - newline - 1
                tail = block[newline + 1 :] + tail
                break
            start -= step
            tail = block + tail
        if not tail:
            return 0
        if _final_line(path, tail, start) is _TORN:
            fh.truncate(start)
            return len(tail)
        fh.seek(0, os.SEEK_END)
        fh.write(b"\n")
        return 0


def prior_cells(path: str | Path, model: str, dataset: str) -> PairCells:
    """The (question_id, prompt_id) cells of (model, dataset) a records file already holds.

    One pass reads the file through inputs.record_cells, the reader of
    ``records.read_matrices``, so a bad line or a repeated key raises the
    error read_matrices raises for it. Only the pair's PairCells is kept, so
    a resume holds a bit per prior cell once the file is read.
    """
    found = PairCells()
    for pair, _, _, _ in record_cells(Path(path)):
        if pair.cells is not found and pair.model == model and pair.dataset == dataset:
            found = pair.cells
    return found


@contextlib.contextmanager
def locked(path: str | Path, name: str, opener=None) -> Iterator[None]:
    """Hold an exclusive, non-blocking flock on path, opened (through
    ``opener``) for appending, so never truncated, until the block ends.

    Another process's lock, or a path that names another file once locked
    (a run that held the old one replaced it), is a usage error, and any
    other refusal a data error; both name ``name``. Nothing is locked where
    the filesystem answers ENOLCK or EOPNOTSUPP, and nothing is even opened
    without fcntl (as on Windows, which cannot replace an open file).
    """
    try:
        import fcntl
    except ImportError:
        yield
        return
    with open(path, "ab", opener=opener) as held:
        try:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            taken = os.path.samestat(os.fstat(held.fileno()), os.stat(path))
        except BlockingIOError:
            taken = False
        except OSError as exc:
            import errno

            if exc.errno not in (errno.ENOLCK, errno.EOPNOTSUPP):
                raise CotBudgetError(f"cannot lock {name}: {exc}") from exc
            taken = True
        if not taken:
            raise ValueError(f"{name} is locked by another process, such as a collect writing it")
        yield


def _no_follow(path: str, flags: int) -> int:
    return os.open(path, flags | getattr(os, "O_NOFOLLOW", 0), 0o666)


def scratch_path(sidecar: str) -> str:
    """The scratch file through which open_sweep writes the sidecar ``sidecar``."""
    return os.path.join(os.path.dirname(sidecar), f".{os.path.basename(sidecar)}.cotbudget-tmp")


@contextlib.contextmanager
def open_sweep(out: str, failures: str, questions: Sequence[Question],
               catalog: Iterable[PromptSpec], model: str, dataset: str,
               resume: bool) -> Iterator[tuple[JsonlWriter, JsonlWriter, PairCells]]:
    """Take a sweep's files, and yield (records writer, failures writer, cells to skip).

    ``--out`` is locked, then the sidecar ``failures``, its links resolved
    once so every spelling locks one file, until the block ends. A resume
    of an existing ``--out`` repairs its final line (drop_torn_tail) and
    skips the cells of (model, dataset) it holds; any other run skips none
    and truncates it. The sidecar is written anew through its scratch file
    (scratch_path), opened without following a link, locked, then emptied:
    only the sidecar's lock holder opens it, so one that a killed run left
    is taken over. A resume, with ``--out`` or without it, copies the
    sidecar's lines less those it settles, whose cell is in ``--out`` or in
    the questions x catalog grid; a final line without its newline gets
    one, or is cut if torn (see _final_line). The scratch takes the
    sidecar's permissions and replaces it still locked, so the path names a
    locked file at every instant; the failures writer appends to that file.
    """
    append = resume and os.path.exists(out)
    sidecar, name = os.path.realpath(failures), f"--failures {failures}"
    scratch = scratch_path(sidecar)
    question_ids = {question.question_id for question in questions}
    prompt_ids = {spec.prompt_id for spec in catalog}
    with locked(out, f"--out {out}"), locked(sidecar, name):
        skip = PairCells()
        if append:
            drop_torn_tail(out)
            skip = prior_cells(out, model, dataset)
        with locked(scratch, name, _no_follow):
            # A second handle, closed before the replace: Windows cannot replace an open file.
            with (open(scratch, "wb", opener=_no_follow) as kept,
                  contextlib.suppress(FileNotFoundError), open(sidecar, "rb") as lines):
                os.chmod(scratch, os.fstat(lines.fileno()).st_mode & 0o777)
                for line in lines if resume else ():
                    if line.endswith(b"\n"):
                        try:
                            obj = json.loads(line)
                        except (ValueError, RecursionError):  # not UTF-8, not JSON, or too deep
                            obj = None
                    else:
                        obj = _final_line(sidecar, line, lines.tell() - len(line))
                        if obj is _TORN:
                            break
                        line += b"\n"
                    if type(obj) is dict:
                        cell = obj.get("question_id"), obj.get("prompt_id")
                        if type(cell[0]) is str and type(cell[1]) is str and (
                            cell in skip or cell[0] in question_ids and cell[1] in prompt_ids
                        ):
                            continue
                    kept.write(line)
            os.replace(scratch, sidecar)
            with (JsonlWriter(sidecar, append=True) as failed,
                  JsonlWriter(out, append=append) as writer):
                yield writer, failed, skip
