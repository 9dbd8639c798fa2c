"""Content-addressed cache of parsed record files: ``read`` runs the whole protocol.

``records.read_matrices`` is one call of ``read``, so every analysis command
that reads a records file goes through it. The prior ``--out`` of
``collect --resume`` does not: ``sweepfiles.prior_cells`` reads it once,
line by line, and it grows as soon as the resume appends. An entry holds
every (model, dataset) RunMatrix of one records file. ``read`` has one
parser, ``records._parse``: on a miss it reads the file once, through the
hashing reader, and the entry is written from the matrices it returns. An
entry's name is a BLAKE2b hash of the format version, that parser's source
(every file it runs: this module, ``records.py`` and ``inputs.py``) and the
file's bytes, so an edited file, or a file read by another version of the
parser, never finds an old entry. A second parser would share entries with
the first, which is why ``read`` takes none.

An entry is an uncompressed ``.npz`` (NEP 1 ``.npy`` members, read with
``allow_pickle=False``): ``header`` is the UTF-8 bytes of a JSON object
``{"version", "pairs": [[model, dataset, question_ids, prompt_ids], ...]}``,
and pair ``i`` has int64 ``tokens{i}`` and bool ``correct{i}`` and
``present{i}``. Ids are JSON, not a numpy ``'U'`` array, which would drop
trailing NULs and merge ``"q1\\x00"`` with ``"q1"``. An entry is checked in
full before use; one that fails any check, or cannot be read, is a miss.

Entries live in ``$XDG_CACHE_HOME/cotbudget`` (``~/.cache/cotbudget`` by
default), which is used only when it is a directory owned by the current
user that neither group nor others may write. At most ``MAX_ENTRIES`` files
are kept; the least recently used (by mtime, which a hit refreshes) go
first. Any OS error means the file is read uncached, so the cache never
changes a result, an error or an exit code.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import logging
import os
import stat
import tempfile
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import records

try:
    # The interpreter's own BLAKE2b: importing hashlib loads OpenSSL, which
    # adds 3.4 MB to the peak RSS of a command that parses a records file.
    from _blake2 import blake2b
except ImportError:  # an interpreter without the module
    from hashlib import blake2b

FORMAT_VERSION = 1
MAX_ENTRIES = 16
ARRAYS = ("tokens", "correct", "present")  # pair i's members are tokens{i}, ...

log = logging.getLogger(__name__)

Matrices = dict[tuple[str, str], records.RunMatrix]  # each (model, dataset) pair's, pairs sorted


def _hash(data: bytes = b""):
    return blake2b(data, digest_size=32)


@functools.cache
def _reader_digest() -> bytes:
    """What else an entry depends on: the format version and the reader's source."""
    digest = _hash(f"cotbudget records cache {FORMAT_VERSION}\n".encode())
    for name in ("inputs.py", "records.py", "cache.py"):  # every file of the parser
        digest.update(Path(__file__).with_name(name).read_bytes())
    return digest.digest()


def content_digest(source: BinaryIO) -> bytes:
    """The hash of an open binary file's bytes from its current position."""
    reader, buffer = HashingReader(source), bytearray(1 << 18)
    while reader.readinto(buffer):
        pass
    return reader.digest()


class HashingReader(io.RawIOBase):
    """A raw binary stream that hashes the bytes read through it."""

    def __init__(self, raw: BinaryIO) -> None:
        self._raw = raw
        self._digest = _hash()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._raw.readinto(buffer)
        if count:
            self._digest.update(memoryview(buffer)[:count])
        return count

    def digest(self) -> bytes:
        return self._digest.digest()


def read(path: Path) -> Matrices:
    """The matrices of the records file at path: its entry's, or ``records._parse``'s.

    A file that _folder refuses is parsed uncached. Otherwise a miss parses
    the file again through a HashingReader and stores the matrices under
    the hash of the bytes parsed, so a file that changes while it is read
    is stored under what was parsed.
    """
    with path.open("rb", buffering=0) as raw:
        try:
            folder, reader = _folder(raw), _reader_digest()
        except (OSError, _Unusable) as exc:
            log.debug("record cache skipped (%s): %s", exc, raw.name)
            return records._parse(path, raw)
        found = _load(_entry(folder, reader, content_digest(raw)))
        if found is not None:
            return found
        raw.seek(0)
        source = HashingReader(raw)
        matrices = records._parse(path, source)
    _save(_entry(folder, reader, source.digest()), matrices)
    return matrices


def _entry(folder: Path, reader: bytes, content: bytes) -> Path:
    """The entry of a records file whose bytes hash to ``content``."""
    return folder / f"{_hash(reader + content).hexdigest()}.npz"


def _load(entry: Path) -> Matrices | None:
    """The matrices of a valid entry, or None (a miss)."""
    try:
        with entry.open("rb") as fh, np.load(fh, allow_pickle=False) as npz:
            matrices = _checked(npz)
    except FileNotFoundError:
        log.debug("record cache miss: %s", entry)
        return None
    except Exception as exc:  # whatever is wrong with an entry, it is only a miss
        log.debug("record cache miss (bad entry: %s): %s", exc, entry)
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    log.debug("record cache hit: %s", entry)
    return matrices


def _save(entry: Path, matrices: Matrices) -> None:
    """Write an entry atomically, then evict the oldest beyond MAX_ENTRIES."""
    header = json.dumps({
        "version": FORMAT_VERSION,
        "pairs": [[m.model, m.dataset, m.question_ids, m.prompt_ids] for m in matrices.values()],
    })  # ASCII-escaped, so ids with lone surrogates encode too
    arrays = {"header": np.frombuffer(header.encode("ascii"), dtype=np.uint8)}
    for i, m in enumerate(matrices.values()):
        arrays.update({f"{a}{i}": getattr(m, a) for a in ARRAYS})
    try:
        fd, temp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(temp, entry)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)
        _evict(entry.parent)
    except OSError as exc:
        log.debug("record cache skipped (cannot write: %s): %s", exc, entry)
        return
    log.debug("record cache wrote: %s", entry)


def _evict(folder: Path) -> None:
    # Every regular file counts, so temp files of writers that died go in time.
    ages = []
    with os.scandir(folder) as items:
        for item in items:
            with contextlib.suppress(FileNotFoundError):  # another process removed it
                if item.is_file(follow_symlinks=False):
                    ages.append((item.stat(follow_symlinks=False).st_mtime_ns, item.path))
    for _, path in sorted(ages, reverse=True)[MAX_ENTRIES:]:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


class _Unusable(Exception):
    """Why a records file is read without the cache."""


def _folder(source: BinaryIO) -> Path:
    if not stat.S_ISREG(os.fstat(source.fileno()).st_mode):
        raise _Unusable("not a regular file")
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores a relative path
        base = os.path.join(os.path.expanduser("~"), ".cache")
    folder = Path(base, "cotbudget")
    if not folder.is_absolute():
        raise _Unusable("no home directory")
    if not hasattr(os, "geteuid"):
        raise _Unusable("no file owners on this platform")
    folder.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = folder.stat()
    if info.st_uid != os.geteuid():
        raise _Unusable(f"{folder} is not owned by the current user")
    if info.st_mode & 0o022:
        raise _Unusable(f"{folder} is group- or world-writable")
    return folder


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise ValueError(what)


def _sorted_ids(ids: object) -> bool:
    """A list in strictly increasing order; RunMatrix checks the ids themselves."""
    return type(ids) is list and all(a < b for a, b in zip(ids, ids[1:]))


def _checked(npz) -> Matrices:
    """Every pair's matrix of an entry, after checking all that the parser guarantees."""
    header = npz["header"]
    _require(header.dtype == np.uint8 and header.ndim == 1, "header is not a byte string")
    meta = json.loads(header.tobytes().decode("utf-8"))
    _require(type(meta) is dict and meta.get("version") == FORMAT_VERSION, "format version")
    pairs = meta.get("pairs")
    _require(type(pairs) is list, "pairs is not a list")
    names = {"header"} | {f"{a}{i}" for a in ARRAYS for i in range(len(pairs))}
    _require(set(npz.files) == names, "member names")
    out: Matrices = {}
    for i, pair in enumerate(pairs):
        _require(type(pair) is list and len(pair) == 4, f"pair {i}")
        _require(_sorted_ids(pair[2]) and _sorted_ids(pair[3]), f"pair {i} ids")
        tokens, correct, present = (npz[f"{a}{i}"] for a in ARRAYS)
        for array, dtype in ((tokens, np.int64), (correct, np.bool_), (present, np.bool_)):
            _require(array.dtype == dtype and array.flags.c_contiguous, f"pair {i} array layout")
        # RunMatrix refuses bad names, no ids or a bad id, a wrong shape and negative tokens.
        matrix = records.RunMatrix(*pair, tokens, correct, present)
        _require(bool(present.any(axis=0).all() and present.any(axis=1).all()),
                 f"pair {i} has an empty row or column")
        _require(not tokens[~present].any() and not correct[~present].any(),
                 f"pair {i} padding is not zero")
        out[matrix.model, matrix.dataset] = matrix
    keys = list(out)
    _require(len(keys) == len(pairs) and all(a < b for a, b in zip(keys, keys[1:])),
             "pairs are not sorted and distinct")
    return out
