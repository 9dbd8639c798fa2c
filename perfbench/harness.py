"""Shared benchmark plumbing: statistics, measured child processes and spans.

Imports only the standard library, so the traced wrappers can load it before
the program under test without changing what the program imports.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
HARNESS_LAYER = "bench"
TRACED_CLI = str(Path(__file__).with_name("traced_cli.py"))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples (rounding guards 99.9 * n)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = _rank(p, len(ordered))
    return ordered[rank - 1]


def tail_percentile(values, min_beyond: int = 10) -> tuple[float, float] | None:
    """(p, value) for the highest ladder percentile with >= min_beyond samples above it.

    None when even the median has fewer than min_beyond samples beyond it.
    """
    n = len(values)
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= min_beyond:
            best = (p, percentile(values, p))
    return best


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class ChildResult:
    label: str
    returncode: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stderr_path: str
    start: float = 0.0
    end: float = 0.0
    span_id: int | None = None

    @property
    def ok(self) -> bool:
        return self.returncode == 0

    def stderr(self) -> str:
        return Path(self.stderr_path).read_text(encoding="utf-8", errors="replace")


def program_env(root: Path) -> dict[str, str]:
    """Environment for children: the checkout's src/ first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_child(argv: list[str], env: dict[str, str], out_path: str, err_path: str,
                  timeout: float) -> dict:
    """Run argv to completion: wall from spawn to reap, peak RSS and CPU from wait4.

    Output goes to files, so a chatty child cannot block on a pipe. A child
    still running after timeout seconds is killed and reported with a
    negative return code.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "start": start,
        "end": end,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def serve() -> None:
    """Launcher loop: one JSON request per stdin line, one JSON result per stdout line."""
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(measure_child(**request)), flush=True)


class Launcher:
    """A small process that spawns and reaps the measured children.

    Linux charges a child's ru_maxrss with the peak RSS of the process that
    spawned it (exec replaces, and accounts, the spawner's address space), so
    children of this benchmark's own process, which holds numpy and check
    data, would all report at least its size. The launcher imports nothing
    but the standard library, so its children's peak RSS is their own.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, label: str, argv: list[str], *, env: dict[str, str], log_dir: Path,
            timeout: float = 150.0) -> ChildResult:
        log_dir.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log_dir / f"{label}.out", log_dir / f"{label}.err"
        request = {"argv": list(argv), "env": env, "out_path": str(out_path),
                   "err_path": str(err_path), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        got = json.loads(reply)
        return ChildResult(
            label=label,
            returncode=got["returncode"],
            wall_s=got["end"] - got["start"],
            rss_mb=got["rss_mb"],
            cpu_s=got["cpu_s"],
            stderr_path=str(err_path),
            start=got["start"],
            end=got["end"],
        )

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


@dataclass
class RunState:
    """What one benchmark run accumulates: operations, failures and children."""

    root: Path
    work: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer
    launcher: Launcher
    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self.env = program_env(self.root)
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.children: list[ChildResult] = []
        self._labels = itertools.count()

    def child(self, label: str, argv: list[str], span: str | None = None) -> ChildResult:
        """Run a child; a nonzero exit is a problem. span names its lifetime span."""
        unique = f"{next(self._labels):03d}-{label}"
        result = self.launcher.run(unique, argv, env=self.env, log_dir=self.work / "logs")
        if span is not None:
            result.span_id = self.tracer.record(
                span, result.start, result.end, self.tracer.current()
            )
        self.children.append(result)
        if not result.ok:
            self.problem(f"{label} exited {result.returncode}: {result.stderr()[-800:]}")
        return result

    def cli(self, label: str, args: list[str], traced: bool = False) -> ChildResult:
        """Run ``python -m cotbudget.cli ARGS``; traced, through traced_cli.py.

        A traced command's spans hang under a cli.process span covering the
        child's whole lifetime, interpreter start-up included.
        """
        if not traced:
            return self.child(label, python_argv("-m", "cotbudget.cli", *args))
        spans_path = self.work / "spans" / f"{len(self.children):04d}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        argv = python_argv(
            TRACED_CLI, str(spans_path), self.workload, self.tracer.run_id, "--", *args
        )
        result = self.child(label, argv, span="cli.process")
        if spans_path.exists():
            self.tracer.adopt(spans_path, result.span_id)
        return result

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def note(self, line: str) -> None:
        """A human-readable result line, printed before the JSON result."""
        self.notes.append(line)

    def operations(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    workload: str
    run_id: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; times come from time.perf_counter.

    On Linux perf_counter reads CLOCK_MONOTONIC, which every process on the
    machine shares, so spans recorded by child processes line up with the
    parent's. A span opened on a worker thread with nothing open on that
    thread takes as parent the innermost span open on the creating thread.
    """

    def __init__(self, workload: str, run_id: str) -> None:
        self.workload = workload
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Innermost span open on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.workload, self.run_id))

    def record(self, name: str, start: float, end: float, parent_id: int | None = None) -> int:
        """Add a span measured elsewhere, such as a child process's lifetime."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, parent_id, name, start, end, self.workload, self.run_id))
        return span_id

    def adopt(self, path: Path, parent_id: int | None) -> None:
        """Merge spans a child process dumped, hanging its roots under parent_id."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        remap = {raw["span_id"]: next(self._ids) for raw in payload}
        for raw in payload:
            self.spans.append(
                Span(
                    remap[raw["span_id"]],
                    remap.get(raw["parent_id"], parent_id),
                    raw["name"],
                    raw["start"],
                    raw["end"],
                    self.workload,
                    self.run_id,
                )
            )

    def wrap(self, owner, attr: str, name: str) -> bool:
        """Replace owner.attr with a version that records a span per call.

        Returns False when owner has no such attribute, so a renamed function
        loses its span instead of failing the run.
        """
        if attr not in vars(owner):
            return False
        original = getattr(owner, attr)
        raw = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        if isinstance(raw, (classmethod, staticmethod)):
            traced = staticmethod(traced)
        setattr(owner, attr, traced)
        return True

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the union of its children.

    Spans of concurrent threads can overlap, so a layer's self time is busy
    time summed over threads and the layers can add up to more than wall.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        inner = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.span_id, [])]
        inner = [(a, b) for a, b in inner if b > a]
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - _union_length(inner)
    return out


def coverage(spans: list[Span], windows: list[tuple[float, float]]) -> float:
    """Share of the windows' total length covered by spans of program layers."""
    layer_iv = [(s.start, s.end) for s in spans if s.layer != HARNESS_LAYER]
    covered = 0.0
    for w_start, w_end in windows:
        clipped = [(max(a, w_start), min(b, w_end)) for a, b in layer_iv]
        covered += _union_length([(a, b) for a, b in clipped if b > a])
    total = sum(b - a for a, b in windows)
    return covered / total if total else 0.0


def within(spans: list[Span], windows: list[tuple[float, float]]) -> list[Span]:
    """The spans that lie inside one of the windows."""
    return [s for s in spans if any(a <= s.start and s.end <= b for a, b in windows)]


def trace_metrics(spans: list[Span], windows: list[tuple[float, float]],
                  untraced_walls: list[float], traced_walls: list[float]) -> dict[str, float]:
    """self.<layer>_s per traced pass, tracing overhead and span coverage."""
    out = {
        f"self.{layer}_s": seconds / len(windows)
        for layer, seconds in self_times(spans).items()
        if layer != HARNESS_LAYER
    }
    out["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    out["trace.coverage"] = coverage(spans, windows)
    return out


def span_stats(spans: list[Span], name: str) -> tuple[int, float]:
    """(call count, summed duration) of the spans with this name."""
    durations = [s.duration for s in spans if s.name == name]
    return len(durations), sum(durations)


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve()
