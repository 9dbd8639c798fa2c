"""Workload collect-mock: the only I/O-bound path.

``cotbudget collect --max-parallel 2`` (the reference machine has 2 cores)
sweeps the 31-prompt default catalog over a small question set against the
scripted mock, which runs in its own process with a fixed 10 ms service time. Then
``collect --resume`` finishes a prior partial sweep of tens of thousands of
records that has a few hundred cells left, so the resume reads a large
records file beside the sweep's writes. No analysis layer runs.
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import time
import urllib.request
from contextlib import nullcontext
from pathlib import Path

import mock_server
from harness import (
    RunState,
    median,
    percentile,
    python_argv,
    span_stats,
    tail_percentile,
    trace_metrics,
    within,
)

NAME = "collect-mock"
MODEL = "mock-model"
DATASET = "mock-set"
SERVICE_MS = 10
MAX_PARALLEL = 2
FRESH_QUESTIONS = 20
RESUME_QUESTIONS = 900
RESUME_LEFT = 300
SETUP_REPEATS = 3
HELP_REPEATS = 5
MOCK_SERVER = str(Path(__file__).with_name("mock_server.py"))


class Mock:
    """The mock endpoint's process: started, probed once, stopped on close."""

    def __init__(self, state: RunState, stats_path: Path) -> None:
        self.stats_path = stats_path
        self.proc = subprocess.Popen(
            python_argv(MOCK_SERVER, "--service-ms", str(SERVICE_MS), "--stats", str(stats_path)),
            env=state.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            self.url = self.proc.stdout.readline().strip()
            if not self.url.startswith("http://127.0.0.1:"):
                raise RuntimeError(f"mock endpoint did not start: {self.url!r}")
            body = json.dumps({"model": MODEL, "messages": [{"role": "user", "content": "probe"}]})
            request = urllib.request.Request(
                self.url, data=body.encode(), headers={"Content-Type": "application/json"}
            )
            with urllib.request.urlopen(request, timeout=30) as reply:
                reply.read()
        except BaseException:
            self.close()
            raise

    def close(self) -> dict:
        """Stop the process and wait for it; returns its request statistics."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.stats_path.exists():
            return json.loads(self.stats_path.read_text(encoding="utf-8"))
        return {"requests": 0, "service_ms": []}


class Collect:
    def __init__(self, state: RunState) -> None:
        from cotbudget.prompts import default_catalog

        self.state = state
        self.inputs = state.work / "inputs"
        self.instructions = {s.prompt_id: s.instruction for s in default_catalog()}
        self.fresh_questions = [mock_server.question(state.seed, i) for i in range(FRESH_QUESTIONS)]
        self.resume_questions = [
            mock_server.question(state.seed, i)
            for i in range(FRESH_QUESTIONS, FRESH_QUESTIONS + RESUME_QUESTIONS)
        ]
        cells = [(q["question_id"], p) for q in self.resume_questions for p in self.instructions]
        left = set(random.Random(state.seed).sample(range(len(cells)), RESUME_LEFT))
        self.prior_cells = [c for i, c in enumerate(cells) if i not in left]
        self.texts = {q["question_id"]: q["text"] for q in self.fresh_questions + self.resume_questions}
        self.mock: Mock | None = None

    def setup(self) -> float:
        """Question files, the prior partial sweep and a mock that has replied once."""
        start = time.perf_counter()
        if self.mock is not None:
            self.mock.close()
        self.inputs.mkdir(parents=True, exist_ok=True)
        for name, questions in (("fresh", self.fresh_questions), ("resume", self.resume_questions)):
            with (self.inputs / f"{name}.questions.jsonl").open("w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(q) + "\n" for q in questions)
        with (self.inputs / "prior.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
            for qid, pid in self.prior_cells:
                correct, tokens, content = mock_server.scripted(self.texts[qid], self.instructions[pid])
                record = {
                    "model": MODEL, "dataset": DATASET, "question_id": qid, "prompt_id": pid,
                    "tokens": tokens, "correct": correct, "response": content,
                    "extracted_answer": content.rsplit("Answer: ", 1)[1],
                }
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        self.mock = Mock(self.state, self.state.work / "mock-stats.json")
        return time.perf_counter() - start

    def run_pass(self, index: int, traced: bool) -> dict:
        """A fresh sweep, then a resume of a copy of the prior partial sweep.

        Returns the two children and the pass wall, which counts the two
        commands only; the copy and the checks run outside it.
        """
        state = self.state
        out_dir = state.work / f"pass{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(self.inputs / "prior.jsonl", out_dir / "resume.jsonl")
        common = ["collect", "--endpoint", self.mock.url, "--model", MODEL, "--dataset", DATASET,
                  "--max-parallel", str(MAX_PARALLEL)]
        with state.tracer.span("bench.pass") if traced else nullcontext() as span_id:
            fresh = state.cli("collect", common + [
                "--questions", str(self.inputs / "fresh.questions.jsonl"),
                "--out", str(out_dir / "fresh.jsonl"),
                "--failures", str(out_dir / "fresh.failures.jsonl"),
            ], traced)
            resume = state.cli("collect_resume", common + [
                "--questions", str(self.inputs / "resume.questions.jsonl"),
                "--out", str(out_dir / "resume.jsonl"),
                "--failures", str(out_dir / "resume.failures.jsonl"), "--resume",
            ], traced)
        window = None
        if traced:
            span = next(s for s in state.tracer.spans if s.span_id == span_id)
            window = (span.start, span.end)
        state.operations(FRESH_QUESTIONS * len(self.instructions) + RESUME_LEFT)
        return {"fresh": fresh, "resume": resume, "wall": fresh.wall_s + resume.wall_s,
                "window": window, "dir": out_dir}

    def check_pass(self, result: dict) -> None:
        """Account every cell of one pass; adds the record counts to result."""
        out_dir = result["dir"]
        fresh_bad, result["fresh_records"] = self.check_cells(
            out_dir / "fresh.jsonl", out_dir / "fresh.failures.jsonl", self.fresh_questions, 0
        )
        resume_bad, result["resume_records"] = self.check_cells(
            out_dir / "resume.jsonl", out_dir / "resume.failures.jsonl",
            self.resume_questions, len(self.prior_cells),
        )
        self.state.operations(0, fresh_bad + resume_bad)

    def check_cells(self, records_path: Path, failures_path: Path, questions, prior: int):
        """Failed cells of one collect run, and the records the file holds.

        Every requested cell must appear exactly once across the records file
        and the failures sidecar, and each record collected by this run must
        carry the mock's scripted correctness and token count. The first
        ``prior`` lines, from the earlier partial sweep, must be unchanged.
        """
        wanted = {(q["question_id"], p) for q in questions for p in self.instructions}
        seen: dict[tuple[str, str], int] = {}
        bad = 0
        records = 0
        problems = []
        lines = records_path.read_text(encoding="utf-8").splitlines() if records_path.exists() else []
        if prior:
            original = (self.inputs / "prior.jsonl").read_text(encoding="utf-8").splitlines()
            if lines[:prior] != original:
                bad += 1
                problems.append(f"{records_path.name}: prior records changed")
        for number, line in enumerate(lines, start=1):
            try:
                obj = json.loads(line)
                key = (obj["question_id"], obj["prompt_id"])
            except (ValueError, KeyError, TypeError):
                bad += 1
                problems.append(f"{records_path.name}:{number}: not a record")
                continue
            seen[key] = seen.get(key, 0) + 1
            records += 1
            if number > prior and key in wanted:
                correct, tokens, _ = mock_server.scripted(self.texts[key[0]], self.instructions[key[1]])
                if (obj.get("correct"), obj.get("tokens")) != (correct, tokens) or (
                    obj.get("model"), obj.get("dataset")) != (MODEL, DATASET):
                    bad += 1
                    problems.append(f"{records_path.name}:{number}: {key} is not what the mock sent")
        if failures_path.exists():
            for line in failures_path.read_text(encoding="utf-8").splitlines():
                bad += 1
                try:
                    obj = json.loads(line)
                    key = (obj["question_id"], obj["prompt_id"])
                except (ValueError, KeyError, TypeError):
                    problems.append(f"{failures_path.name}: unreadable line {line[:80]!r}")
                    continue
                seen[key] = seen.get(key, 0) + 1
                problems.append(f"{failures_path.name}: {key} failed: {obj.get('error')}")
        missing = len(wanted - set(seen))
        repeated = sum(1 for key, count in seen.items() if count > 1 or key not in wanted)
        if missing or repeated:
            problems.append(f"{records_path.name}: {missing} cells missing, {repeated} repeated or unasked")
        for problem in problems[:5]:
            self.state.problem(problem)
        return bad + missing + repeated, records


def run(state: RunState) -> tuple[dict, dict]:
    work = Collect(state)
    tracer = state.tracer
    e2e: dict[str, float] = {}
    try:
        setups = [work.setup() for _ in range(1 if state.trace else SETUP_REPEATS)]
        helps = []
        if state.trace:
            helps = [state.child("help", python_argv("-m", "cotbudget.cli", "--help"))
                     for _ in range(HELP_REPEATS + 1)][1:]
            state.operations(len(helps))
        passes, traced, windows = [], [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < state.seconds:
            passes.append(work.run_pass(len(passes) + len(traced), traced=False))
            if state.trace:
                traced.append(work.run_pass(len(passes) + len(traced), traced=True))
                windows.append(traced[-1]["window"])
    finally:
        stats = work.mock.close() if work.mock is not None else {"requests": 0, "service_ms": []}
    # Checked only now: reading the records files grows this process, and a
    # child spawned afterwards would report that growth as its own peak RSS.
    for result in passes + traced:
        work.check_pass(result)

    cells = FRESH_QUESTIONS * len(work.instructions)
    run_s = median([p["wall"] for p in passes])
    cells_per_s = median([cells / p["fresh"].wall_s for p in passes])
    resume_s = median([p["resume"].wall_s for p in passes])
    service = stats["service_ms"]
    state.note(f"collect_cells_per_s = {cells_per_s:.4f} cells/s (median of {len(passes)} sweeps "
               f"of {cells} cells, max_parallel {MAX_PARALLEL})")
    state.note(f"resume_s = {resume_s:.4f} s (median of {len(passes)} resumes, "
               f"{len(work.prior_cells)} prior records, {RESUME_LEFT} cells left)")
    tail = tail_percentile(service)
    if tail:
        state.note(f"mock service_ms p50 = {percentile(service, 50):.4f}, "
                   f"p{tail[0]:g} = {tail[1]:.4f} (n = {len(service)})")
    if not state.trace:
        e2e["setup_s"] = median(setups)
        e2e["run_s"] = run_s
        e2e["peak_rss_mb"] = max(c.rss_mb for c in state.children)
        return e2e, {}

    spans = within(tracer.spans, windows)
    requested = cells + RESUME_LEFT
    layer: dict[str, float] = {
        "count.records": passes[0]["resume_records"],
        "count.cells_present": passes[0]["fresh_records"],
        "count.cells_requested": requested,
        "cli.import_s": median([h.wall_s for h in helps]),
        "collect.sweep_cells_per_s": cells_per_s,
        "collect.resume_s": resume_s,
        "mock.service_ms_p50": percentile(service, 50),
        "mock.service_ms_p99": percentile(service, 99),
    }
    for label, key in (("collect", "fresh"), ("collect_resume", "resume")):
        layer[f"cli.{label}_s"] = median([p[key].wall_s for p in passes])
        layer[f"cli.{label}_rss_mb"] = max(p[key].rss_mb for p in passes)
    cycle = 1000.0 * MAX_PARALLEL / cells_per_s
    layer["collect.cell_cycle_ms"] = cycle
    layer["collect.overhead_ms_per_cell"] = cycle - percentile(service, 50)
    help_cpu = median([h.cpu_s for h in helps])
    layer["collect.client_cpu_ms_per_cell"] = 1000.0 * median(
        [(p["fresh"].cpu_s - help_cpu) / cells for p in passes]
    )
    for metric, name in (("collect.grade_us", "collect.grade"), ("prompts.render_us", "prompts.render"),
                         ("collect.jsonl_write_us", "collect.jsonl_write")):
        count, total = span_stats(spans, name)
        layer[metric] = 1e6 * total / count if count else 0.0
    layer["collect.success_ratio"] = median([p["fresh_records"] / cells for p in passes])
    # Requests beyond the set-up probe and one per requested cell are retries.
    layer["collect.retries"] = stats["requests"] - 1 - requested * (len(passes) + len(traced))
    resume_spans = [s for s in spans if s.name in ("records.load_records", "collect.existing_cells")]
    layer["collect.resume_skip_s"] = sum(s.duration for s in resume_spans) / len(windows)
    loads, load_total = span_stats(spans, "records.load_records")
    if loads:
        layer["records.load_records_s"] = load_total / loads
        layer["records.load_records_per_s"] = len(work.prior_cells) / layer["records.load_records_s"]
    layer.update(trace_metrics(spans, windows, [p["wall"] for p in passes],
                               [p["wall"] for p in traced]))
    return e2e, layer
