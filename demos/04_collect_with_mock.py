#!/usr/bin/env python3
"""Walkthrough: collecting records from a chat-completions endpoint.

Uses the bundled deterministic mock server so the demo runs offline; point
SweepConfig.endpoint at a real server (with COTBUDGET_API_KEY exported) to
collect real records. Run: python demos/04_collect_with_mock.py
"""
import json
import tempfile
from pathlib import Path

from cotbudget import Question, SweepConfig, profile, read_matrices, sweep
from cotbudget.mockserver import MockChatEndpoint
from cotbudget.prompts import PromptCatalog, fixed_spec, limited_spec
from cotbudget.sweepfiles import JsonlWriter

questions = [
    Question(question_id="add-1", text="What is 2+2?", gold_answer="4"),
    Question(question_id="half", text="What is half of one?", gold_answer="1/2"),
    Question(question_id="hard", text="Open problem, unanswerable?", gold_answer="unknown"),
]

catalog = PromptCatalog(
    specs=(
        fixed_spec("NoCoT"),
        fixed_spec("BeConcise"),
        fixed_spec("DefaultCoT"),
        limited_spec("WordLimit", 25),
    )
)

# The mock echoes a scripted answer per question; "0.50" exercises the
# grader's exact-rational comparison against the gold "1/2".
answers = {
    "What is 2+2?": "4",
    "What is half of one?": "0.50",
    "Open problem, unanswerable?": "41",
}

# The records and failures files live in a temporary directory that is
# removed when the demo is done with them.
with tempfile.TemporaryDirectory(prefix="cotbudget-demo-") as workdir:
    records_path = Path(workdir) / "records.jsonl"
    failures_path = Path(workdir) / "failures.jsonl"
    with MockChatEndpoint(answers=answers) as mock:
        config = SweepConfig(
            endpoint=mock.url,
            model="mock-model",
            dataset="demo",
            catalog=catalog,
            max_parallel=2,
            retries=2,
        )
        with JsonlWriter(records_path) as writer, JsonlWriter(failures_path) as failures:
            summary = sweep(questions, config, writer, failures)
    lines = records_path.read_text(encoding="utf-8").splitlines()
    sample = [json.loads(line) for line in lines[:4]]
    matrix = read_matrices(records_path)["mock-model", "demo"]

print(f"swept {summary.requested} cells: {summary.succeeded} collected, "
      f"{summary.failed} failed, {summary.retries} retries")

print("\nsample records:")
for record in sample:
    print(f"  {record['question_id']:<7} {record['prompt_id']:<14} "
          f"tokens={record['tokens']:<3} correct={record['correct']} "
          f"extracted={record['extracted_answer']!r}")

# The profile's columns line up with matrix.question_ids; tau is -1 where infinite.
prof = profile(matrix)
print(f"\nread a {matrix.n_questions}x{matrix.n_prompts} matrix; "
      f"estimated complexities:")
for qid, tau, c_star in zip(prof.question_ids, prof.tau.tolist(), prof.c_star):
    shown = "infinite" if tau < 0 else f"{tau} tokens"
    print(f"  {qid}: {shown} (classifier accuracy {float(c_star):.2f})")
