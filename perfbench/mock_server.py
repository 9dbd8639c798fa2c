"""Out-of-process chat-completions mock with a scripted, timed reply function.

Usage: python3 perfbench/mock_server.py --service-ms MS --stats STATS.json

Starts cotbudget's MockChatEndpoint in this process with the benchmark's own
reply function, prints the endpoint URL on one stdout line and serves until
its stdin closes. It then stops the server and writes the per-request
service times to STATS.json.

The reply is a pure function of the question text and the prompt's
instruction, so the benchmark can check every collected cell: the answer is
right exactly when the reply is at least as long as the question's scripted
complexity, and lengths vary by prompt.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from pathlib import Path

QUESTION_FORMAT = "Item {seed}-{index}: what is {a} plus {b}?"
_QUESTION_RE = re.compile(r"what is (\d+) plus (\d+)\?")
_INSTRUCTION_RE = re.compile(r"Answer the following question\. ([^\n]*)\n")
INFINITE_SHARE = 6  # one question in six is never answered right


def _unit(*parts: str) -> float:
    """Stable hash of the parts, mapped to [0, 1)."""
    digest = hashlib.blake2b("\x1f".join(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def question(seed: int, index: int) -> dict:
    a = int(_unit("a", str(seed), str(index)) * 900) + 100
    b = int(_unit("b", str(seed), str(index)) * 900) + 100
    text = QUESTION_FORMAT.format(seed=seed, index=index, a=a, b=b)
    return {"question_id": f"s{seed}-q{index:05d}", "text": text, "gold_answer": str(a + b)}


def scripted(question_text: str, instruction: str) -> tuple[bool, int, str]:
    """(correct, completion tokens, content) the mock returns for one cell."""
    match = _QUESTION_RE.search(question_text)
    answer = int(match.group(1)) + int(match.group(2)) if match else 0
    base = 20 + int(_unit("base", question_text) * 380)
    factor = 0.05 + 1.45 * _unit("factor", instruction)
    tokens = max(1, round(base * factor))
    hard = _unit("hard", question_text) * INFINITE_SHARE < 1
    tau = 10 + int(_unit("tau", question_text) * 290)
    correct = not hard and tokens >= tau
    shown = answer if correct else answer + 1
    content = "step " * min(tokens, 400) + f"\nAnswer: {shown}"
    return correct, tokens, content


def instruction_of(prompt_text: str) -> str:
    match = _INSTRUCTION_RE.search(prompt_text)
    return match.group(1) if match else prompt_text.split("\n", 1)[0]


class ScriptedReplies:
    """reply_fn for MockChatEndpoint: a fixed service time plus the script."""

    def __init__(self, service_s: float) -> None:
        self.service_s = service_s
        self.lock = threading.Lock()
        self.service_ms: list[float] = []

    def __call__(self, question_text: str, body: dict) -> tuple[str, int]:
        start = time.perf_counter()
        messages = body.get("messages") or [{}]
        prompt_text = messages[0].get("content", "")
        _, tokens, content = scripted(question_text, instruction_of(prompt_text))
        remaining = self.service_s - (time.perf_counter() - start)
        if remaining > 0:
            time.sleep(remaining)
        elapsed_ms = 1000.0 * (time.perf_counter() - start)
        with self.lock:
            self.service_ms.append(elapsed_ms)
        return content, tokens


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="scripted mock chat-completions endpoint")
    parser.add_argument("--service-ms", type=float, required=True)
    parser.add_argument("--stats", required=True)
    args = parser.parse_args(argv)

    from cotbudget.mockserver import MockChatEndpoint

    replies = ScriptedReplies(args.service_ms / 1000.0)
    endpoint = MockChatEndpoint(reply_fn=replies)
    url = endpoint.start()
    try:
        print(url, flush=True)
        sys.stdin.read()
    finally:
        endpoint.stop()
        with replies.lock:
            stats = {"requests": endpoint.request_count, "service_ms": replies.service_ms}
        Path(args.stats).write_text(json.dumps(stats), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
