"""Deterministic in-process chat-completions endpoint for tests and demos.

The mock answers every request with a canned completion derived from the
question text, reporting a deterministic completion-token count, so sweeps
against it are fully reproducible. Failure injection (leading 500s, missing
usage, rewritten reply bodies) covers the retry and sidecar contracts.
"""
from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

QUESTION_RE = re.compile(r"Question: ([^\n]*)")

Reply = tuple[str, int | None]
ReplyFn = Callable[[str, dict], Reply]
RewriteFn = Callable[[dict], object]


def default_reply(question_text: str, answer: str) -> Reply:
    content = f"Thinking briefly about it. Answer: {answer}"
    return content, len(content) // 4


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        endpoint: MockChatEndpoint = self.server.endpoint  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        with endpoint.lock:
            endpoint.request_count += 1
            endpoint.requests.append(body)
            fail = endpoint.fail_remaining > 0
            if fail:
                endpoint.fail_remaining -= 1
        if fail:
            self._send(500, {"error": "injected failure"})
            return
        content, tokens = endpoint.reply_for(body)
        response: dict = {
            "id": "mock",
            "object": "chat.completion",
            "model": body.get("model", "mock"),
            "choices": [
                {
                    "index": 0,
                    "message": {"role": "assistant", "content": content},
                    "finish_reason": "stop",
                }
            ],
        }
        if tokens is not None and not endpoint.omit_usage:
            response["usage"] = {
                "prompt_tokens": 1,
                "completion_tokens": tokens,
                "total_tokens": 1 + tokens,
            }
        if endpoint.rewrite is not None:
            response = endpoint.rewrite(response)
        with endpoint.lock:
            endpoint.responses.append(response)
        self._send(200, response)

    def _send(self, status: int, payload: object) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt: str, *args) -> None:  # silence per-request logging
        pass


class MockChatEndpoint:
    """Local HTTP server speaking just enough chat-completions JSON for sweeps.

    answers maps question text (the first line after "Question: ") to the
    final answer the mock should give; unmatched questions get
    default_answer. Use fail_first to inject leading HTTP 500s,
    omit_usage to exercise the missing-usage path, and rewrite (called on
    each 200 reply body, returning the body to send) to send malformed
    replies.
    """

    def __init__(
        self,
        answers: dict[str, str] | None = None,
        default_answer: str = "42",
        fail_first: int = 0,
        omit_usage: bool = False,
        reply_fn: ReplyFn | None = None,
        rewrite: RewriteFn | None = None,
    ) -> None:
        self.answers = dict(answers or {})
        self.default_answer = default_answer
        self.fail_remaining = fail_first
        self.omit_usage = omit_usage
        self.reply_fn = reply_fn
        self.rewrite = rewrite
        self.lock = threading.Lock()
        self.request_count = 0
        self.requests: list[dict] = []
        self.responses: list[object] = []
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.url = ""

    def reply_for(self, body: dict) -> Reply:
        content = ""
        messages = body.get("messages") or []
        if messages:
            content = messages[0].get("content", "")
        m = QUESTION_RE.search(content)
        question_text = m.group(1) if m else ""
        if self.reply_fn is not None:
            return self.reply_fn(question_text, body)
        answer = self.answers.get(question_text, self.default_answer)
        return default_reply(question_text, answer)

    def start(self) -> str:
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        server.endpoint = self  # type: ignore[attr-defined]
        self._server = server
        self._thread = threading.Thread(target=server.serve_forever, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        return self.url

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def __enter__(self) -> MockChatEndpoint:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
