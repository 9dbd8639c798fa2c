"""Deterministic in-process chat-completions endpoint for tests and demos.

The mock answers every request with a canned completion derived from the
question text, reporting a deterministic completion-token count, so sweeps
against it are fully reproducible. It speaks HTTP/1.1 and keeps connections
alive, as a real endpoint does. Failure injection (leading error replies
with an optional Retry-After, dropped connections, connections closed while
idle, missing usage, rewritten reply bodies) covers the retry, reconnect and
sidecar contracts.
"""
from __future__ import annotations

import json
import re
import socket
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
    # Keep connections alive, as a real endpoint does. A reply goes out in
    # two writes (head, then body); under Nagle's algorithm the body would
    # wait for the client's delayed ACK, about 40 ms a reply, so it is off.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        endpoint: MockChatEndpoint = self.server.endpoint  # type: ignore[attr-defined]
        self.served = 0
        with endpoint.lock:
            endpoint.connection_count += 1
            endpoint.open_sockets.add(self.connection)

    def finish(self) -> None:
        endpoint: MockChatEndpoint = self.server.endpoint  # type: ignore[attr-defined]
        with endpoint.lock:
            endpoint.open_sockets.discard(self.connection)
        super().finish()

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        endpoint: MockChatEndpoint = self.server.endpoint  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        body = json.loads(raw or b"{}")
        with endpoint.lock:
            endpoint.request_count += 1
            endpoint.requests.append(body)
            endpoint.raw_requests.append((self.path, dict(self.headers.items()), raw))
            drop = endpoint.drop_remaining > 0
            fail = not drop and endpoint.fail_remaining > 0
            if drop:
                endpoint.drop_remaining -= 1
            elif fail:
                endpoint.fail_remaining -= 1
        self.served += 1
        if drop or self.served == endpoint.close_after:
            self.close_connection = True  # unannounced: no Connection: close header
        if drop:
            return
        if fail:
            headers = {} if endpoint.retry_after is None else {"Retry-After": endpoint.retry_after}
            self._send(endpoint.fail_status, {"error": "injected failure"}, headers)
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

    def _send(self, status: int, payload: object, headers: dict[str, str] | None = None) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
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
    default_answer. Use fail_first to answer the first requests with
    fail_status (sending retry_after as Retry-After when given), drop_first
    to close the connection without replying to the first requests,
    close_after to close each connection unannounced after it has served
    that many replies (as a server's idle timeout does), omit_usage to
    exercise the missing-usage path, and rewrite (called on each 200 reply
    body, returning the body to send) to send malformed replies.

    request_count, requests (parsed bodies) and raw_requests (target,
    headers and body bytes) record what arrived; connection_count counts
    accepted connections.
    """

    def __init__(
        self,
        answers: dict[str, str] | None = None,
        default_answer: str = "42",
        fail_first: int = 0,
        fail_status: int = 500,
        retry_after: str | None = None,
        drop_first: int = 0,
        close_after: int = 0,
        omit_usage: bool = False,
        reply_fn: ReplyFn | None = None,
        rewrite: RewriteFn | None = None,
    ) -> None:
        self.answers = dict(answers or {})
        self.default_answer = default_answer
        self.fail_remaining = fail_first
        self.fail_status = fail_status
        self.retry_after = retry_after
        self.drop_remaining = drop_first
        self.close_after = close_after
        self.omit_usage = omit_usage
        self.reply_fn = reply_fn
        self.rewrite = rewrite
        self.lock = threading.Lock()
        self.request_count = 0
        self.requests: list[dict] = []
        self.raw_requests: list[tuple[str, dict[str, str], bytes]] = []
        self.responses: list[object] = []
        self.connection_count = 0
        self.open_sockets: set[socket.socket] = set()
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
        # A short poll interval lets stop() return within 50 ms, not 0.5 s.
        self._thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        return self.url

    def stop(self) -> None:
        """Stop accepting, then end kept-alive connections so their threads exit."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            with self.lock:
                sockets = list(self.open_sockets)
            for sock in sockets:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def __enter__(self) -> MockChatEndpoint:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
