"""Sweeps over https: the mock served over TLS with the test certificate in tests/tls/.

The server wraps each connection it accepts (see ``tls_mock``), so the
client's handshake, its certificate check and its deadline reader run over a
real ``SSLSocket``, with no option added to the mock or to ``collect``.
"""
from __future__ import annotations

import contextlib
import json
import socket
import socketserver
import ssl
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from cotbudget import mockserver, transport
from cotbudget.cli import main
from cotbudget.collect import JsonlWriter, Question, SweepConfig, sweep
from cotbudget.mockserver import MockChatEndpoint
from cotbudget.prompts import PromptCatalog, fixed_spec

TLS = Path(__file__).resolve().parent / "tls"
CERT = TLS / "cert.pem"
KEY = "sk-tls-test-0123456789"


@pytest.fixture
def tls_mock(monkeypatch):
    """Serve every MockChatEndpoint of the test over TLS; its https:// URL is ``https(mock)``.

    The TLS context cache is emptied first, so a test sees its own context loads.
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(CERT, TLS / "key.pem")

    class TLSServer(mockserver.ThreadingHTTPServer):
        def get_request(self):
            sock, address = super().get_request()
            return context.wrap_socket(sock, server_side=True), address

    monkeypatch.setattr(mockserver, "ThreadingHTTPServer", TLSServer)
    transport._load_tls_context.cache_clear()
    yield
    transport._load_tls_context.cache_clear()


def https(mock: MockChatEndpoint) -> str:
    return mock.url.replace("http://", "https://", 1)


def _collect(tmp_path, url: str, *extra: str) -> int:
    questions = tmp_path / "questions.jsonl"
    questions.write_text("".join(
        json.dumps({"question_id": f"q{i}", "text": f"{i} plus 1?", "gold_answer": str(i + 1)})
        + "\n" for i in range(3)))
    return main(["collect", "--endpoint", url, "--model", "m", "--dataset", "d",
                 "--questions", str(questions), "--out", str(tmp_path / "o.jsonl"), *extra])


def test_an_https_sweep_trusts_a_ca_bundle_and_keeps_one_connection_per_worker(
        tls_mock, tmp_path, clean_env, capsys):
    """Four transports (the config's check and three workers) load one TLS context."""
    create, loads = ssl.create_default_context, []

    def recording(**kwargs):
        loads.append(kwargs)
        return create(**kwargs)

    clean_env.setattr(ssl, "create_default_context", recording)
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(CERT))
    with MockChatEndpoint() as mock:
        code = _collect(tmp_path, https(mock), "--max-parallel", "3")
        connections = mock.connection_count
    assert code == 0
    assert "93 cells requested, 0 skipped (resume), 93 collected, 0 failed" in (
        capsys.readouterr().out)
    assert len((tmp_path / "o.jsonl").read_text().splitlines()) == 93
    assert connections == 3
    assert loads == [{"cafile": str(CERT)}]


class _Tunnel(socketserver.StreamRequestHandler):
    """A CONNECT proxy's connection: it records the target, opens it, answers 200 and
    relays bytes both ways until each side has closed."""

    targets: list[str] = []

    def handle(self) -> None:
        target = self.rfile.readline().split()[1].decode()
        while self.rfile.readline() not in (b"\r\n", b""):
            pass
        self.targets.append(target)
        host, _, port = target.rpartition(":")
        with socket.create_connection((host, int(port))) as upstream:
            self.request.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            back = threading.Thread(target=_relay, args=(upstream, self.request))
            back.start()
            _relay(self.request, upstream)
            back.join(10)


def _relay(source: socket.socket, sink: socket.socket) -> None:
    with contextlib.suppress(OSError):
        while data := source.recv(1 << 16):
            sink.sendall(data)
        sink.shutdown(socket.SHUT_WR)


@pytest.fixture
def tunnel_proxy():
    """A proxy URL whose server tunnels each CONNECT; yields (url, targets)."""
    handler = type("Handler", (_Tunnel,), {"targets": []})
    with socketserver.ThreadingTCPServer(("127.0.0.1", 0), handler) as server:
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}", handler.targets
        finally:
            server.shutdown()
            thread.join(10)
    assert not thread.is_alive()


def test_an_https_sweep_through_a_connect_proxy_tunnels_each_worker_once(
        tls_mock, tunnel_proxy, tmp_path, clean_env, capsys):
    """TLS runs end to end inside each tunnel, so the certificate still names 127.0.0.1."""
    proxy, targets = tunnel_proxy
    clean_env.setenv("HTTPS_PROXY", proxy)
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(CERT))
    with MockChatEndpoint() as mock:
        code = _collect(tmp_path, https(mock), "--max-parallel", "3")
        connections, requests = mock.connection_count, mock.request_count
    assert code == 0
    assert "93 cells requested, 0 skipped (resume), 93 collected, 0 failed" in (
        capsys.readouterr().out)
    assert len((tmp_path / "o.jsonl").read_text().splitlines()) == 93
    assert (connections, requests) == (3, 93)
    assert targets == [urlsplit(mock.url).netloc] * 3


def test_an_untrusted_certificate_ends_the_sweep_without_showing_the_key(
        tls_mock, tmp_path, clean_env, capsys, caplog):
    """The handshake fails, so no request, and no key, is sent."""
    clean_env.setenv("COTBUDGET_API_KEY", KEY)
    with MockChatEndpoint() as mock:
        code = _collect(tmp_path, https(mock), "--retries", "0")
        requests = mock.request_count
    captured = capsys.readouterr()
    assert (code, requests) == (3, 0)
    assert captured.err.startswith(
        f"endpoint error: cannot connect to {https(mock)}: transport: "
        "[SSL: CERTIFICATE_VERIFY_FAILED]")
    [failed] = [json.loads(line) for line in (tmp_path / "o.failures.jsonl").read_text()
                .splitlines()]
    assert failed["question_id"] == "q0" and "CERTIFICATE_VERIFY_FAILED" in failed["error"]
    files = [path.read_text() for path in tmp_path.iterdir()]
    for text in (captured.out, captured.err, caplog.text, *files):
        assert KEY not in text


def test_a_reply_trickled_over_tls_fails_at_the_timeout(tls_mock, tmp_path, clean_env):
    """The head, then one byte every 0.2 s: the deadline reader ends the attempt at 0.5 s."""
    clean_env.setenv("REQUESTS_CA_BUNDLE", str(CERT))
    stop = threading.Event()

    def trickle(body: bytes):
        yield b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
        for byte in body:
            if stop.wait(0.2):
                return
            yield bytes([byte])

    catalog = PromptCatalog((fixed_spec("NoCoT"),))
    question = Question(question_id="q0", text="0 plus 1?", gold_answer="1")
    with MockChatEndpoint(raw=trickle) as mock:
        config = SweepConfig(endpoint=https(mock), model="m", dataset="d", catalog=catalog,
                             retries=0, timeout=0.5)
        start = time.monotonic()
        with (JsonlWriter(tmp_path / "o.jsonl") as writer,
              JsonlWriter(tmp_path / "o.failures.jsonl") as failures):
            summary = sweep([question], config, writer, failures)
        elapsed = time.monotonic() - start
        stop.set()
    assert elapsed < 2 * 0.5
    assert (summary.succeeded, summary.failed) == (0, 1)
    assert json.loads((tmp_path / "o.failures.jsonl").read_text()) == {
        "question_id": "q0", "prompt_id": "NoCoT", "error": "transport: timed out"}
