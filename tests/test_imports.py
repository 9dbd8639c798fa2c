"""Each command loads only the modules it runs, checked in fresh interpreters.

The package resolves its public names lazily, so nothing here may run in the
test process, where every module is already loaded. The children run one at
a time.
"""
from __future__ import annotations

import ast
import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from cotbudget.cli import main
from cotbudget.mockserver import MockChatEndpoint

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p.stem for p in (SRC / "cotbudget").glob("*.py") if p.stem != "__init__")
COLLECTION = {"cotbudget.collect", "cotbudget.grading", "cotbudget.sweepfiles", "cotbudget.oracle",
              "cotbudget.routing", "concurrent.futures"}

# Runs the CLI, then prints its exit code and every loaded module as the last line.
LOADED = """
import json, sys
from cotbudget.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def child(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


def loaded_by(*argv: str) -> set[str]:
    """The modules a fresh `cotbudget ARGV` has loaded when it exits 0."""
    done = child(LOADED, *argv)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0, done.stderr
    return set(result["modules"])


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    assert main(["synth", "--out", str(path), "--n", "8", "--prompts", "5"]) == 0
    return path


@pytest.mark.parametrize("command", ["complexity", "bounds", "predict", "correlate"])
def test_an_analysis_command_loads_no_collection_module(records, tmp_path, command):
    """Nor fcntl: only collect locks a file. Nor OpenSSL (_hashlib, _ssl), which
    adds ≈ 3.4 MB to a child's peak: the records cache hashes with _blake2."""
    loaded = loaded_by(command, "--records", str(records), "--out", str(tmp_path / "out"))
    assert loaded & COLLECTION == set()
    assert loaded & {"fcntl", "_hashlib", "_ssl"} == set()


def test_synth_loads_no_estimator(tmp_path):
    """The generator needs no profile, so neither complexity nor fractions is compiled."""
    loaded = loaded_by("synth", "--out", str(tmp_path / "records.jsonl"), "--n", "8")
    assert loaded & {"cotbudget.complexity", "fractions"} == set()
    assert "cotbudget.oracle" in loaded


def test_importing_oracle_loads_no_estimator():
    done = child("import sys, cotbudget.oracle; print(sorted(m for m in sys.modules "
                 "if m in ('cotbudget.complexity', 'fractions')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_help_loads_no_numpy():
    loaded = loaded_by("--help")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("cotbudget")} == {
        "cotbudget", "cotbudget.cli", "cotbudget.errors"
    }


def collect_one_question(tmp_path, mock, gold: str = "2") -> set[str]:
    """The modules a fresh `cotbudget collect` of one question loads; checks its 31 records."""
    questions = tmp_path / "questions.jsonl"
    questions.write_text(json.dumps({"question_id": "q1", "text": "1+1?", "gold_answer": gold}))
    out = tmp_path / "records.jsonl"
    loaded = loaded_by("collect", "--endpoint", mock.url, "--model", "m", "--dataset", "d",
                       "--questions", str(questions), "--out", str(out))
    assert len(out.read_text().splitlines()) == 31  # the built-in catalog
    return loaded


def test_fresh_collect_loads_no_numpy(tmp_path, clean_env):
    """Nor a thread pool, nor urllib.request when no proxy variable is set."""
    with MockChatEndpoint(answers={"1+1?": "2"}) as mock:
        loaded = collect_one_question(tmp_path, mock)
    assert loaded & {"numpy", "concurrent.futures", "urllib.request"} == set()
    assert "cotbudget.collect" in loaded


def _tls_or_http_client(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.split(".")[0] in ("ssl", "_ssl", "email")
            or m == "http.client"}


def test_an_http_collect_loads_no_tls_and_no_http_client(tmp_path, clean_env):
    """The socket-level client: no ssl, no http.client and no email for http://.

    Nor, with slotted records, dataclasses, with what it imports; nor, as the
    host goes to the resolver as ASCII bytes, the IDNA codec and unicodedata.
    "0.5" is graded against "1/2" through Fraction and is correct.
    """
    with MockChatEndpoint(answers={"1+1?": "0.5"}) as mock:
        loaded = collect_one_question(tmp_path, mock, gold="1/2")
    assert _tls_or_http_client(loaded) == set()
    assert {"cotbudget.transport", "cotbudget.sweepfiles", "socket"} <= loaded
    assert loaded & {"dataclasses", "inspect", "ast"} == set()
    assert loaded & {"encodings.idna", "stringprep", "unicodedata"} == set()
    lines = (tmp_path / "records.jsonl").read_text().splitlines()
    assert all(json.loads(line)["correct"] for line in lines)


def test_an_https_collect_loads_ssl_but_no_http_client(tmp_path, clean_env):
    """Each cell is refused at a closed port, so the run exits 3, after its TLS context is made."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    questions = tmp_path / "questions.jsonl"
    questions.write_text(json.dumps({"question_id": "q1", "text": "1+1?", "gold_answer": "2"}))
    done = child(LOADED, "collect", "--endpoint", f"https://127.0.0.1:{port}/v1", "--model", "m",
                 "--dataset", "d", "--questions", str(questions), "--out",
                 str(tmp_path / "records.jsonl"), "--retries", "0")
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 3, done.stderr
    assert _tls_or_http_client(set(result["modules"])) == {"ssl", "_ssl"}


@pytest.mark.parametrize("variable, loads", [
    ("NO_PROXY", False),
    ("HTTPS_PROXY", False),  # the endpoint is http://
    ("HTTP_PROXY", True),
    ("all_proxy", True),
])
def test_collect_loads_urllib_request_only_when_a_proxy_may_apply(tmp_path, clean_env, variable,
                                                                  loads):
    """A proxy variable points at the mock, which serves absolute request targets too."""
    with MockChatEndpoint(answers={"1+1?": "2"}) as mock:
        base = mock.url.rsplit("/v1/", 1)[0]
        clean_env.setenv(variable, "localhost,127.0.0.1" if variable == "NO_PROXY" else base)
        loaded = collect_one_question(tmp_path, mock)
        targets = {target for target, _, _ in mock.raw_requests}
    assert ("urllib.request" in loaded) is loads
    assert targets == ({mock.url} if loads else {"/v1/chat/completions"})
    assert "concurrent.futures" not in loaded


def test_resume_loads_no_numpy(tmp_path, clean_env):
    """A resume reads its prior --out line by line: no matrix, no cache, no thread pool."""
    questions = tmp_path / "questions.jsonl"
    questions.write_text("".join(
        json.dumps({"question_id": f"q{i}", "text": f"{i}+1?", "gold_answer": str(i + 1)}) + "\n"
        for i in range(2)
    ))
    out = tmp_path / "records.jsonl"
    argv = ["collect", "--model", "m", "--dataset", "d", "--questions", str(questions),
            "--out", str(out)]
    with MockChatEndpoint() as mock:
        assert main([*argv, "--endpoint", mock.url]) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        out.write_bytes(b"".join(lines[:40]))
        loaded = loaded_by(*argv, "--endpoint", mock.url, "--resume")
        assert mock.request_count == 62 + 22
    assert loaded & {"numpy", "cotbudget.cache", "cotbudget.records", "concurrent.futures",
                     "urllib.request"} == set()
    assert len(out.read_bytes().splitlines()) == 62


def test_resume_with_nothing_left_loads_no_http_client(tmp_path, clean_env):
    """Nothing is sent, so neither http.client nor ssl is imported."""
    with MockChatEndpoint(answers={"1+1?": "2"}) as mock:
        collect_one_question(tmp_path, mock)
        argv = ["collect", "--endpoint", mock.url, "--model", "m", "--dataset", "d",
                "--questions", str(tmp_path / "questions.jsonl"),
                "--out", str(tmp_path / "records.jsonl"), "--resume"]
        loaded = loaded_by(*argv)
        assert mock.request_count == 31
    assert loaded & {"http.client", "ssl"} == set()
    assert "cotbudget.collect" in loaded


@pytest.mark.parametrize("module, above", [
    ("transport", {"cotbudget.collect"}),
    ("sweepfiles", {"cotbudget.collect"}),
    ("grading", {"cotbudget.collect", "cotbudget.transport", "cotbudget.sweepfiles", "socket",
                 "threading"}),
])
def test_a_module_imports_nothing_from_the_layers_above_it(module, above):
    """The HTTP client and the sweep's files sit below the sweep: transport takes an endpoint
    and a timeout, never a SweepConfig. The grader sits below all three and below threads,
    so that what sets each cell's verdict needs no socket. No name is imported, not even for
    type checking."""
    tree = ast.parse((SRC / "cotbudget" / f"{module}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            name = ".".join(filter(None, ["cotbudget" if node.level else "", node.module]))
            imported.update([name, *(f"{name}.{alias.name}" for alias in node.names)])
    assert {name for name in imported
            if any(name == layer or name.startswith(f"{layer}.") for layer in above)} == set()


def test_importing_grading_loads_no_socket_numpy_or_sweep():
    """threading is left to the AST guard above: an interpreter may load it at start-up."""
    done = child("import sys, cotbudget.grading; print(sorted(m for m in sys.modules if m in ("
                 "'socket', '_ssl', 'numpy', 'cotbudget.collect', 'cotbudget.transport', "
                 "'cotbudget.sweepfiles')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    """A fresh `from cotbudget import X` works, so no import cycle hides behind the lazy names."""
    done = child(f"from cotbudget import {module}; assert {module}.__name__ == 'cotbudget.{module}'")
    assert done.returncode == 0, done.stderr


def test_dir_lists_every_exported_name():
    done = child("import cotbudget; print(sorted(set(cotbudget.__all__) - set(dir(cotbudget))))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
