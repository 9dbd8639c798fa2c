from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cotbudget
from cotbudget.cli import main
from cotbudget.mockserver import MockChatEndpoint
from cotbudget.records import EvalRecord, load_records

QUESTIONS = [
    {"question_id": "q1", "text": "One plus one?", "gold_answer": "2"},
    {"question_id": "q2", "text": "Two plus two?", "gold_answer": "4"},
]


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def synth_records(tmp_path):
    records = tmp_path / "records.jsonl"
    taus = tmp_path / "taus.json"
    code = main(
        [
            "synth",
            "--out",
            str(records),
            "--n",
            "12",
            "--prompts",
            "7",
            "--seed",
            "5",
            "--taus-out",
            str(taus),
        ]
    )
    assert code == 0
    return records, taus


class TestSynth:
    def test_writes_records_and_taus(self, tmp_path, capsys, synth_records):
        records, taus = synth_records
        assert records.exists()
        payload = json.loads(taus.read_text())
        assert len(payload["taus"]) == 12
        lines = records.read_text().splitlines()
        assert len(lines) == 12 * 7

    def test_default_taus_path(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        code, _ = run(capsys, "synth", "--out", str(out), "--n", "4", "--prompts", "5")
        assert code == 0
        assert (tmp_path / "taus.json").exists()


class TestComplexityCommand:
    def test_oracle_summary_reports_perfect_cbar(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        out = tmp_path / "complexity.json"
        code, text = run(
            capsys, "complexity", "--records", str(records), "--out", str(out)
        )
        assert code == 0
        assert "c_bar=1.000000" in text
        payload = json.loads(out.read_text())
        assert payload["model"] == "oracle"
        assert len(payload["entries"]) == 12

    def test_recovers_ground_truth(self, tmp_path, capsys, synth_records):
        records, taus_path = synth_records
        out = tmp_path / "complexity.json"
        run(capsys, "complexity", "--records", str(records), "--out", str(out))
        estimated = {
            e["question_id"]: e["tau"] for e in json.loads(out.read_text())["entries"]
        }
        truth = json.loads(taus_path.read_text())["taus"]
        assert estimated == truth


class TestBoundsCommand:
    def test_reference_frontier_csv(self, tmp_path, capsys):
        prof = {
            "model": "m",
            "dataset": "d",
            "entries": [
                {"question_id": "q0", "tau": 10, "c_star": 1.0, "k_used": 4},
                {"question_id": "q1", "tau": 20, "c_star": 1.0, "k_used": 4},
                {"question_id": "q2", "tau": 30, "c_star": 1.0, "k_used": 4},
                {"question_id": "q3", "tau": None, "c_star": 1.0, "k_used": 4},
            ],
            "c_bar": 1.0,
            "a_star": 0.75,
            "tau_bar_over_n": 15.0,
            "tau_bar_finite_mean": 20.0,
        }
        comp = tmp_path / "complexity.json"
        comp.write_text(json.dumps(prof))
        out = tmp_path / "frontier.csv"
        code, text = run(capsys, "bounds", "--complexity", str(comp), "--out", str(out))
        assert code == 0
        assert out.read_text() == (
            "avg_tokens,accuracy\n"
            "2.500000,0.250000\n"
            "7.500000,0.500000\n"
            "15.000000,0.750000\n"
        )
        assert "A*=0.750000" in text
        assert "T*(A*)=15.000000" in text


class TestPredictCommand:
    def test_perfect_prediction_reports_zero_err(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        out = tmp_path / "validation.json"
        code, text = run(capsys, "predict", "--records", str(records), "--out", str(out))
        assert code == 0
        assert "Err=0.000000" in text
        payload = json.loads(out.read_text())
        assert payload["err"] == 0
        assert len(payload["per_prompt"]) == 7


class TestPipelineComposability:
    def test_synth_complexity_bounds_predict_chain(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        comp = tmp_path / "complexity.json"
        frontier_csv = tmp_path / "frontier.csv"
        validation = tmp_path / "validation.json"
        assert main(["complexity", "--records", str(records), "--out", str(comp)]) == 0
        assert main(["bounds", "--complexity", str(comp), "--out", str(frontier_csv)]) == 0
        assert (
            main(
                [
                    "predict",
                    "--records",
                    str(records),
                    "--complexity",
                    str(comp),
                    "--out",
                    str(validation),
                ]
            )
            == 0
        )
        assert json.loads(validation.read_text())["err"] == 0
        assert frontier_csv.read_text().startswith("avg_tokens,accuracy\n")


class TestRoutingCommand:
    def test_verifier_and_budget_policies(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        budgets = tmp_path / "budgets.jsonl"
        budgets.write_text(
            "\n".join(
                json.dumps({"question_id": f"q{i:02d}", "budget": 60}) for i in range(12)
            )
            + "\n"
        )
        out = tmp_path / "routing.csv"
        code, text = run(
            capsys,
            "routing",
            "--records",
            str(records),
            "--base-prompt",
            "p0",
            "--fallback-prompt",
            "p6",
            "--budgets",
            str(budgets),
            "--family",
            "p0,p3,p6",
            "--out",
            str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "policy_id,accuracy,avg_tokens,frontier_gap"
        assert len(lines) == 3
        assert lines[1].startswith("verifier(p0->p6),")
        assert lines[2].startswith("budget(p0->p3->p6),")

    def test_routing_without_policy_is_usage_error(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        code = main(
            ["routing", "--records", str(records), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2


class TestBudgetsFile:
    """Each bad budgets line is a data error (exit 1) naming its line number."""

    def run_routing(self, tmp_path, capsys, records, second_line):
        budgets = tmp_path / "budgets.jsonl"
        budgets.write_text(json.dumps({"question_id": "q00", "budget": 60}) + "\n"
                           + second_line + "\n")
        code = main(["routing", "--records", str(records), "--budgets", str(budgets),
                     "--family", "p0,p3", "--out", str(tmp_path / "routing.csv")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('{"question_id": "q01", "budget": 60.7}', "must be an integer, got 60.7"),
            ('{"question_id": "q01", "budget": 60.0}', "must be an integer, got 60.0"),
            ('{"question_id": "q01", "budget": true}', "must be an integer, got True"),
            ('{"question_id": "q01"}', "missing required field(s): budget"),
            ('{"budget": 60}', "missing required field(s): question_id"),
            ('{"question_id": 7, "budget": 60}', "'question_id' must be a non-empty string"),
            ('[1, 2]', "must be a JSON object, got list"),
            ('{"question_id": "q01", "budget": 6', "malformed JSON"),
        ],
    )
    def test_bad_line_is_data_error_with_line_number(self, tmp_path, capsys, synth_records,
                                                     line, reason):
        records, _ = synth_records
        code, err = self.run_routing(tmp_path, capsys, records, line)
        assert code == 1
        assert "budgets.jsonl:2: " in err
        assert reason in err
        assert not (tmp_path / "routing.csv").exists()

    def test_integer_budgets_load(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        code, err = self.run_routing(tmp_path, capsys, records,
                                     '{"question_id": "q01", "budget": -3}')
        assert code == 0, err


class TestCorrelateAndAdaptivity:
    def test_correlate_csv(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        out = tmp_path / "corr.csv"
        code, _ = run(capsys, "correlate", "--records", str(records), "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "prompt_id,spearman_rho,n"
        assert len(lines) == 8

    def test_adaptivity_csv(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        out = tmp_path / "adapt.csv"
        code, _ = run(
            capsys,
            "adaptivity",
            "--records",
            str(records),
            "--split-prompt",
            "p6",
            "--out",
            str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "prompt_id,avg_tokens_easy,avg_tokens_hard"
        assert len(lines) == 7


class TestCollectCommand:
    def test_collect_against_mock(self, tmp_path, capsys):
        questions = tmp_path / "questions.jsonl"
        questions.write_text("\n".join(json.dumps(q) for q in QUESTIONS) + "\n")
        catalog = tmp_path / "catalog.json"
        from cotbudget.prompts import PromptCatalog, fixed_spec

        PromptCatalog(
            specs=(fixed_spec("NoCoT"), fixed_spec("BeConcise"), fixed_spec("DefaultCoT"))
        ).save(catalog)
        out = tmp_path / "records.jsonl"
        with MockChatEndpoint(answers={"One plus one?": "2"}) as mock:
            code, text = run(
                capsys,
                "collect",
                "--endpoint",
                mock.url,
                "--model",
                "mock-model",
                "--dataset",
                "mock-ds",
                "--questions",
                str(questions),
                "--catalog",
                str(catalog),
                "--out",
                str(out),
            )
        assert code == 0
        assert "6 collected" in text
        assert len(out.read_text().splitlines()) == 6
        assert (tmp_path / "records.failures.jsonl").read_text() == ""

    def test_resume_keeps_earlier_failures(self, tmp_path, capsys):
        questions = tmp_path / "questions.jsonl"
        questions.write_text("\n".join(json.dumps(q) for q in QUESTIONS) + "\n")
        catalog = tmp_path / "catalog.json"
        from cotbudget.mockserver import default_reply
        from cotbudget.prompts import PromptCatalog, fixed_spec

        PromptCatalog(specs=(fixed_spec("NoCoT"), fixed_spec("BeConcise"))).save(catalog)
        out = tmp_path / "records.jsonl"
        failures = tmp_path / "records.failures.jsonl"
        argv = ["collect", "--model", "m", "--dataset", "d", "--questions", str(questions),
                "--catalog", str(catalog), "--out", str(out), "--retries", "0"]

        def no_usage_for_q2(question_text, body):
            content, tokens = default_reply(question_text, "2")
            return content, None if question_text == "Two plus two?" else tokens

        with MockChatEndpoint(reply_fn=no_usage_for_q2) as mock:
            code, text = run(capsys, *argv, "--endpoint", mock.url)
        assert code == 0
        assert "2 collected, 2 failed" in text
        first_failures = failures.read_text().splitlines()
        assert len(first_failures) == 2

        with MockChatEndpoint(answers={"Two plus two?": "4"}) as mock:
            code, text = run(capsys, *argv, "--endpoint", mock.url, "--resume")
        assert code == 0
        assert "2 skipped (resume), 2 collected, 0 failed" in text
        assert failures.read_text().splitlines() == first_failures
        assert len(out.read_text().splitlines()) == 4

    def test_unreachable_endpoint_exit_code(self, tmp_path, capsys):
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps(QUESTIONS[0]) + "\n")
        catalog = tmp_path / "catalog.json"
        from cotbudget.prompts import PromptCatalog, fixed_spec

        PromptCatalog(specs=(fixed_spec("NoCoT"),)).save(catalog)
        code = main(
            [
                "collect",
                "--endpoint",
                "http://127.0.0.1:9/v1/chat/completions",
                "--model",
                "m",
                "--dataset",
                "d",
                "--questions",
                str(questions),
                "--catalog",
                str(catalog),
                "--retries",
                "0",
                "--out",
                str(tmp_path / "r.jsonl"),
            ]
        )
        assert code == 3


class TestExitCodes:
    def test_missing_records_file_is_data_error(self, tmp_path, capsys):
        code = main(
            [
                "complexity",
                "--records",
                str(tmp_path / "missing.jsonl"),
                "--out",
                str(tmp_path / "c.json"),
            ]
        )
        assert code == 1

    def test_bad_filter_is_data_error(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        code = main(
            [
                "complexity",
                "--records",
                str(records),
                "--model",
                "nope",
                "--dataset",
                "nope",
                "--out",
                str(tmp_path / "c.json"),
            ]
        )
        assert code == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_synth_complexity_bounds_byte_identical(self, tmp_path, capsys):
        outputs = []
        for tag in ("a", "b"):
            records = tmp_path / f"records_{tag}.jsonl"
            taus = tmp_path / f"taus_{tag}.json"
            comp = tmp_path / f"comp_{tag}.json"
            csv = tmp_path / f"frontier_{tag}.csv"
            main(["synth", "--out", str(records), "--n", "9", "--prompts", "6",
                  "--seed", "3", "--violation-rate", "0.2", "--taus-out", str(taus)])
            main(["complexity", "--records", str(records), "--out", str(comp)])
            main(["bounds", "--complexity", str(comp), "--out", str(csv)])
            outputs.append(
                (records.read_bytes(), taus.read_bytes(), comp.read_bytes(), csv.read_bytes())
            )
        assert outputs[0] == outputs[1]


@pytest.fixture
def no_eval_records(monkeypatch):
    """Make building any EvalRecord fail the test."""

    def refuse(self):
        raise AssertionError("EvalRecord built")

    monkeypatch.setattr(EvalRecord, "__post_init__", refuse)


class TestRecordsLimits:
    def test_tokens_above_int64_is_data_error(self, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        records.write_text(
            '{"model": "m", "dataset": "d", "question_id": "q1", "prompt_id": "p1", '
            '"tokens": 5, "correct": true}\n'
            '{"model": "m", "dataset": "d", "question_id": "q1", "prompt_id": "p2", '
            '"tokens": 99999999999999999999, "correct": true}\n',
            encoding="utf-8",
        )
        code = main(["complexity", "--records", str(records), "--out", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"data error: {records}:2: field 'tokens' must fit in a signed 64-bit")
        assert "Traceback" not in err

    def test_bad_line_of_other_pair_is_data_error(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        with records.open("a", encoding="utf-8") as fh:
            fh.write('{"model": "other", "dataset": "d", "question_id": "q", "prompt_id": "p", '
                     '"tokens": -1, "correct": true}\n')
        code = main(["complexity", "--records", str(records), "--model", "oracle",
                     "--dataset", "synthetic", "--out", str(tmp_path / "c.json")])
        assert code == 1
        assert f"{records}:{12 * 7 + 1}: field 'tokens' must be non-negative" in capsys.readouterr().err


class TestColumnarIO:
    def test_synth_matches_record_writer(self, tmp_path, capsys):
        from cotbudget import oracle
        from cotbudget.records import save_records, unpivot

        out = tmp_path / "r.jsonl"
        code, _ = run(capsys, "synth", "--out", str(out), "--n", "15", "--prompts", "6",
                      "--seed", "4", "--violation-rate", "0.3", "--model", "modèle \"x\"",
                      "--dataset", "数据")
        assert code == 0
        spec = oracle.random_spec(n=15, seed=4, violation_rate=0.3, n_prompts=6)
        spec = dataclasses.replace(spec, model='modèle "x"', dataset="数据")
        matrix, _ = oracle.generate(spec)
        save_records(unpivot(matrix), tmp_path / "want.jsonl")
        assert out.read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_analysis_builds_no_eval_record(self, tmp_path, capsys, synth_records,
                                            no_eval_records):
        records, _ = synth_records
        for argv in (
            ["complexity"],
            ["predict"],
            ["bounds"],
            ["tradeoff"],
            ["correlate"],
            ["routing", "--base-prompt", "p0", "--fallback-prompt", "p6"],
            ["adaptivity", "--split-prompt", "p0"],
        ):
            out = tmp_path / f"{argv[0]}.out"
            assert main([*argv, "--records", str(records), "--out", str(out)]) == 0

    def test_cli_import_leaves_requests_unloaded(self):
        probe = "import sys, cotbudget.cli; print('requests' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cotbudget.__file__).parent.parent)}
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.strip() == "False"


class TestResumeTornLine:
    @pytest.fixture
    def collected(self, tmp_path, capsys):
        """Two questions x two prompts collected once; returns (argv, records path)."""
        questions = tmp_path / "questions.jsonl"
        questions.write_text("\n".join(json.dumps(q) for q in QUESTIONS) + "\n")
        catalog = tmp_path / "catalog.json"
        from cotbudget.prompts import PromptCatalog, fixed_spec

        PromptCatalog(specs=(fixed_spec("NoCoT"), fixed_spec("BeConcise"))).save(catalog)
        out = tmp_path / "records.jsonl"
        argv = ["collect", "--model", "m", "--dataset", "d", "--questions", str(questions),
                "--catalog", str(catalog), "--out", str(out)]
        with MockChatEndpoint(answers={"Two plus two?": "4"}) as mock:
            assert run(capsys, *argv, "--endpoint", mock.url)[0] == 0
        return argv, out

    def resume(self, capsys, argv):
        """(exit code, stdout, stderr, requests made) of a --resume run."""
        with MockChatEndpoint(answers={"Two plus two?": "4"}) as mock:
            code = main([*argv, "--endpoint", mock.url, "--resume"])
            captured = capsys.readouterr()
            return code, captured.out, captured.err, mock.request_count

    def test_torn_final_line_is_cut_and_requested_again(self, collected, capsys, caplog):
        argv, out = collected
        whole = out.read_bytes()
        lines = whole.splitlines(keepends=True)
        out.write_bytes(b"".join(lines[:-1]) + lines[-1][:-9])
        with caplog.at_level("WARNING", logger="cotbudget.collect"):
            code, text, _, requests_made = self.resume(capsys, argv)
        assert code == 0
        assert "3 skipped (resume), 1 collected, 0 failed" in text
        assert requests_made == 1
        assert "torn final line" in caplog.text
        assert sorted(out.read_bytes().splitlines()) == sorted(whole.splitlines())

    def test_torn_inside_a_character_is_cut(self, collected, capsys):
        argv, out = collected
        lines = out.read_bytes().splitlines(keepends=True)
        out.write_bytes(b"".join(lines[:-1]) + '{"model": "m", "response": "é'.encode()[:-1])
        code, text, _, _ = self.resume(capsys, argv)
        assert code == 0
        assert "3 skipped (resume), 1 collected" in text
        assert len(load_records(out)) == 4

    def test_torn_middle_line_is_data_error(self, collected, capsys):
        argv, out = collected
        lines = out.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:20] + b"\n"
        out.write_bytes(b"".join(lines))
        code, _, err, requests_made = self.resume(capsys, argv)
        assert code == 1
        assert err.startswith(f"data error: {out}:2: malformed JSON")
        assert requests_made == 0

    def test_complete_final_line_without_newline_gets_one(self, collected, capsys):
        argv, out = collected
        lines = out.read_bytes().splitlines(keepends=True)
        out.write_bytes(b"".join(lines[:-2]) + lines[-2].rstrip(b"\n"))
        code, text, _, _ = self.resume(capsys, argv)
        assert code == 0
        assert "3 skipped (resume), 1 collected" in text
        assert len(load_records(out)) == 4

    def test_resume_reads_no_eval_record(self, collected, capsys, no_eval_records):
        argv, _ = collected
        code, text, _, requests_made = self.resume(capsys, argv)
        assert code == 0
        assert "4 skipped (resume), 0 collected" in text
        assert requests_made == 0


class TestInputChecksBeforeRequests:
    """A bad questions line is a data error naming path:line, and nothing is requested."""

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b'{"question_id": "q3", "text": "t"', "malformed JSON"),
            (b'"q3"', "question must be a JSON object, got str"),
            (b'{"question_id": "q3", "text": "t"}', "missing required field(s): gold_answer"),
            (b'{"question_id": "", "text": "t", "gold_answer": "1"}',
             "field 'question_id' must be a non-empty string, got ''"),
            (b'{"question_id": "q3", "text": ["t"], "gold_answer": "1"}',
             "field 'text' must be a non-empty string"),
            (b'{"question_id": "q3", "text": "t", "gold_answer": "A", "choices": [1]}',
             "field 'choices' must be a list of objects"),
            (b'{"question_id": "q1", "text": "t", "gold_answer": "1"}',
             "duplicate question_id 'q1' (first on line 1)"),
            (b'{"question_id": "q3", "text": "caf\xe9", "gold_answer": "1"}',
             "not UTF-8: byte 0xe9 at column 35"),
        ],
    )
    def test_bad_question_line(self, tmp_path, capsys, line, reason):
        questions = tmp_path / "questions.jsonl"
        questions.write_bytes(
            b"".join(json.dumps(q).encode() + b"\n" for q in QUESTIONS) + line + b"\n"
        )
        with MockChatEndpoint() as mock:
            code = main(["collect", "--endpoint", mock.url, "--model", "m", "--dataset", "d",
                         "--questions", str(questions), "--out", str(tmp_path / "r.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"data error: {questions}:3: ")
        assert reason in err
        assert mock.request_count == 0
        assert not (tmp_path / "r.jsonl").exists()

    def test_records_byte_not_utf8(self, tmp_path, capsys):
        # Line 201 lies past the text reader's first 8 KiB chunk.
        records = tmp_path / "records.jsonl"
        lines = [
            json.dumps({"model": "m", "dataset": "d", "question_id": f"q{i}",
                        "prompt_id": "p", "tokens": i, "correct": True}).encode()
            for i in range(300)
        ]
        lines[200] = lines[200].replace(b'"q200"', b'"q\xff200"')
        records.write_bytes(b"\r\n".join(lines) + b"\r\n")
        code = main(["complexity", "--records", str(records), "--out", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"data error: {records}:201: not UTF-8: byte 0xff at column 49 "
                       "(invalid start byte)\n")
        assert not (tmp_path / "c.json").exists()

    def test_budgets_byte_not_utf8(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        budgets = tmp_path / "budgets.jsonl"
        budgets.write_bytes(b'{"question_id": "q00", "budget": 60}\n'
                            b'{"question_id": "q\xc301", "budget": 60}\n')
        code = main(["routing", "--records", str(records), "--budgets", str(budgets),
                     "--family", "p0,p3", "--out", str(tmp_path / "routing.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"data error: {budgets}:2: not UTF-8: byte 0xc3 at column 19")
