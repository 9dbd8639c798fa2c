from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest

import cotbudget
from cotbudget import records as records_mod
from cotbudget.bounds import FrontierCurve
from cotbudget.cli import main
from cotbudget.complexity import ComplexityProfile
from cotbudget.errors import RecordSchemaError
from cotbudget.inputs import read_jsonl
from cotbudget.mockserver import MockChatEndpoint, default_reply
from cotbudget.records import EvalRecord, load_records, save_matrix

from conftest import make_matrix
from loop_oracles import frontier_loop, save_records_loop, unpivot_loop

ROOT = Path(__file__).resolve().parent.parent
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

    @pytest.mark.parametrize("flag", ["--model", "--dataset"])
    def test_id_utf8_cannot_encode_keeps_earlier_output(self, tmp_path, capsys, flag):
        """A non-UTF-8 byte in argv arrives as a lone surrogate: a data error before --out opens."""
        out = tmp_path / "s.jsonl"
        out.write_bytes(b"earlier output\n")
        code = main(["synth", "--out", str(out), "--n", "5", "--prompts", "3", flag, "m\udcff"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"data error: {out}: cannot write '\\udcff' as UTF-8 (surrogates not allowed)\n"
        )
        assert out.read_bytes() == b"earlier output\n"
        assert not (tmp_path / "taus.json").exists()

    @pytest.mark.parametrize("alias", ["explicit", "default", "hardlink"])
    def test_taus_file_naming_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch, alias):
        """The taus file would overwrite the records: refused before anything is written."""
        monkeypatch.chdir(tmp_path)
        out = "taus.json" if alias == "default" else "r.jsonl"
        Path(out).write_bytes(b"earlier records\n")
        argv = ["synth", "--out", out, "--n", "5", "--prompts", "3"]
        if alias == "explicit":
            argv += ["--taus-out", out]
        elif alias == "hardlink":
            os.link(out, "t.json")
            argv += ["--taus-out", "t.json"]
        taus = {"explicit": "r.jsonl", "default": "taus.json", "hardlink": "t.json"}[alias]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"usage error: the taus file {taus} is the --out file; name another with --taus-out\n"
        )
        assert Path(out).read_bytes() == b"earlier records\n"
        assert sorted(os.listdir()) == sorted({out, taus})

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_fewer_than_one_question_is_a_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "r.jsonl"
        assert main(["synth", "--out", str(out), "--n", n]) == 2
        assert capsys.readouterr().err == f"usage error: n must be a positive integer, got {n}\n"
        assert list(tmp_path.iterdir()) == []


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

    def test_csv_from_integer_columns_matches_fraction_formatting(self, tmp_path, capsys,
                                                                 monkeypatch):
        taus = [0, 0, 2**53 + 1, 2**62 + 3, 2**63 - 1, 2**63 - 2, None]
        prof = ComplexityProfile(
            "m", "d", tuple(f"q{i}" for i in range(len(taus))),
            [-1 if t is None else t for t in taus], [1] * len(taus),
            (Fraction(1),) * len(taus), Fraction(1),
        )
        comp = tmp_path / "complexity.json"
        prof.save(comp)
        want = "".join(
            f"{float(t):.6f},{float(a):.6f}\n" for t, a in frontier_loop(ComplexityProfile.load(comp))
        )
        monkeypatch.setattr(FrontierCurve, "breakpoints", property(
            lambda self: pytest.fail("bounds built Fraction breakpoints")))
        out = tmp_path / "frontier.csv"
        code, text = run(capsys, "bounds", "--complexity", str(comp), "--out", str(out))
        assert code == 0
        assert out.read_text() == "avg_tokens,accuracy\n" + want
        assert "5 breakpoints" in text


class TestComplexityFileChecks:
    """A bad complexity file is a data error naming the file and the JSON location."""

    @pytest.fixture
    def complexity_file(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        out = tmp_path / "complexity.json"
        assert run(capsys, "complexity", "--records", str(records), "--out", str(out))[0] == 0
        return out

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda o: o["entries"][3].__setitem__("tau", -5), "entries[3].tau must be null or"),
            (lambda o: o["entries"][3].__setitem__("tau", 12.7), "entries[3].tau must be null or"),
            (lambda o: o["entries"].append(dict(o["entries"][0])),
             "entries[12].question_id 'q00' repeats entries[0]"),
            (lambda o: o.__setitem__("entries", []), "entries must be a non-empty list, got []"),
            (lambda o: o["entries"][3].pop("k_used"), "entries[3].k_used is missing"),
            (lambda o: o["entries"][3].__setitem__("c_star", "abc"),
             "entries[3].c_star must be a finite number in [0, 1], got 'abc'"),
        ],
    )
    def test_bounds_rejects_bad_file(self, tmp_path, capsys, complexity_file, mutate, message):
        obj = json.loads(complexity_file.read_text())
        mutate(obj)
        complexity_file.write_text(json.dumps(obj))
        out = tmp_path / "frontier.csv"
        code = main(["bounds", "--complexity", str(complexity_file), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"data error: {complexity_file}: {message}")
        assert captured.out == ""
        assert not out.exists()

    def test_predict_reads_a_reordered_superset(self, tmp_path, capsys, synth_records,
                                                 complexity_file):
        records, _ = synth_records
        plain = tmp_path / "plain.json"
        assert run(capsys, "predict", "--records", str(records), "--out", str(plain))[0] == 0
        obj = json.loads(complexity_file.read_text())
        obj["entries"] = obj["entries"][::-1] + [
            {"question_id": "zz", "tau": 3, "c_star": 1.0, "k_used": 1}
        ]
        complexity_file.write_text(json.dumps(obj))
        loaded = tmp_path / "loaded.json"
        code, _ = run(capsys, "predict", "--records", str(records),
                      "--complexity", str(complexity_file), "--out", str(loaded))
        assert code == 0
        assert loaded.read_text() == plain.read_text()


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

    def test_budgets_past_int64_route_exactly(self, tmp_path, capsys):
        """q00's budget of 2**62 fits only its correct 2**62-token run."""
        records = tmp_path / "records.jsonl"
        save_matrix(make_matrix([[2**62, 2**62 + 1]] * 2, [[True, False]] * 2), records)
        budgets = tmp_path / "budgets.jsonl"
        budgets.write_text(
            json.dumps({"question_id": "q00", "budget": 2**62}) + "\n"
            + json.dumps({"question_id": "q01", "budget": 2**63}) + "\n"
        )
        out = tmp_path / "routing.csv"
        code, _ = run(capsys, "routing", "--records", str(records), "--budgets", str(budgets),
                      "--family", "p00,p01", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("budget(p00->p01),0.500000,")

    def test_routing_without_policy_is_usage_error(self, tmp_path, capsys, synth_records):
        records, _ = synth_records
        code = main(
            ["routing", "--records", str(records), "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--budgets", "{budgets}", "--family", "p0,p1", "--fallback-prompt", "p3"],
             "--fallback-prompt requires --base-prompt"),
            (["--fallback-prompt", "p3"], "--fallback-prompt requires --base-prompt"),
            (["--base-prompt", "p0", "--fallback-prompt", "p6", "--family", "p0,p3"],
             "--family requires --budgets"),
            (["--family", "p0,p3"], "--family requires --budgets"),
        ],
        ids=["budgets-with-fallback", "fallback-alone", "cascade-with-family", "family-alone"],
    )
    def test_unpaired_flag_is_usage_error_before_any_read(self, tmp_path, capsys, synth_records,
                                                          flags, message):
        """A missing records file would be a data error, so the flags are checked first."""
        records, _ = synth_records
        budgets = tmp_path / "budgets.jsonl"
        budgets.write_text(json.dumps({"question_id": "q00", "budget": 60}) + "\n")
        flags = [f.format(budgets=budgets) for f in flags]
        out = tmp_path / "routing.csv"
        for path in (records, tmp_path / "missing.jsonl"):
            code = main(["routing", "--records", str(path), *flags, "--out", str(out)])
            assert code == 2
            assert capsys.readouterr().err == f"usage error: {message}\n"
            assert not out.exists()


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


class TestCsvIds:
    """Each CSV command writes an id as csv.reader reads it back, or fails with nothing written."""

    COMMANDS = ("tradeoff", "correlate", "adaptivity", "routing")

    def write_records(self, tmp_path, ids):
        records = tmp_path / "records.jsonl"
        records.write_text("".join(
            json.dumps({"model": "m", "dataset": "d", "question_id": f"q{i}", "prompt_id": pid,
                        "tokens": 10 * (i + 1) + j, "correct": (i + j) % 2 == 0}) + "\n"
            for i in range(3) for j, pid in enumerate(ids)
        ))
        return records

    def argv(self, command, ids, records, out):
        flags = {
            "adaptivity": ["--split-prompt", ids[-1]],  # its own row is left out
            "routing": ["--base-prompt", ids[0], "--fallback-prompt", ids[1]],
        }.get(command, [])
        return [command, "--records", str(records), *flags, "--out", str(out)]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_ids_read_back_exactly(self, tmp_path, capsys, command):
        ids = ("a,b", 'x"y', "c\rd")
        out = tmp_path / "out.csv"
        assert main(self.argv(command, ids, self.write_records(tmp_path, ids), out)) == 0
        with out.open(encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {len(header)}
        want = {"routing": [f"verifier({ids[0]}->{ids[1]})"], "adaptivity": sorted(ids[:-1])}
        assert [row[0] for row in rows] == want.get(command, sorted(ids))

    @pytest.mark.parametrize("earlier", [None, b"earlier output\n"], ids=["absent", "present"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_id_utf8_cannot_encode_is_a_data_error(self, tmp_path, capsys, command, earlier):
        ids = ("p\ud83d", "p2", "p3")
        out = tmp_path / "out.csv"
        if earlier is not None:
            out.write_bytes(earlier)
        code = main(self.argv(command, ids, self.write_records(tmp_path, ids), out))
        assert code == 1
        assert capsys.readouterr().err == (
            f"data error: {out}: cannot write '\\ud83d' as UTF-8 (surrogates not allowed)\n"
        )
        assert (out.read_bytes() if out.exists() else None) == earlier


class TestSummaryEscapesIds:
    """An id UTF-8 cannot encode is escaped in the summary; the outputs are those of a plain id."""

    FLAGS = {
        "complexity": ["--out", "out.json"],
        "predict": ["--out", "out.json"],
        "bounds": ["--out", "out.csv"],
        "tradeoff": ["--out", "out.csv"],
        "routing": ["--base-prompt", "p1", "--fallback-prompt", "p2", "--out", "out.csv"],
        "correlate": ["--out", "out.csv"],
        "adaptivity": ["--split-prompt", "p3", "--out", "out.csv"],
    }

    def outputs(self, folder, capsys, command, model, prompt_ids=("p1", "p2", "p3"), flags=()):
        folder.mkdir()
        records = folder / "records.jsonl"
        records.write_text("".join(
            json.dumps({"model": model, "dataset": "d", "question_id": f"q{i}", "prompt_id": pid,
                        "tokens": 10 * (i + 1) + j, "correct": (i + j) % 2 == 0}) + "\n"
            for i in range(4) for j, pid in enumerate(prompt_ids)
        ))
        argv = [command, "--records", str(records), *(flags or self.FLAGS[command])]
        argv[argv.index("--out") + 1] = str(folder / argv[argv.index("--out") + 1])
        code = main(argv)
        captured = capsys.readouterr()
        out = folder / argv[argv.index("--out") + 1]
        return code, captured.out, captured.err, out.read_bytes()

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_surrogate_model_exits_zero_with_the_plain_outputs(self, tmp_path, capsys, command):
        code, text, err, data = self.outputs(tmp_path / "odd", capsys, command, "m\ud83d")
        assert (code, err) == (0, "")
        assert text.startswith(f"{command}: model=m\\ud83d dataset=d")
        plain_code, plain_text, _, plain = self.outputs(tmp_path / "plain", capsys, command, "m")
        assert plain_code == 0
        assert text.replace("m\\ud83d", "m").replace("odd", "plain") == plain_text
        assert data == plain.replace(b'"model": "m"', b'"model": "m\\ud83d"')

    def test_surrogate_split_prompt_exits_zero_with_the_plain_outputs(self, tmp_path, capsys):
        code, text, err, data = self.outputs(
            tmp_path / "odd", capsys, "adaptivity", "m", ("p\ud83d", "p2", "p3"),
            ["--split-prompt", "p\ud83d", "--out", "out.csv"],
        )
        assert (code, err) == (0, "")
        assert "split on p\\ud83d: 2 prompts" in text
        plain = self.outputs(tmp_path / "plain", capsys, "adaptivity", "m", ("p1", "p2", "p3"),
                             ["--split-prompt", "p1", "--out", "out.csv"])
        assert data == plain[3]


class TestCollectCommand:
    def test_collect_help_names_the_api_key_variable(self, capsys):
        from cotbudget.collect import API_KEY_ENV

        with pytest.raises(SystemExit):
            main(["collect", "--help"])
        assert f"from the {API_KEY_ENV} environment variable" in capsys.readouterr().out

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

    def test_resume_drops_the_failures_it_settles(self, tmp_path, capsys):
        questions = tmp_path / "questions.jsonl"
        questions.write_text("\n".join(json.dumps(q) for q in QUESTIONS) + "\n")
        from cotbudget.prompts import PromptCatalog, fixed_spec

        both, no_cot = tmp_path / "both.json", tmp_path / "nocot.json"
        PromptCatalog(specs=(fixed_spec("NoCoT"), fixed_spec("BeConcise"))).save(both)
        PromptCatalog(specs=(fixed_spec("NoCoT"),)).save(no_cot)
        out = tmp_path / "records.jsonl"
        failures = tmp_path / "records.failures.jsonl"
        argv = ["collect", "--model", "m", "--dataset", "d", "--questions", str(questions),
                "--out", str(out), "--retries", "0"]

        def no_usage_for_q2(question_text, body):
            content, tokens = default_reply(question_text, "2")
            return content, None if question_text == "Two plus two?" else tokens

        with MockChatEndpoint(reply_fn=no_usage_for_q2) as mock:
            code, text = run(capsys, *argv, "--catalog", str(both), "--endpoint", mock.url)
        assert code == 0
        assert "2 collected, 2 failed" in text
        q2_no_cot, q2_concise = failures.read_text().splitlines()
        foreign = [
            json.dumps({"question_id": "q9", "prompt_id": "NoCoT", "error": "HTTP 500"}),
            "[1, 2]",
            json.dumps({"question_id": 5, "prompt_id": "NoCoT"}),
        ]
        in_out = json.dumps({"question_id": "q1", "prompt_id": "BeConcise", "error": "HTTP 500"})
        failures.write_text("\n".join([q2_no_cot, *foreign, in_out, q2_concise]) + "\n")

        # (q2, NoCoT) is requested again and succeeds; (q1, BeConcise) is in --out;
        # (q2, BeConcise) is outside this catalog and still missing, so it stays.
        with MockChatEndpoint(answers={"Two plus two?": "4"}) as mock:
            code, text = run(capsys, *argv, "--catalog", str(no_cot), "--endpoint", mock.url,
                             "--resume")
        assert code == 0
        assert "1 skipped (resume), 1 collected, 0 failed" in text
        assert failures.read_text().splitlines() == [*foreign, q2_concise]

        with MockChatEndpoint(answers={"Two plus two?": "4"}) as mock:
            code, text = run(capsys, *argv, "--catalog", str(both), "--endpoint", mock.url,
                             "--resume")
        assert code == 0
        assert "3 skipped (resume), 1 collected, 0 failed" in text
        assert failures.read_text().splitlines() == foreign
        assert len(out.read_text().splitlines()) == 4
        assert not failures.with_name(failures.name + ".tmp").exists()

    def test_sidecar_rewrite_leaves_an_out_file_named_like_its_scratch(self, tmp_path, capsys):
        """--out side.jsonl.tmp beside --failures side.jsonl: a resume keeps --out's bytes."""
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps(QUESTIONS[0]) + "\n")
        catalog = tmp_path / "catalog.json"
        from cotbudget.prompts import PromptCatalog, fixed_spec

        PromptCatalog(specs=(fixed_spec("NoCoT"), fixed_spec("BeConcise"))).save(catalog)
        out, failures = tmp_path / "side.jsonl.tmp", tmp_path / "side.jsonl"
        argv = ["collect", "--model", "m", "--dataset", "d", "--questions", str(questions),
                "--catalog", str(catalog), "--out", str(out), "--failures", str(failures)]
        with MockChatEndpoint() as mock:
            assert run(capsys, *argv, "--endpoint", mock.url)[0] == 0
        records = out.read_bytes()
        assert len(records.splitlines()) == 2
        foreign = json.dumps({"question_id": "q9", "prompt_id": "NoCoT", "error": "HTTP 500"})
        settled = json.dumps({"question_id": "q1", "prompt_id": "NoCoT", "error": "HTTP 500"})
        failures.write_text(foreign + "\n" + settled + "\n")
        with MockChatEndpoint() as mock:
            code, text = run(capsys, *argv, "--endpoint", mock.url, "--resume")
        assert code == 0
        assert "2 skipped (resume), 0 collected" in text
        assert out.read_bytes() == records
        assert failures.read_text() == foreign + "\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "catalog.json", "questions.jsonl", "side.jsonl", "side.jsonl.tmp"]

    def test_resumes_that_keep_failing_list_each_cell_once(self, tmp_path, capsys):
        questions = tmp_path / "questions.jsonl"
        questions.write_text(json.dumps(QUESTIONS[0]) + "\n")
        out = tmp_path / "records.jsonl"
        failures = tmp_path / "records.failures.jsonl"
        argv = ["collect", "--model", "m", "--dataset", "d", "--questions", str(questions),
                "--out", str(out)]
        with MockChatEndpoint(omit_usage=True) as mock:
            assert run(capsys, *argv, "--endpoint", mock.url)[0] == 3
            for _ in range(3):
                assert run(capsys, *argv, "--endpoint", mock.url, "--resume")[0] == 3
        cells = [(obj["question_id"], obj["prompt_id"]) for _, obj in read_jsonl(failures)]
        assert len(cells) == len(set(cells)) == 31  # the built-in catalog
        assert out.read_text() == ""

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

    @pytest.mark.parametrize("model, seed", [("model-a", "1"), ("model-b", "2")])
    def test_synth_matches_the_benchmark_digests(self, tmp_path, capsys, model, seed):
        """synth with the cli-pipeline benchmark's seed-0 arguments writes the bytes
        whose sha256 perfbench/digests.json records."""
        digests = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
        records, taus = tmp_path / f"{model}.jsonl", tmp_path / f"{model}.taus.json"
        code, out = run(capsys, "synth", "--out", str(records), "--n", "2000", "--prompts", "31",
                        "--seed", seed, "--violation-rate", "0.05", "--model", model,
                        "--dataset", "synthetic", "--taus-out", str(taus))
        assert code == 0
        assert "infinite_complexity=333," in out  # round(2000 / 6)
        for path in (records, taus):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == digests["cli-pipeline-2x2k"][path.name], path.name


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

        out = tmp_path / "r.jsonl"
        code, _ = run(capsys, "synth", "--out", str(out), "--n", "15", "--prompts", "6",
                      "--seed", "4", "--violation-rate", "0.3", "--model", "modèle \"x\"",
                      "--dataset", "数据")
        assert code == 0
        spec = oracle.random_spec(n=15, seed=4, violation_rate=0.3, n_prompts=6)
        spec = dataclasses.replace(spec, model='modèle "x"', dataset="数据")
        matrix, _ = oracle.generate(spec)
        save_records_loop(unpivot_loop(matrix), tmp_path / "want.jsonl")
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

    def test_torn_failures_sidecar_is_cut_before_appending(self, collected, capsys):
        argv, out = collected
        sidecar = out.with_suffix(".failures.jsonl")
        sidecar.write_bytes(b'{"question_id": "q1", "prompt_id": "Def')
        lines = out.read_bytes().splitlines(keepends=True)
        out.write_bytes(b"".join(lines[:-1]))
        with MockChatEndpoint(omit_usage=True) as mock:
            code = main([*argv, "--endpoint", mock.url, "--resume"])
        assert code == 3  # the one cell requested failed
        assert [obj["error"] for _, obj in read_jsonl(sidecar)] == [
            "response missing usage.completion_tokens"
        ]

    def test_resumes_build_no_matrix_and_write_no_cache_entry(self, collected, capsys,
                                                              isolated_record_cache):
        argv, _ = collected
        built = AssertionError("matrix built")
        with patch.object(records_mod, "_pair_columns", side_effect=built), \
                patch.object(records_mod, "_place", side_effect=built):
            for _ in range(2):
                code, text, _, requests_made = self.resume(capsys, argv)
                assert code == 0
                assert "4 skipped (resume), 0 collected" in text
                assert requests_made == 0
        assert not list(isolated_record_cache.glob("*.npz"))

    def test_prior_records_of_another_pair_skip_nothing(self, collected, capsys):
        argv, out = collected
        prior = out.read_bytes().replace(b'"model": "m"', b'"model": "m2"')
        out.write_bytes(prior)
        code, text, _, requests_made = self.resume(capsys, argv)
        assert code == 0
        assert "0 skipped (resume), 4 collected, 0 failed" in text
        assert requests_made == 4
        assert out.read_bytes().startswith(prior)
        assert sorted(r.model for r in load_records(out)) == ["m"] * 4 + ["m2"] * 4

    def test_bad_prior_line_is_the_error_read_matrices_raises(self, collected, capsys,
                                                              isolated_record_cache):
        argv, out = collected
        assert self.resume(capsys, argv)[0] == 0
        lines = out.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"tokens": ', b'"tokens": -1, "was": ')
        out.write_bytes(b"".join(lines))
        reason = f"{out}:2: field 'tokens' must be non-negative, got -1"
        assert self.resume(capsys, argv) == (1, "", f"data error: {reason}\n", 0)
        assert out.read_bytes() == b"".join(lines)
        assert not list(isolated_record_cache.glob("*.npz"))
        with pytest.raises(RecordSchemaError) as caught:
            records_mod.read_matrices(out)
        assert str(caught.value) == reason

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


DEEP = "[" * 5000 + "]" * 5000


class TestHostileInput:
    """Deeply nested JSON and lone surrogates: a data error or a finished sweep, no traceback."""

    def test_deep_records_line_is_data_error(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        line = {"model": "m", "dataset": "d", "question_id": "q", "prompt_id": "p",
                "tokens": 1, "correct": True}
        records.write_text(json.dumps(line) + "\n" + DEEP + "\n")
        for argv in (["complexity"], ["bounds"]):
            code = main([*argv, "--records", str(records), "--out", str(tmp_path / "out")])
            assert code == 1
            assert capsys.readouterr().err == (
                f"data error: {records}:2: JSON nested too deeply to parse\n"
            )
        assert not (tmp_path / "out").exists()

    def test_deep_complexity_file_is_data_error(self, tmp_path, capsys):
        comp = tmp_path / "complexity.json"
        comp.write_text('{"model": "m", "entries": ' + DEEP + "}\n")
        code = main(["bounds", "--complexity", str(comp), "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"data error: {comp}: JSON nested too deeply to parse\n"

    def collect(self, tmp_path, capsys, mock, *extra):
        questions = tmp_path / "questions.jsonl"
        questions.write_text("\n".join(json.dumps(q) for q in QUESTIONS) + "\n")
        out = tmp_path / "records.jsonl"
        code = main(["collect", "--endpoint", mock.url, "--model", "m", "--dataset", "d",
                     "--questions", str(questions), "--out", str(out), *extra])
        return code, capsys.readouterr().out, out

    def test_deep_reply_goes_to_sidecar(self, tmp_path, capsys, monkeypatch):
        from cotbudget import collect as collect_mod

        post = collect_mod._Transport.post

        def deep_for_q2(self, body):
            status, retry_after, data = post(self, body)
            return status, retry_after, DEEP.encode() if b"Two plus two?" in body else data

        monkeypatch.setattr(collect_mod._Transport, "post", deep_for_q2)
        with MockChatEndpoint() as mock:
            code, text, out = self.collect(tmp_path, capsys, mock, "--catalog",
                                           self.catalog(tmp_path))
        assert code == 0
        assert "2 collected, 2 failed" in text
        assert {r.question_id for r in load_records(out)} == {"q1"}
        sidecar = (tmp_path / "records.failures.jsonl").read_text().splitlines()
        assert [json.loads(line)["error"] for line in sidecar] == ["unparseable response body"] * 2

    def catalog(self, tmp_path):
        from cotbudget.prompts import PromptCatalog, fixed_spec

        path = tmp_path / "catalog.json"
        PromptCatalog(specs=(fixed_spec("NoCoT"), fixed_spec("BeConcise"))).save(path)
        return str(path)

    def test_lone_surrogate_reply_is_written_escaped(self, tmp_path, capsys):
        answer = "x\ud83dy"
        catalog = self.catalog(tmp_path)
        with MockChatEndpoint(answers={"Two plus two?": answer}) as mock:
            code, text, out = self.collect(tmp_path, capsys, mock, "--catalog", catalog)
            assert code == 0
            assert "4 collected, 0 failed" in text
            lines = out.read_bytes().splitlines()
            assert sum(line.count(b"\\ud83d") for line in lines) == 4  # response, extracted_answer
            for line in lines:  # every other byte as json.dumps writes it
                want = json.dumps(json.loads(line), ensure_ascii=False)
                assert line == want.encode("utf-8", "backslashreplace")
            got = [(obj["question_id"], obj["response"]) for _, obj in read_jsonl(out)]
            assert [r for q, r in got if q == "q2"] == [default_reply("", answer)[0]] * 2
            assert records_mod.read_matrices(out)["m", "d"].present.all()
            code, text, _ = self.collect(tmp_path, capsys, mock, "--catalog", catalog, "--resume")
        assert code == 0
        assert "4 skipped (resume), 0 collected" in text


    def test_cesu8_reply_is_stored_as_graded(self, tmp_path, capsys, monkeypatch):
        """A reply body in CESU-8 decodes to a surrogate pair; the record keeps what was graded."""
        from cotbudget import collect as collect_mod

        body = ('{"choices": [{"message": {"content": "Answer: \\ud83d\\ude00"}}], '
                '"usage": {"completion_tokens": 3}}').encode()
        body = body.replace(b"\\ud83d\\ude00", b"\xed\xa0\xbd\xed\xb8\x80")
        monkeypatch.setattr(collect_mod._Transport, "post", lambda self, _: (200, None, body))
        graded = []
        grade = collect_mod.grade
        monkeypatch.setattr(collect_mod, "grade",
                            lambda response, question: graded.append(response) or grade(response, question))
        with MockChatEndpoint() as mock:
            code, text, out = self.collect(tmp_path, capsys, mock, "--catalog",
                                           self.catalog(tmp_path))
        assert code == 0
        assert "4 collected, 0 failed" in text
        stored = [obj["response"] for _, obj in read_jsonl(out)]
        assert stored == graded == ["Answer: \U0001f600"] * 4


class TestCollectChecksBeforeRequests:
    @pytest.mark.parametrize("alias", ["same", "relative", "absent", "hardlink", "symlink"])
    def test_failures_naming_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch, alias):
        """Two writers on one file would overwrite each other's lines: refused before any
        file is read (the questions file does not exist) and before any request."""
        out = tmp_path / "r.jsonl"
        if alias != "absent":
            out.write_bytes(b"earlier records\n")
        monkeypatch.chdir(tmp_path)
        failures = {"same": str(out), "relative": "./sub/../r.jsonl", "absent": "r.jsonl",
                    "hardlink": "link.jsonl", "symlink": "sym.jsonl"}[alias]
        (tmp_path / "sub").mkdir()
        if alias == "hardlink":
            os.link(out, failures)
        elif alias == "symlink":
            os.symlink(out, failures)
        with MockChatEndpoint(fail_first=3, fail_status=400) as mock:
            code = main(["collect", "--endpoint", mock.url, "--model", "m", "--dataset", "d",
                         "--questions", "missing.jsonl", "--out", str(out), "--resume",
                         "--failures", failures])
        assert mock.request_count == 0
        assert code == 2
        assert capsys.readouterr().err == (
            f"usage error: --failures {failures} is the --out file; name another file\n"
        )
        assert (out.read_bytes() if out.exists() else None) == (
            None if alias == "absent" else b"earlier records\n"
        )

    def collect(self, tmp_path, capsys, *extra, model="m"):
        questions = tmp_path / "questions.jsonl"
        questions.write_text("\n".join(json.dumps(q) for q in QUESTIONS) + "\n")
        with MockChatEndpoint() as mock:
            code = main(["collect", "--endpoint", mock.url, "--model", model, "--dataset", "d",
                         "--questions", str(questions), "--out", str(tmp_path / "r.jsonl"),
                         *extra])
        assert mock.request_count == 0
        assert not (tmp_path / "r.jsonl").exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("max_parallel", ["1", "4"])
    def test_empty_model_is_a_usage_error(self, tmp_path, capsys, max_parallel):
        code, err = self.collect(tmp_path, capsys, "--max-parallel", max_parallel, model="")
        assert code == 2
        assert err == "usage error: model must be a non-empty string, got ''\n"

    @pytest.mark.parametrize(
        "payload, location",
        [
            ({"prompt_id": "NoCoT"}, "the file must hold a non-empty JSON array, got {'prompt_id'"),
            ([0, 1, "x"][:0], "the file must hold a non-empty JSON array, got []"),
            ([{"prompt_id": "NoCoT", "family": "NoCoT", "instruction": "i"}, 5],
             "[1] must be an object, got 5"),
            ([{"prompt_id": "A", "family": "NoCoT", "instruction": "i"},
              {"prompt_id": "B", "family": "NoCoT", "instruction": "i"},
              {"family": "NoCoT", "instruction": "i"}], "[2].prompt_id is missing"),
            ([{"prompt_id": "W", "family": "WordLimit", "instruction": "i", "limit": "5",
               "limit_unit": "words"}], "[0].limit must be null or an integer, got '5'"),
            ([{"prompt_id": "W", "family": "WordLimit", "instruction": "i", "limit": 500,
               "limit_unit": "words"}], "[0]: limit 500 out of range [1, 100]"),
            ([{"prompt_id": "A", "family": "Nope", "instruction": "i"}],
             "[0]: unknown prompt family 'Nope'"),
            ([{"prompt_id": "A", "family": "NoCoT", "instruction": "i"},
              {"prompt_id": "A", "family": "NoCoT", "instruction": "j"}],
             "[1].prompt_id 'A' repeats [0]"),
        ],
    )
    def test_bad_catalog_is_a_data_error_naming_the_location(self, tmp_path, capsys, payload,
                                                             location):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(json.dumps(payload))
        code, err = self.collect(tmp_path, capsys, "--catalog", str(catalog))
        assert code == 1
        assert err.startswith(f"data error: {catalog}: {location}")

    def test_malformed_catalog_names_its_line(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.json"
        catalog.write_text('[\n  {"prompt_id": "A",\n  "family" "NoCoT"}\n]\n')
        code, err = self.collect(tmp_path, capsys, "--catalog", str(catalog))
        assert code == 1
        assert err.startswith(f"data error: {catalog}:3: malformed JSON")


class TestPairSelection:
    """--model and --dataset each filter the records' pairs, alone or together."""

    @pytest.fixture
    def two_pairs(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        for model in ("gpt", "llama"):
            assert main(["synth", "--out", str(tmp_path / f"{model}.jsonl"), "--n", "6",
                         "--prompts", "4", "--model", model, "--dataset", "math"]) == 0
        records.write_text((tmp_path / "gpt.jsonl").read_text()
                           + (tmp_path / "llama.jsonl").read_text())
        capsys.readouterr()
        return records

    def complexity(self, tmp_path, capsys, records, *flags):
        capsys.readouterr()
        out = tmp_path / "c.json"
        code = main(["complexity", "--records", str(records), "--out", str(out), *flags])
        captured = capsys.readouterr()
        return code, captured.out + captured.err

    @pytest.mark.parametrize("flags", [["--model", "llama"], ["--dataset", "algebra"]])
    def test_a_lone_flag_matching_nothing_is_a_data_error(self, tmp_path, capsys,
                                                          synth_records, flags):
        records, _ = synth_records
        code, text = self.complexity(tmp_path, capsys, records, *flags)
        assert code == 1
        assert text.startswith("data error: no records for model=")
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("flags", [["--model", "oracle"], ["--dataset", "synthetic"], []])
    def test_a_lone_flag_matching_the_one_pair_selects_it(self, tmp_path, capsys,
                                                          synth_records, flags):
        records, _ = synth_records
        code, text = self.complexity(tmp_path, capsys, records, *flags)
        assert code == 0
        assert "model=oracle dataset=synthetic" in text

    def test_a_lone_model_picks_its_pair_among_several(self, tmp_path, capsys, two_pairs):
        code, text = self.complexity(tmp_path, capsys, two_pairs, "--model", "llama")
        assert code == 0
        assert "model=llama dataset=math" in text

    def test_a_lone_flag_matching_several_pairs_is_a_usage_error(self, tmp_path, capsys,
                                                                 two_pairs):
        code, text = self.complexity(tmp_path, capsys, two_pairs, "--dataset", "math")
        assert code == 2
        assert text == ("usage error: --model and --dataset are required "
                        "(2 pairs match: gpt/math; llama/math)\n")
