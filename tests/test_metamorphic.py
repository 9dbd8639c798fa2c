"""Metamorphic relations of the whole pipeline, checked at the CLI.

Every statistic the analysis commands write is a function of the set of
(question, prompt, tokens, correct) cells of one (model, dataset) pair, and
a question's complexity is a length threshold. So, for a small pair drawn
from ``synth``:

- the order of the record lines, and a second pair interleaved with them,
  change no byte of any output or summary;
- renaming the question and prompt ids by a map that keeps their order
  gives the same outputs, with the ids renamed;
- multiplying every token count (and the routing budgets) by an integer
  c >= 1 multiplies tau, T*, the frontier's budgets and every token column
  by c, and changes no accuracy, c_star, c_bar, Err or rho.

The seven analysis commands run in this process through ``cli.main``. A
column the files round to 6 places is compared as an exact rational, within
that rounding of c times the original.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cotbudget.cli import main

# Few, small examples: each runs the seven commands on three to four files.
RELATIONS = settings(max_examples=10, deadline=None)
MODEL, DATASET = "model-a", "set-a"
OUTPUTS = {
    "complexity": "complexity.json",
    "predict": "validation.json",
    "bounds": "frontier.csv",
    "tradeoff": "tradeoff.csv",
    "routing": "routing.csv",
    "correlate": "correlate.csv",
    "adaptivity": "adaptivity.csv",
}


@st.composite
def pairs(draw) -> dict:
    """One synth pair's flags: n <= 60 questions, 2 <= K <= 8 prompts, any violation rate."""
    return {
        "n": draw(st.integers(1, 60)),
        "prompts": draw(st.integers(2, 8)),
        "seed": draw(st.integers(0, 2**16)),
        "violation_rate": draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
    }


def synth_lines(folder: Path, pair: dict, model: str = MODEL, dataset: str = DATASET) -> list:
    """The parsed record lines that ``synth`` writes for the pair."""
    out = folder / f"synth-{model}.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(out), "--taus-out", str(folder / f"taus-{model}.json"),
                     "--n", str(pair["n"]), "--prompts", str(pair["prompts"]),
                     "--seed", str(pair["seed"]), "--violation-rate", str(pair["violation_rate"]),
                     "--model", model, "--dataset", dataset]) == 0
    return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]


def id_lists(lines: list) -> tuple[list[str], list[str]]:
    """The pair's question and prompt ids, each sorted."""
    return (sorted({o["question_id"] for o in lines}), sorted({o["prompt_id"] for o in lines}))


def budgets_for(question_ids: list[str], seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(0, 700) for _ in question_ids]


def run_all(folder: Path, lines: list, question_ids: list[str], prompt_ids: list[str],
            budgets: list[int]) -> dict[str, tuple]:
    """Each command's (exit code, stdout, stderr, output bytes or None) on these lines.

    Paths are relative to ``folder``, so the summaries of two folders compare.
    """
    folder.mkdir()
    (folder / "records.jsonl").write_text(
        "".join(json.dumps(o) + "\n" for o in lines), encoding="utf-8")
    (folder / "budgets.jsonl").write_text(
        "".join(json.dumps({"question_id": q, "budget": b}) + "\n"
                for q, b in zip(question_ids, budgets)), encoding="utf-8")
    select = ["--records", "records.jsonl", f"--model={MODEL}", f"--dataset={DATASET}"]
    extra = {
        "routing": [f"--base-prompt={prompt_ids[0]}",
                    *(f"--fallback-prompt={p}" for p in prompt_ids[1:3]),
                    "--budgets", "budgets.jsonl", f"--family={','.join(prompt_ids[:3])}"],
        "adaptivity": [f"--split-prompt={prompt_ids[-1]}"],
    }
    results = {}
    with _inside(folder):
        for command, out in OUTPUTS.items():
            printed, errors = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
                code = main([command, *select, *extra.get(command, []), "--out", out])
            path = Path(out)
            results[command] = (code, printed.getvalue(), errors.getvalue(),
                                path.read_bytes() if path.exists() else None)
    return results


@contextlib.contextmanager
def _inside(folder: Path):
    """Run the block with folder as the working directory (contextlib.chdir is 3.11+)."""
    before = os.getcwd()
    os.chdir(folder)
    try:
        yield
    finally:
        os.chdir(before)


def csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def close(scaled: str, original: str, c: int) -> bool:
    """Whether a 6-place value of c * x matches c times the 6-place value of x."""
    gap = abs(Fraction(scaled) - c * Fraction(original))
    return gap <= Fraction(c + 1, 2 * 10**6) + Fraction(1, 10**9)


# ---------------------------------------------------------------------------
# line order, and a second pair interleaved
# ---------------------------------------------------------------------------


@RELATIONS
@given(pair=pairs(), other=pairs(), order=st.randoms(use_true_random=False))
def test_line_order_and_a_second_pair_change_no_byte(pair, other, order):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        lines = synth_lines(folder, pair)
        others = synth_lines(folder, other, model="model-b")
        question_ids, prompt_ids = id_lists(lines)
        budgets = budgets_for(question_ids, pair["seed"])
        shuffled = lines[:]
        order.shuffle(shuffled)
        mixed = lines + others
        order.shuffle(mixed)
        want = run_all(folder / "sorted", lines, question_ids, prompt_ids, budgets)
        assert run_all(folder / "shuffled", shuffled, question_ids, prompt_ids, budgets) == want
        assert run_all(folder / "mixed", mixed, question_ids, prompt_ids, budgets) == want
        assert want["complexity"][0] == 0


# ---------------------------------------------------------------------------
# renaming the ids by an order-preserving map
# ---------------------------------------------------------------------------

# Non-ASCII ids, and prompt ids with a quote, which the CSVs must quote. A
# prompt id holds no comma or blank, as --family splits on commas and strips blanks.
QUESTION_ID = st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=4)
PROMPT_ID = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs"),
                                  blacklist_characters=","), min_size=1, max_size=4)


def renamed_outputs(results: dict, qmap: dict, pmap: dict, prompt_ids: list[str]) -> dict:
    """The files of results, parsed, with every id renamed by qmap and pmap."""
    old, new = "->".join(prompt_ids[:3]), "->".join(pmap[p] for p in prompt_ids[:3])
    policies = {f"{kind}({old})": f"{kind}({new})" for kind in ("verifier", "budget")}
    out = {}
    for command, (code, _, _, data) in results.items():
        if code:
            out[command] = code
        elif command in ("complexity", "predict"):
            obj = json.loads(data)
            for entry in obj.get("entries", []):
                entry["question_id"] = qmap[entry["question_id"]]
            for row in obj.get("per_prompt", []):
                row["prompt_id"] = pmap[row["prompt_id"]]
            out[command] = obj
        elif command == "bounds":
            out[command] = data
        else:
            rows = csv_rows(data)
            ids = policies if command == "routing" else pmap
            out[command] = [rows[0], *([ids[row[0]], *row[1:]] for row in rows[1:])]
    return out


@RELATIONS
@given(pair=pairs(), data=st.data())
def test_renaming_ids_in_order_renames_the_outputs(pair, data):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        lines = synth_lines(folder, pair)
        question_ids, prompt_ids = id_lists(lines)
        new_questions = sorted(data.draw(st.lists(
            QUESTION_ID, min_size=len(question_ids), max_size=len(question_ids), unique=True)))
        new_prompts = sorted(data.draw(st.lists(
            PROMPT_ID, min_size=len(prompt_ids), max_size=len(prompt_ids), unique=True)))
        qmap = dict(zip(question_ids, new_questions))
        pmap = dict(zip(prompt_ids, new_prompts))
        renamed = [{**o, "question_id": qmap[o["question_id"]], "prompt_id": pmap[o["prompt_id"]]}
                   for o in lines]
        budgets = budgets_for(question_ids, pair["seed"])
        want = run_all(folder / "original", lines, question_ids, prompt_ids, budgets)
        got = run_all(folder / "renamed", renamed, new_questions, new_prompts, budgets)
        same = renamed_outputs(got, dict(zip(new_questions, new_questions)),
                               dict(zip(new_prompts, new_prompts)), new_prompts)
        assert same == renamed_outputs(want, qmap, pmap, prompt_ids)
        for command in ("complexity", "predict", "bounds", "tradeoff"):  # no id in the summary
            assert got[command][1] == want[command][1]


# ---------------------------------------------------------------------------
# scaling every token count by c
# ---------------------------------------------------------------------------


def assert_scaled_json(command: str, got: dict, want: dict, c: int) -> None:
    if command == "complexity":
        for g, w in zip(got.pop("entries"), want.pop("entries"), strict=True):
            tau = w.pop("tau")
            assert g.pop("tau") == (tau if tau is None else c * tau)
            assert g == w
        for key in ("tau_bar_over_n", "tau_bar_finite_mean"):
            assert close(repr(got.pop(key)), repr(want.pop(key)), c), key
    else:
        for g, w in zip(got.pop("per_prompt"), want.pop("per_prompt"), strict=True):
            assert close(repr(g.pop("avg_tokens")), repr(w.pop("avg_tokens")), c)
            assert g == w
    assert got == want  # every accuracy, c_star, c_bar, A* and Err


# The token columns of each CSV; every other column must not change.
TOKEN_COLUMNS = {"bounds": {0}, "tradeoff": {2}, "routing": {2}, "correlate": set(),
                 "adaptivity": {1, 2}}


@RELATIONS
@given(pair=pairs(), c=st.integers(1, 1000))
def test_scaling_tokens_scales_every_token_quantity_and_no_accuracy(pair, c):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        lines = synth_lines(folder, pair)
        question_ids, prompt_ids = id_lists(lines)
        budgets = budgets_for(question_ids, pair["seed"])
        scaled = [{**o, "tokens": c * o["tokens"]} for o in lines]
        want = run_all(folder / "original", lines, question_ids, prompt_ids, budgets)
        got = run_all(folder / "scaled", scaled, question_ids, prompt_ids,
                      [c * b for b in budgets])
        for command, (code, _, error, data) in want.items():
            assert got[command][0] == code, command
            if code:
                assert got[command][2] == error
            elif command in ("complexity", "predict"):
                assert_scaled_json(command, json.loads(got[command][3]), json.loads(data), c)
            else:
                rows, original = csv_rows(got[command][3]), csv_rows(data)
                assert len(rows) == len(original) and rows[0] == original[0], command
                for row, before in zip(rows[1:], original[1:]):
                    for i, (g, w) in enumerate(zip(row, before, strict=True)):
                        if i in TOKEN_COLUMNS[command] and w:
                            assert close(g, w, c), (command, row, before)
                        else:
                            assert g == w, (command, row, before)
