"""Workload cli-pipeline-2x2k: the analysis commands a user runs after a sweep.

Two synthetic pairs (n = 2,000, K = 31, 5% violations) share one records
file, and every command selects one pair, so each of the six loads parses
twice the records it uses. Each command is a child process, timed from spawn
to reap, with peak RSS from wait4.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import reference
from harness import RunState, median, python_argv, trace_metrics, within

NAME = "cli-pipeline-2x2k"
N_QUESTIONS = 2000
N_PROMPTS = 31
VIOLATION_RATE = "0.05"
DATASET = "synthetic"
MODELS = ("model-a", "model-b")
SELECTED = MODELS[0]
CASCADE = ("p00", "p15", "p30")
FAMILY = ("p04", "p12", "p20", "p28")
SPLIT_PROMPT = "p00"
UNKNOWN_BUDGET_IDS = 20  # 1% of the selected pair's questions
SETUP_REPEATS = 3
HELP_REPEATS = 5
DIGEST_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")

COMMANDS = ("complexity", "predict", "bounds", "tradeoff", "routing", "correlate", "adaptivity")
OUTPUTS = {
    "complexity": "complexity.json",
    "predict": "validation.json",
    "bounds": "frontier.csv",
    "tradeoff": "tradeoff.csv",
    "routing": "routing.csv",
    "correlate": "correlate.csv",
    "adaptivity": "adaptivity.csv",
}


def _fmt(value) -> str:
    return f"{float(value):.6f}"


class Pipeline:
    def __init__(self, state: RunState) -> None:
        self.state = state
        self.inputs = state.work / "inputs"
        self.records = self.inputs / "pipeline.jsonl"
        self.budgets_path = self.inputs / "budgets.jsonl"
        self.budgets: dict[str, int] = {}
        self.synth_children = []

    # -- running the program ------------------------------------------------

    def setup(self, traced: bool) -> float:
        """Synthesize both pairs, concatenate them and write the budgets file."""
        state = self.state
        start = time.perf_counter()
        self.inputs.mkdir(parents=True, exist_ok=True)
        parts = []
        for index, model in enumerate(MODELS):
            out = self.inputs / f"{model}.jsonl"
            taus = self.inputs / f"{model}.taus.json"
            args = [
                "synth", "--out", str(out), "--n", str(N_QUESTIONS), "--prompts", str(N_PROMPTS),
                "--seed", str(2 * state.seed + 1 + index), "--violation-rate", VIOLATION_RATE,
                "--model", model, "--dataset", DATASET, "--taus-out", str(taus),
            ]
            self.synth_children.append(state.cli(f"synth-{model}", args, traced))
            state.operations(1)
            parts.append(out)
        with self.records.open("wb") as sink:
            for part in parts:
                sink.write(part.read_bytes())
        self.budgets = self._write_budgets(self.inputs / f"{SELECTED}.taus.json")
        return time.perf_counter() - start

    def _write_budgets(self, taus_path: Path) -> dict[str, int]:
        """Noisy per-question budgets around the true complexity, plus unknown ids."""
        rng = random.Random(self.state.seed)
        taus = json.loads(taus_path.read_text(encoding="utf-8"))["taus"]
        budgets = {}
        for qid in sorted(taus):
            tau = taus[qid]
            if tau is None:
                budgets[qid] = rng.randint(20, 400)
            else:
                budgets[qid] = max(1, round(tau * math.exp(rng.gauss(0.0, 0.35))))
        for u in range(UNKNOWN_BUDGET_IDS):
            budgets[f"unknown{u:03d}"] = rng.randint(20, 400)
        with self.budgets_path.open("w", encoding="utf-8") as fh:
            for qid, budget in budgets.items():
                fh.write(json.dumps({"question_id": qid, "budget": budget}) + "\n")
        return budgets

    def command_args(self, command: str, out_dir: Path) -> list[str]:
        records = ["--records", str(self.records), "--model", SELECTED, "--dataset", DATASET]
        profile = ["--complexity", str(out_dir / OUTPUTS["complexity"])]
        out = ["--out", str(out_dir / OUTPUTS[command])]
        extra = {
            "complexity": records,
            "predict": records + profile,
            "bounds": profile,
            "tradeoff": records + profile,
            "routing": records + profile + [
                "--base-prompt", CASCADE[0],
                *[arg for p in CASCADE[1:] for arg in ("--fallback-prompt", p)],
                "--budgets", str(self.budgets_path), "--family", ",".join(FAMILY),
            ],
            "correlate": records + profile,
            "adaptivity": records + ["--split-prompt", SPLIT_PROMPT],
        }[command]
        return [command, *extra, *out]

    def run_pass(self, index: int, traced: bool) -> tuple[float, dict]:
        """One pass of the seven commands; returns (wall, children by command)."""
        out_dir = self.state.work / f"pass{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        children = {}
        start = time.perf_counter()
        for command in COMMANDS:
            children[command] = self.state.cli(command, self.command_args(command, out_dir), traced)
        wall = time.perf_counter() - start
        self.state.operations(len(COMMANDS))
        return wall, children

    # -- checks ---------------------------------------------------------------

    def check(self, pass_dirs: list[Path]) -> tuple[dict[str, list[str]], dict]:
        """Check every pass's outputs; returns (problems by command, counts)."""
        try:
            m, total = reference.read_pair(self.records, SELECTED, DATASET)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return {"synth": [f"unreadable synthesized records: {exc!r}"]}, {}
        first = pass_dirs[0]
        problems = check_outputs(first, m, self.budgets)
        for other in pass_dirs[1:]:
            for command in COMMANDS:
                a, b = first / OUTPUTS[command], other / OUTPUTS[command]
                if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
                    problems.setdefault(command, []).append(f"{b} differs from the first pass")
        if self.state.seed == DIGEST_SEED:
            expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[NAME]
            for name, digest in sorted(expected.items()):
                path = first / name if (first / name).exists() else self.inputs / name
                got = _sha256(path) if path.exists() else "missing"
                if got != digest:
                    command = next((c for c, f in OUTPUTS.items() if f == name), "synth")
                    problems.setdefault(command, []).append(
                        f"sha256 of {name} is {got}, expected {digest}"
                    )
        est = reference.estimate(m)
        finite = est.finite_taus()
        counts = {
            "count.records": total,
            "count.cells_present": int(m.present.sum()),
            "count.tau_infinite": len(est.tau) - len(finite),
            "count.breakpoints": len(reference.frontier(est.tau, len(est.tau))),
        }
        return problems, counts


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


CSV_HEADERS = {
    "bounds": ["avg_tokens", "accuracy"],
    "tradeoff": ["prompt_id", "accuracy", "avg_tokens", "predicted_accuracy"],
    "routing": ["policy_id", "accuracy", "avg_tokens", "frontier_gap"],
    "correlate": ["prompt_id", "spearman_rho", "n"],
    "adaptivity": ["prompt_id", "avg_tokens_easy", "avg_tokens_hard"],
}


def check_outputs(out_dir: Path, m: reference.Matrix, budgets: dict[str, int]) -> dict[str, list[str]]:
    """Compare each command's output with the independent reference."""
    problems: dict[str, list[str]] = {}

    def expect(command: str, ok: bool, message: str) -> None:
        if not ok:
            problems.setdefault(command, []).append(message)

    def csv_rows(command: str) -> list[list[str]]:
        lines = (out_dir / OUTPUTS[command]).read_text(encoding="utf-8").splitlines()
        expect(command, lines[0].split(",") == CSV_HEADERS[command], "header differs")
        return [line.split(",") for line in lines[1:]]

    def guarded(command, fn):
        try:
            fn()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            expect(command, False, f"unreadable output: {exc!r}")

    est = reference.estimate(m)
    n = len(m.question_ids)
    c_stars = [est.c_star(i) for i in range(n)]
    agg = reference.aggregates(c_stars, est.tau)
    # A profile read back from its file keeps the rounded c_star values.
    loaded_c_bar = sum((Fraction(repr(round(float(c), 6))) for c in c_stars), Fraction(0)) / n
    points = reference.frontier(est.tau, n)
    rows = reference.prompt_rows(m, est.tau)

    def complexity():
        obj = json.loads((out_dir / OUTPUTS["complexity"]).read_text(encoding="utf-8"))
        entries = obj["entries"]
        expect("complexity", (obj["model"], obj["dataset"]) == (SELECTED, DATASET), "wrong pair")
        expect("complexity", [e["question_id"] for e in entries] == list(m.question_ids),
               "question ids differ")
        wrong = 0
        for i, e in enumerate(entries[:n]):
            tau = None if math.isinf(est.tau[i]) else int(est.tau[i])
            if (e["tau"], e["c_star"], e["k_used"]) != (tau, round(float(c_stars[i]), 6), int(est.k_used[i])):
                wrong += 1
        expect("complexity", wrong == 0, f"{wrong} entries differ from the reference estimate")
        for key in ("c_bar", "a_star", "tau_bar_over_n", "tau_bar_finite_mean"):
            expect("complexity", obj[key] == round(float(getattr(agg, key)), 6), f"{key} differs")

    def predict():
        obj = json.loads((out_dir / OUTPUTS["predict"]).read_text(encoding="utf-8"))
        got = [(r["prompt_id"], r["accuracy"], r["avg_tokens"], r["predicted_accuracy"], r["n_questions"])
               for r in obj["per_prompt"]]
        want = [(r.prompt_id, round(float(r.accuracy), 6), round(float(r.avg_tokens), 6),
                 round(float(r.predicted_accuracy), 6), r.n_questions) for r in rows]
        expect("predict", got == want, "per-prompt rows differ")
        expect("predict", obj["err"] == round(float(reference.err(rows)), 6), "err differs")
        expect("predict", obj["c_bar"] == round(float(loaded_c_bar), 6), "c_bar differs")

    def bounds():
        got = csv_rows("bounds")
        parsed = [(Fraction(b), Fraction(a)) for b, a in got]
        # The invariants hold against the profile the command read, right or wrong.
        profile = json.loads((out_dir / OUTPUTS["complexity"]).read_text(encoding="utf-8"))
        taus = [math.inf if e["tau"] is None else e["tau"] for e in profile["entries"]]
        for problem in reference.frontier_problems(parsed, taus, n, tolerance=Fraction(1, 10**6)):
            expect("bounds", False, problem)
        expect("bounds", got == [[_fmt(b), _fmt(a)] for b, a in points], "breakpoints differ")

    def tradeoff():
        got = csv_rows("tradeoff")
        want = [[r.prompt_id, _fmt(r.accuracy), _fmt(r.avg_tokens), _fmt(r.predicted_accuracy)]
                for r in rows]
        expect("tradeoff", got == want, "rows differ")

    def routing():
        got = csv_rows("routing")
        want = []
        for policy, (acc, avg) in (
            ("verifier(" + "->".join(CASCADE) + ")", reference.cascade(m, list(CASCADE))),
            ("budget(" + "->".join(FAMILY) + ")", reference.budget_route(m, budgets, list(FAMILY))),
        ):
            gap = reference.alpha_at(points, avg) - acc
            want.append([policy, _fmt(acc), _fmt(avg), _fmt(gap)])
        expect("routing", got == want, f"rows differ: got {got}, want {want}")

    def correlate():
        got = csv_rows("correlate")
        want = reference.spearman_rows(m, est.tau)
        expect("correlate", len(got) == len(want), "row count differs")
        for (pid, rho, count), (wpid, wrho, wcount) in zip(got, want):
            same_rho = (rho == "nan" and math.isnan(wrho)) or (
                rho != "nan" and abs(float(rho) - wrho) <= 1.5e-6
            )
            expect("correlate", (pid, int(count)) == (wpid, wcount) and same_rho,
                   f"row {pid} differs")

    def adaptivity():
        got = csv_rows("adaptivity")
        want = [[pid, "" if e is None else _fmt(e), "" if h is None else _fmt(h)]
                for pid, (e, h) in reference.adaptivity(m, SPLIT_PROMPT).items()]
        expect("adaptivity", got == want, "rows differ")

    for command, fn in (("complexity", complexity), ("predict", predict), ("bounds", bounds),
                        ("tradeoff", tradeoff), ("routing", routing), ("correlate", correlate),
                        ("adaptivity", adaptivity)):
        guarded(command, fn)
    return problems


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


def run(state: RunState) -> tuple[dict, dict]:
    """Returns (end-to-end metrics, per-layer metrics) for this run."""
    pipe = Pipeline(state)
    tracer = state.tracer
    e2e: dict[str, float] = {}
    layer: dict[str, float] = {}
    if state.trace:
        with tracer.span("bench.setup"):
            pipe.setup(traced=True)
        helps = [state.child("help", python_argv("-m", "cotbudget.cli", "--help"))
                 for _ in range(HELP_REPEATS + 1)][1:]
        state.operations(len(helps) + 1)
        probe = state.child("load-probe", python_argv(
            "-c",
            "import sys; from cotbudget.records import load_records, pivot; "
            "pivot(load_records(sys.argv[1]), sys.argv[2], sys.argv[3])",
            str(pipe.records), SELECTED, DATASET,
        ))
        state.operations(1)
    else:
        setups = [pipe.setup(traced=False) for _ in range(SETUP_REPEATS)]
        e2e["setup_s"] = median(setups)

    walls, traced_walls, windows, pass_dirs, all_children, traced_children = [], [], [], [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < state.seconds:
        wall, children = pipe.run_pass(len(pass_dirs), traced=False)
        walls.append(wall)
        all_children.append(children)
        pass_dirs.append(state.work / f"pass{len(pass_dirs)}")
        if state.trace:
            with tracer.span("bench.pass") as span_id:
                wall, children = pipe.run_pass(len(pass_dirs), traced=True)
            traced_walls.append(wall)
            traced_children.append(children)
            pass_dirs.append(state.work / f"pass{len(pass_dirs)}")
            window = next(s for s in tracer.spans if s.span_id == span_id)
            windows.append((window.start, window.end))

    problems, counts = pipe.check(pass_dirs)
    for command, messages in sorted(problems.items()):
        for message in messages:
            state.problem(f"{command}: {message}")
    # An operation fails when its child exits nonzero or its output is wrong.
    state.operations(0, sum(
        1
        for children in all_children + traced_children
        for command, child in children.items()
        if not child.ok or command in problems
    ) + sum(1 for c in pipe.synth_children if not c.ok or "synth" in problems))
    run_s = median(walls)
    state.note(f"pipeline_s = {run_s:.4f} s (median of {len(walls)} passes of 7 commands)")
    if not state.trace:
        e2e["run_s"] = run_s
        e2e["peak_rss_mb"] = max(c.rss_mb for c in state.children)
        return e2e, layer

    spans = within(tracer.spans, windows)

    def span_median(name: str) -> float:
        values = [s.duration for s in spans if s.name == name]
        return median(values) if values else 0.0

    setup_spans = [s for s in tracer.spans if not any(a <= s.start for a, _ in windows)]

    def setup_median(name: str) -> float:
        values = [s.duration for s in setup_spans if s.name == name]
        return median(values) if values else 0.0

    layer.update(counts)
    layer["records.load_records_s"] = span_median("records.load_records")
    if layer["records.load_records_s"]:
        layer["records.load_records_per_s"] = counts.get("count.records", 0) / layer["records.load_records_s"]
    layer["records.pivot_s"] = span_median("records.pivot")
    layer["records.unpivot_s"] = setup_median("records.unpivot")
    layer["records.save_records_s"] = setup_median("records.save_records")
    layer["records.load_rss_mb"] = probe.rss_mb
    layer["complexity.profile_s"] = span_median("complexity.profile")
    if layer["complexity.profile_s"]:
        layer["complexity.profile_cells_per_s"] = counts.get("count.cells_present", 0) / layer["complexity.profile_s"]
    layer["complexity.profile_save_s"] = span_median("complexity.profile_save")
    layer["complexity.profile_load_s"] = span_median("complexity.profile_load")
    layer["bounds.frontier_s"] = span_median("bounds.frontier")
    for name in ("validation_report", "complexity_correlations", "adaptivity_split"):
        layer[f"metrics.{name}_s"] = span_median(f"metrics.{name}")
    for name in ("verifier_cascade", "budget_route", "compare_to_frontier"):
        layer[f"routing.{name}_s"] = span_median(f"routing.{name}")
    layer["oracle.generate_s"] = setup_median("oracle.generate")
    layer["cli.import_s"] = median([h.wall_s for h in helps])
    layer["cli.synth_s"] = median([c.wall_s for c in pipe.synth_children])
    layer["cli.synth_rss_mb"] = max(c.rss_mb for c in pipe.synth_children)
    for command in COMMANDS:
        layer[f"cli.{command}_s"] = median([ch[command].wall_s for ch in all_children])
        layer[f"cli.{command}_rss_mb"] = max(ch[command].rss_mb for ch in all_children)
    layer.update(trace_metrics(spans, windows, walls, traced_walls))
    return e2e, layer
