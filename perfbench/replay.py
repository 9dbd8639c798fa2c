"""Workload replay-20k: library use in a notebook, everything in memory.

The parent runs this file again as a child process (``--child``), so the
replay's peak RSS is its own. The child builds a 20,000 x 31 matrix with
5% violations and a seeded 5% of cells absent outside the routing prompts,
then replays the public calls in a fixed order, checking each pass against
the independent reference before the next begins.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

NAME = "replay-20k"
N_QUESTIONS = 20_000
N_PROMPTS = 31
VIOLATION_RATE = 0.05
ABSENT_SHARE = 0.05
GRID_POINTS = 64
CASCADES = (("p00", "p15", "p30"), ("p05", "p25"))
FAMILY = ("p04", "p12", "p20", "p28")
SPLIT_PROMPT = "p00"
ROUTED = sorted({p for c in CASCADES for p in c} | set(FAMILY) | {SPLIT_PROMPT})
UNKNOWN_BUDGET_IDS = 200  # 1% of the questions
SETUP_REPEATS = 3


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def run(state) -> tuple[dict, dict]:
    from harness import median, python_argv, trace_metrics, within

    result_path = state.work / "replay-result.json"
    spans_path = state.work / "replay-spans.json"
    child = state.child("replay", python_argv(
        __file__, "--child", "--seed", str(state.seed), "--seconds", str(state.seconds),
        "--trace", str(int(state.trace)), "--out", str(result_path),
        "--spans", str(spans_path), "--run-id", state.tracer.run_id,
    ), span="bench.child")
    if not result_path.exists():
        state.operations(1, 1)
        state.problem("replay child wrote no result")
        return {}, {}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    state.operations(result["attempted"], result["failed"])
    for problem in result["problems"]:
        state.problem(problem)
    walls = [p["wall"] for p in result["passes"]]
    run_s = median(walls)
    state.note(f"replay_s = {run_s:.4f} s (median of {len(walls)} passes)")
    if not state.trace:
        return {"setup_s": median(result["setup_s"]), "run_s": run_s, "peak_rss_mb": child.rss_mb}, {}

    state.tracer.adopt(spans_path, child.span_id)
    windows = [tuple(w) for w in result["windows"]]
    spans = within(state.tracer.spans, windows)

    def call_median(name: str) -> float:
        return median([p["calls"][name] for p in result["passes"]])

    counts = result["counts"]
    layer = dict(counts)
    layer["complexity.profile_s"] = call_median("profile")
    layer["complexity.profile_cells_per_s"] = counts["count.cells_present"] / layer["complexity.profile_s"]
    layer["bounds.frontier_s"] = call_median("frontier")
    layer["bounds.alpha_star_ms"] = 1000 * call_median("alpha_star") / GRID_POINTS
    layer["bounds.t_star_ms"] = 1000 * call_median("t_star") / GRID_POINTS
    for name in ("validation_report", "complexity_correlations", "adaptivity_split"):
        layer[f"metrics.{name}_s"] = call_median(name)
    for name in ("verifier_cascade", "budget_route", "compare_to_frontier"):
        layer[f"routing.{name}_s"] = call_median(name)
    layer["oracle.generate_s"] = median(result["generate_s"])
    layer.update(trace_metrics(spans, windows, walls, [p["wall"] for p in result["traced"]]))
    return {}, layer


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


def build_inputs(seed: int):
    """(masked matrix, budgets, generate seconds): the workload's input, from the seed only."""
    import numpy as np
    from cotbudget import oracle
    from cotbudget.records import RunMatrix

    spec = oracle.random_spec(n=N_QUESTIONS, seed=seed, violation_rate=VIOLATION_RATE,
                              n_prompts=N_PROMPTS)
    start = time.perf_counter()
    full, taus = oracle.generate(spec)
    generate_s = time.perf_counter() - start
    rng = np.random.default_rng([seed, 20_000])
    absent = rng.random(full.tokens.shape) < ABSENT_SHARE
    absent[:, [full.prompt_ids.index(p) for p in ROUTED]] = False
    matrix = RunMatrix(full.model, full.dataset, full.question_ids, full.prompt_ids,
                       full.tokens, full.correct, ~absent)
    noise = np.exp(rng.normal(0.0, 0.35, size=N_QUESTIONS))
    fallback = rng.integers(20, 400, size=N_QUESTIONS)
    budgets = {
        q: int(max(1, round(t * z))) if math.isfinite(t) else int(f)
        for q, t, z, f in zip(matrix.question_ids, taus, noise, fallback)
    }
    for u in range(UNKNOWN_BUDGET_IDS):
        budgets[f"unknown{u:04d}"] = int(rng.integers(20, 400))
    return matrix, budgets, generate_s


class Expected:
    """Reference results for one input, computed once and outside the timing."""

    def __init__(self, matrix, budgets) -> None:
        import numpy as np

        import reference

        self.m = reference.Matrix(matrix.question_ids, matrix.prompt_ids, matrix.tokens,
                                  matrix.correct, matrix.present)
        est = reference.estimate(self.m)
        n = len(est.tau)
        self.n = n
        self.est = est
        self.c_stars = [est.c_star(i) for i in range(n)]
        self.agg = reference.aggregates(self.c_stars, est.tau)
        self.points = reference.frontier(est.tau, n)
        finite = est.finite_taus()
        self.prefix = np.cumsum(np.asarray(finite, dtype=np.int64))
        t_lossless = Fraction(sum(finite), n)
        self.budget_grid = [t_lossless * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
        self.alpha_grid = [self.agg.a_star * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
        self.alphas = [reference.alpha_star(self.prefix, n, b) for b in self.budget_grid]
        self.tstars = [reference.t_star(self.prefix, n, a) for a in self.alpha_grid]
        self.rows = reference.prompt_rows(self.m, est.tau)
        self.err = reference.err(self.rows)
        self.cascades = [reference.cascade(self.m, list(c)) for c in CASCADES]
        self.routed = reference.budget_route(self.m, budgets, list(FAMILY))
        self.spearman = reference.spearman_rows(self.m, est.tau)
        self.adaptivity = reference.adaptivity(self.m, SPLIT_PROMPT)
        self.finite_count = len(finite)

    def problems(self, name: str, got) -> list[str]:
        """What is wrong with one call's result; empty when it matches the reference."""
        import reference

        if name == "profile":
            wrong = sum(
                1
                for i, e in enumerate(got.entries)
                if (e.tau_hat, e.c_star, e.k_used)
                != (float(self.est.tau[i]), self.c_stars[i], int(self.est.k_used[i]))
            )
            ok = wrong == 0 and len(got.entries) == self.n and all(
                getattr(got, key) == getattr(self.agg, key)
                for key in ("c_bar", "a_star", "tau_bar_over_n", "tau_bar_finite_mean")
            )
            return [] if ok else [f"profile differs from the reference ({wrong} entries)"]
        if name == "validation_report":
            rows = [(r.prompt_id, r.accuracy, r.avg_tokens, r.predicted_accuracy, r.n_questions)
                    for r in got.per_prompt]
            want = [(r.prompt_id, r.accuracy, r.avg_tokens, r.predicted_accuracy, r.n_questions)
                    for r in self.rows]
            ok = rows == want and got.err == self.err and got.c_bar == self.agg.c_bar
            return [] if ok else ["validation_report differs from the reference"]
        if name == "frontier":
            out = reference.frontier_problems(list(got.breakpoints), self.est.tau, self.n)
            if list(got.breakpoints) != self.points:
                out.append("frontier breakpoints differ from the reference")
            return out
        if name == "alpha_star":
            return [] if got == self.alphas else ["alpha_star differs on the grid"]
        if name == "t_star":
            return [] if got == self.tstars else ["t_star differs on the grid"]
        if name == "verifier_cascade":
            ok = [(o.accuracy, o.avg_tokens) for o in got] == self.cascades
            return [] if ok else ["verifier_cascade differs from the numpy replay"]
        if name == "budget_route":
            ok = (got.accuracy, got.avg_tokens) == self.routed
            return [] if ok else ["budget_route differs from the numpy replay"]
        if name == "compare_to_frontier":
            outcomes = self.cascades + [self.routed]
            want = [reference.alpha_at(self.points, avg) - acc for acc, avg in outcomes]
            return [] if [g for _, g in got] == want else ["compare_to_frontier gaps differ"]
        if name == "complexity_correlations":
            ok = len(got) == len(self.spearman) and all(
                (p, c) == (wp, wc)
                and ((math.isnan(r) and math.isnan(wr)) or abs(r - wr) <= 1e-9)
                for (p, r, c), (wp, wr, wc) in zip(got, self.spearman)
            )
            return [] if ok else ["complexity_correlations differ from the reference"]
        if name == "adaptivity_split":
            return [] if got == self.adaptivity else ["adaptivity_split differs from the reference"]
        raise KeyError(name)


def replay_pass(matrix, budgets, expected: Expected) -> tuple[float, dict, dict, int]:
    """One pass of public calls: (wall, seconds per call name, results, public calls)."""
    from cotbudget import bounds, complexity, metrics, routing

    calls: dict[str, float] = {}
    results: dict = {}

    def timed(name, fn):
        start = time.perf_counter()
        try:
            results[name] = fn()
        except Exception as exc:  # a failing call is a measured outcome, not a crash
            results[name] = exc
        calls[name] = calls.get(name, 0.0) + time.perf_counter() - start

    def failed_input(*values):
        return any(isinstance(v, Exception) for v in values)

    start = time.perf_counter()
    timed("profile", lambda: complexity.profile(matrix))
    prof = results["profile"]
    timed("validation_report", lambda: metrics.validation_report(matrix, prof))
    timed("frontier", lambda: bounds.frontier(prof))
    timed("alpha_star", lambda: [bounds.alpha_star(prof, b) for b in expected.budget_grid])
    timed("t_star", lambda: [bounds.t_star(prof, a) for a in expected.alpha_grid])
    timed("verifier_cascade", lambda: [routing.verifier_cascade(matrix, list(c)) for c in CASCADES])
    timed("budget_route", lambda: routing.budget_route(matrix, budgets, list(FAMILY)))
    outcomes, routed, curve = results["verifier_cascade"], results["budget_route"], results["frontier"]
    timed("compare_to_frontier", lambda: routing.compare_to_frontier(
        [*outcomes, routed], curve) if not failed_input(outcomes, routed, curve) else None)
    timed("complexity_correlations", lambda: metrics.complexity_correlations(matrix, prof))
    timed("adaptivity_split", lambda: metrics.adaptivity_split(matrix, SPLIT_PROMPT))
    wall = time.perf_counter() - start
    return wall, calls, results, sum(CALL_COUNTS.get(name, 1) for name in results)


# Public calls behind one timed name, where there is more than one.
CALL_COUNTS = {"alpha_star": GRID_POINTS, "t_star": GRID_POINTS, "verifier_cascade": len(CASCADES)}


def child_main(args) -> int:
    from harness import Tracer
    from instrument import instrument

    tracer = Tracer(NAME, args.run_id)
    setup_s, generate_s = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        matrix, budgets, gen = build_inputs(args.seed)
        setup_s.append(time.perf_counter() - start)
        generate_s.append(gen)
    expected = Expected(matrix, budgets)

    problems: list[str] = []
    out = {"setup_s": setup_s, "generate_s": generate_s, "passes": [], "traced": [],
           "windows": [], "attempted": 0, "failed": 0}

    def one_pass(traced: bool) -> None:
        if traced:
            with tracer.span("bench.pass") as span_id:
                wall, calls, results, made = replay_pass(matrix, budgets, expected)
            window = next(s for s in tracer.spans if s.span_id == span_id)
            out["windows"].append([window.start, window.end])
        else:
            wall, calls, results, made = replay_pass(matrix, budgets, expected)
        out["traced" if traced else "passes"].append({"wall": wall, "calls": calls})
        out["attempted"] += made
        for name, got in results.items():
            found = [f"{name} raised {got!r}"] if isinstance(got, Exception) else (
                expected.problems(name, got) if got is not None else [f"{name} not run"]
            )
            if found:
                out["failed"] += CALL_COUNTS.get(name, 1)
                problems.extend(p for p in found if p not in problems)

    start = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    while not out["passes"] or time.perf_counter() - start < budget:
        one_pass(traced=False)
    if args.trace:
        instrument(tracer)
        for _ in out["passes"]:
            one_pass(traced=True)
        tracer.dump(Path(args.spans))

    out["problems"] = problems
    out["counts"] = {
        "count.cells_present": int(matrix.present.sum()),
        "count.tau_infinite": expected.n - expected.finite_count,
        "count.breakpoints": len(expected.points),
    }
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="replay-20k child process")
    parser.add_argument("--child", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    sys.exit(child_main(parser.parse_args()))
