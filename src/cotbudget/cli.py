"""Command-line pipeline: synth | collect | complexity | predict | bounds |
tradeoff | routing | correlate | adaptivity.

Every subcommand validates its inputs before writing anything, emits
plot-ready CSV/JSON with numbers fixed at 6 decimal places, and prints a
one-paragraph summary. Identical inputs and flags produce byte-identical
outputs. Exit codes: 0 success, 1 data error, 2 usage error, 3 endpoint
error. Each subcommand imports the modules it runs when it is called.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .errors import (
    CotBudgetError,
    EmptySelectionError,
    EndpointError,
    RecordSchemaError,
    utf8_bytes,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_ENDPOINT = 3


def _fmt(value) -> str:
    return f"{float(value):.6f}"


def _summary(text: str) -> None:
    """Print a command's summary line once its outputs are written.

    A character stdout cannot encode, such as a lone surrogate that a
    records file can carry in an id, is printed as its backslash escape,
    so the summary never fails a command whose outputs are complete.
    """
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding))


def _csv_field(text: str) -> str:
    """A CSV field, quoted (RFC 4180) only when it holds a comma, a quote, "\r" or "\n"."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    """Write a CSV, or raise a data error before opening it when UTF-8 cannot encode an id."""
    lines = [",".join(map(_csv_field, row)) + "\n" for row in [header, *rows]]
    Path(path).write_bytes(utf8_bytes(path, "".join(lines)))


def _write_json(path: str, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _same_file(a: str, b: str) -> bool:
    """Whether two output paths name one file: the same path once links and
    ``..`` are resolved, or, when both exist, one inode (a hard link)."""
    return os.path.realpath(a) == os.path.realpath(b) or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)
    )


def _load_matrix(args):
    from .records import read_matrices

    matrices = read_matrices(args.records)
    pairs = [p for p in matrices if args.model in (None, p[0]) and args.dataset in (None, p[1])]
    if len(pairs) == 1:
        return matrices[pairs[0]]
    if not pairs:
        raise EmptySelectionError(f"no records for model={args.model!r} dataset={args.dataset!r}")
    listing = "; ".join(f"{m}/{d}" for m, d in pairs)
    raise ValueError(f"--model and --dataset are required ({len(pairs)} pairs match: {listing})")


def _profile_for(args, matrix=None):
    from . import complexity

    if getattr(args, "complexity", None):
        return complexity.ComplexityProfile.load(args.complexity)
    if matrix is None:
        raise ValueError("either --records or --complexity is required")
    return complexity.profile(matrix)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    from . import oracle
    from .records import save_matrix

    taus_out = args.taus_out or str(Path(args.out).parent / "taus.json")
    if _same_file(args.out, taus_out):
        raise ValueError(f"the taus file {taus_out} is the --out file; name another with --taus-out")
    spec = oracle.random_spec(
        n=args.n,
        seed=args.seed,
        violation_rate=args.violation_rate,
        n_prompts=args.prompts,
    )
    if args.model or args.dataset:
        spec = dataclasses.replace(
            spec,
            model=args.model or spec.model,
            dataset=args.dataset or spec.dataset,
        )
    matrix, taus = oracle.generate(spec)
    count = save_matrix(matrix, args.out)
    oracle.save_taus(taus, matrix.question_ids, taus_out)
    n_inf = taus.count(oracle.INFINITE)
    _summary(
        f"synth: wrote {count} records for model={matrix.model} dataset={matrix.dataset} "
        f"(n={spec.n}, prompts={matrix.n_prompts}, "
        f"infinite_complexity={n_inf}, violation_rate={_fmt(spec.violation_rate)}, "
        f"seed={spec.seed}) to {args.out}; ground-truth complexities to {taus_out}."
    )
    return EXIT_OK


def cmd_complexity(args) -> int:
    prof = _profile_for(args, _load_matrix(args))
    prof.save(args.out)
    _summary(
        f"complexity: model={prof.model} dataset={prof.dataset} n={prof.n_questions}: "
        f"c_bar={_fmt(prof.c_bar)}, A*={_fmt(prof.a_star)}, "
        f"tau_bar_over_n={_fmt(prof.tau_bar_over_n)}, "
        f"tau_bar_finite_mean={_fmt(prof.tau_bar_finite_mean)}; wrote {args.out}."
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    from .metrics import validation_report

    matrix = _load_matrix(args)
    prof = _profile_for(args, matrix)
    report = validation_report(matrix, prof)
    payload = {
        "model": matrix.model,
        "dataset": matrix.dataset,
        "per_prompt": [
            {
                "prompt_id": r.prompt_id,
                "accuracy": round(float(r.accuracy), 6),
                "avg_tokens": round(float(r.avg_tokens), 6),
                "predicted_accuracy": round(float(r.predicted_accuracy), 6),
                "n_questions": r.n_questions,
            }
            for r in report.per_prompt
        ],
        "err": round(float(report.err), 6),
        "c_bar": round(float(report.c_bar), 6),
    }
    _write_json(args.out, payload)
    _summary(
        f"predict: model={matrix.model} dataset={matrix.dataset}: "
        f"Err={_fmt(report.err)} over {len(report.per_prompt)} prompts, "
        f"c_bar={_fmt(report.c_bar)}; wrote {args.out}."
    )
    return EXIT_OK


def cmd_bounds(args) -> int:
    from .bounds import frontier

    prof = _profile_for(args, _load_matrix(args) if args.records else None)
    curve = frontier(prof)
    n = curve.n
    # Int true division rounds correctly, as float(Fraction(p, n)) does.
    rows = [[_fmt(p / n), _fmt(m / n)] for p, m in zip(curve.budget_numerators, curve.solved)]
    _write_csv(args.out, ["avg_tokens", "accuracy"], rows)
    _summary(
        f"bounds: model={prof.model} dataset={prof.dataset} n={prof.n_questions}: "
        f"A*={_fmt(curve.a_star)}, T*(A*)={_fmt(curve.t_lossless)}, "
        f"{len(curve.solved)} breakpoints; wrote {args.out}."
    )
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    from .metrics import prompt_table

    matrix = _load_matrix(args)
    prof = _profile_for(args, matrix)
    results = prompt_table(matrix, prof)
    rows = [
        [r.prompt_id, _fmt(r.accuracy), _fmt(r.avg_tokens), _fmt(r.predicted_accuracy)]
        for r in results
    ]
    _write_csv(args.out, ["prompt_id", "accuracy", "avg_tokens", "predicted_accuracy"], rows)
    accs = [r.accuracy for r in results]
    toks = [r.avg_tokens for r in results]
    _summary(
        f"tradeoff: model={matrix.model} dataset={matrix.dataset}: {len(results)} prompts, "
        f"accuracy in [{_fmt(min(accs))}, {_fmt(max(accs))}], "
        f"avg_tokens in [{_fmt(min(toks))}, {_fmt(max(toks))}]; wrote {args.out}."
    )
    return EXIT_OK


def cmd_routing(args) -> int:
    from .bounds import frontier
    from .routing import budget_route, compare_to_frontier, verifier_cascade

    # Flags are checked before any file is read.
    if args.base_prompt and not args.fallback_prompt:
        raise ValueError("--base-prompt requires at least one --fallback-prompt")
    if args.fallback_prompt and not args.base_prompt:
        raise ValueError("--fallback-prompt requires --base-prompt")
    if args.budgets and not args.family:
        raise ValueError("--budgets requires --family")
    if args.family and not args.budgets:
        raise ValueError("--family requires --budgets")
    if not (args.base_prompt or args.budgets):
        raise ValueError(
            "nothing to do: give --base-prompt/--fallback-prompt and/or --budgets/--family"
        )
    matrix = _load_matrix(args)
    prof = _profile_for(args, matrix)
    curve = frontier(prof)
    outcomes = []
    if args.base_prompt:
        outcomes.append(verifier_cascade(matrix, [args.base_prompt, *args.fallback_prompt]))
    if args.budgets:
        budgets = _load_budgets(args.budgets)
        family = [p.strip() for p in args.family.split(",") if p.strip()]
        outcomes.append(budget_route(matrix, budgets, family))
    gaps = dict(compare_to_frontier(outcomes, curve))
    rows = [
        [o.policy_id, _fmt(o.accuracy), _fmt(o.avg_tokens), _fmt(gaps[o.policy_id])]
        for o in outcomes
    ]
    _write_csv(args.out, ["policy_id", "accuracy", "avg_tokens", "frontier_gap"], rows)
    parts = [
        f"{o.policy_id}: accuracy={_fmt(o.accuracy)}, avg_tokens={_fmt(o.avg_tokens)}, "
        f"frontier_gap={_fmt(gaps[o.policy_id])}"
        for o in outcomes
    ]
    _summary(
        f"routing: model={matrix.model} dataset={matrix.dataset}: "
        + "; ".join(parts)
        + f"; wrote {args.out}."
    )
    return EXIT_OK


def _load_budgets(path: str) -> dict[str, int]:
    """Budgets JSONL: one {question_id, budget} object per line, integer budgets.

    A bad line, or a byte that is not UTF-8, is a data error naming its
    1-based line number, as in load_records. Blank lines are skipped; a
    repeated question keeps its last budget.
    """
    from .inputs import INTEGER, NON_EMPTY_STRING, check_line, read_jsonl

    rules = (("question_id", NON_EMPTY_STRING), ("budget", INTEGER))
    budgets: dict[str, int] = {}
    for line_no, obj in read_jsonl(path):
        try:
            entry = check_line(obj, "budget", ("question_id", "budget"), rules)
        except RecordSchemaError as exc:
            raise RecordSchemaError(exc.reason, path=path, line_no=line_no) from exc
        budgets[entry["question_id"]] = entry["budget"]
    return budgets


def cmd_correlate(args) -> int:
    from .metrics import complexity_correlations

    matrix = _load_matrix(args)
    prof = _profile_for(args, matrix)
    table = complexity_correlations(matrix, prof)
    rows = [[pid, _fmt(rho), str(n)] for pid, rho, n in table]
    _write_csv(args.out, ["prompt_id", "spearman_rho", "n"], rows)
    usable = [(pid, rho) for pid, rho, _ in table if rho == rho]  # drop NaN
    if usable:
        top = max(usable, key=lambda x: x[1])
        detail = f"strongest correlation {top[0]} (rho={_fmt(top[1])})"
    else:
        detail = "no computable correlations"
    _summary(
        f"correlate: model={matrix.model} dataset={matrix.dataset}: "
        f"{len(table)} prompts, {detail}; wrote {args.out}."
    )
    return EXIT_OK


def cmd_adaptivity(args) -> int:
    from .metrics import adaptivity_split

    matrix = _load_matrix(args)
    split = adaptivity_split(matrix, args.split_prompt)
    rows = [
        [
            pid,
            _fmt(easy) if easy is not None else "",
            _fmt(hard) if hard is not None else "",
        ]
        for pid, (easy, hard) in split.items()
    ]
    _write_csv(args.out, ["prompt_id", "avg_tokens_easy", "avg_tokens_hard"], rows)
    both = [(e, h) for e, h in split.values() if e is not None and h is not None]
    adaptive = sum(1 for e, h in both if e < h)
    _summary(
        f"adaptivity: model={matrix.model} dataset={matrix.dataset} "
        f"split on {args.split_prompt}: {len(split)} prompts, "
        f"{adaptive}/{len(both)} with easy-side mean below hard-side mean; wrote {args.out}."
    )
    return EXIT_OK


def cmd_collect(args) -> int:
    from . import collect
    from .prompts import PromptCatalog, default_catalog

    failures_path = args.failures or str(Path(args.out).with_suffix(".failures.jsonl"))
    if _same_file(args.out, failures_path):
        raise ValueError(f"--failures {failures_path} is the --out file; name another file")
    questions = collect.load_questions(args.questions)
    catalog = PromptCatalog.load(args.catalog) if args.catalog else default_catalog()
    config = collect.SweepConfig(
        endpoint=args.endpoint,
        model=args.model,
        dataset=args.dataset,
        catalog=catalog,
        max_parallel=args.max_parallel,
        retries=args.retries,
        temperature=args.temperature,
        estimate_missing_usage=args.estimate_usage,
    )
    skip = collect.PairCells()
    append = False
    if args.resume and Path(args.out).exists():
        collect.drop_torn_tail(args.out)
        skip = collect.prior_cells(args.out, args.model, args.dataset)
        append = True
    if append and Path(failures_path).exists():
        collect.drop_torn_tail(failures_path)
        collect.drop_settled_failures(failures_path, questions, catalog, skip)
    with collect.JsonlWriter(args.out, append=append) as writer:
        with collect.JsonlWriter(failures_path, append=append) as failures:
            summary = collect.sweep(questions, config, writer, failures, skip=skip)
    if summary.succeeded == 0 and summary.failed > 0:
        raise EndpointError(
            f"all {summary.failed} attempted cells failed against {args.endpoint} "
            f"(see {failures_path})"
        )
    _summary(
        f"collect: model={args.model} dataset={args.dataset}: "
        f"{summary.requested} cells requested, {summary.skipped} skipped (resume), "
        f"{summary.succeeded} collected, {summary.failed} failed, "
        f"{summary.retries} retries; records to {args.out}, failures to {failures_path}."
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_records_args(p: argparse.ArgumentParser, records_required: bool = True) -> None:
    p.add_argument("--records", required=records_required, help="records JSONL file")
    p.add_argument("--model", default=None, help="model id filter")
    p.add_argument("--dataset", default=None, help="dataset id filter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotbudget",
        description="Token-complexity estimation, accuracy-compression bounds, "
        "and routing replay over chain-of-thought evaluation records.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate synthetic records with known complexities")
    p.add_argument("--out", required=True, help="output records JSONL")
    p.add_argument("--n", type=int, default=50, help="number of questions")
    p.add_argument("--prompts", type=int, default=31, help="number of prompts")
    p.add_argument("--seed", type=int, default=0, help="generation seed")
    p.add_argument("--violation-rate", type=float, default=0.0, help="per-cell flip probability")
    p.add_argument("--model", default=None, help="model id to stamp on records")
    p.add_argument("--dataset", default=None, help="dataset id to stamp on records")
    p.add_argument("--taus-out", default=None, help="ground-truth taus path (default: taus.json next to --out)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("complexity", help="estimate per-question token complexity")
    _add_records_args(p)
    p.add_argument("--out", required=True, help="output complexity JSON")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("predict", help="validate threshold predictions against actual accuracy")
    _add_records_args(p)
    p.add_argument("--complexity", default=None, help="precomputed complexity JSON")
    p.add_argument("--out", required=True, help="output validation JSON")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bounds", help="compute the oracle accuracy-compression frontier")
    _add_records_args(p, records_required=False)
    p.add_argument("--complexity", default=None, help="precomputed complexity JSON")
    p.add_argument("--out", required=True, help="output frontier CSV")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("tradeoff", help="per-prompt accuracy vs average token length")
    _add_records_args(p)
    p.add_argument("--complexity", default=None, help="precomputed complexity JSON")
    p.add_argument("--out", required=True, help="output tradeoff CSV")
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("routing", help="replay verifier and budget routing policies")
    _add_records_args(p)
    p.add_argument("--complexity", default=None, help="precomputed complexity JSON")
    p.add_argument("--base-prompt", default=None, help="verifier first-stage prompt id")
    p.add_argument(
        "--fallback-prompt",
        action="append",
        default=None,
        help="verifier fallback prompt id (repeat for a cascade)",
    )
    p.add_argument("--budgets", default=None, help="budgets JSONL ({question_id, budget})")
    p.add_argument("--family", default=None, help="comma-separated prompt ids for budget routing")
    p.add_argument("--out", required=True, help="output routing CSV")
    p.set_defaults(func=cmd_routing)

    p = sub.add_parser("correlate", help="per-prompt rank correlation of lengths with complexity")
    _add_records_args(p)
    p.add_argument("--complexity", default=None, help="precomputed complexity JSON")
    p.add_argument("--out", required=True, help="output correlation CSV")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("adaptivity", help="token lengths split by split-prompt success")
    _add_records_args(p)
    p.add_argument("--split-prompt", required=True, help="prompt id defining the easy/hard split")
    p.add_argument("--out", required=True, help="output adaptivity CSV")
    p.set_defaults(func=cmd_adaptivity)

    p = sub.add_parser(
        "collect",
        help="sweep a prompt catalog against a chat-completions endpoint",
        epilog="The API credential is read from the COTBUDGET_API_KEY "
        "environment variable and sent as a Bearer token when set.",
    )
    p.add_argument("--endpoint", required=True, help="chat-completions URL")
    p.add_argument("--model", required=True, help="model id to request and stamp on records")
    p.add_argument("--dataset", required=True, help="dataset id to stamp on records")
    p.add_argument("--questions", required=True, help="questions JSONL file")
    p.add_argument("--out", required=True, help="output records JSONL")
    p.add_argument("--catalog", default=None, help="prompt catalog JSON (default: built-in 31)")
    p.add_argument("--max-parallel", type=int, default=1, help="in-flight request limit")
    p.add_argument("--retries", type=int, default=3, help="retries per cell")
    p.add_argument("--temperature", type=float, default=0.0, help="sampling temperature")
    p.add_argument("--resume", action="store_true", help="skip cells already in --out")
    p.add_argument("--failures", default=None, help="failures sidecar path")
    p.add_argument(
        "--estimate-usage",
        action="store_true",
        help="estimate tokens as ceil(chars/4) when the endpoint omits usage",
    )
    p.set_defaults(func=cmd_collect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EndpointError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT
    except (CotBudgetError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
