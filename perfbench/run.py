"""Seeded benchmark of cotbudget: one workload per run, outputs checked.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-pipeline-2x2k, replay-20k, collect-mock (see perfbench/README.md).
The run builds its inputs from the seed, measures for about S seconds and
checks every output. It prints one result line per metric and, last, a JSON
object with keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are
its per-layer metrics, from a separate traced pass. Exit code 0 means every
check passed, 1 a failed check, 2 a usage error or a directory that holds no
cotbudget source tree.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

WORK_DIR = ".perfbench_work"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "cotbudget" / "__init__.py").is_file():
        return _fail(f"no cotbudget source tree at {root / 'src'}; run from a checkout root")
    if not spec_path.is_file():
        return _fail(f"no BENCHMARK.json in {root}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    sys.path.insert(0, str(root / "src"))

    from harness import Launcher

    # Started while this process is still small: see Launcher.
    launcher = Launcher()
    try:
        return _run(args, root, spec, launcher)
    finally:
        launcher.close()


def _run(args, root: Path, spec: dict, launcher) -> int:
    import cli_pipeline
    import collect_mock
    import replay
    from harness import RunState, Tracer

    workloads = {m.NAME: m for m in (cli_pipeline, replay, collect_mock)}
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{int(time.time())}"
    work = root / WORK_DIR / run_id
    work.mkdir(parents=True)
    tracer = Tracer(args.workload, run_id)
    state = RunState(
        root=root,
        work=work,
        workload=args.workload,
        seed=args.seed,
        seconds=seconds,
        trace=bool(args.trace),
        tracer=tracer,
        launcher=launcher,
    )
    try:
        e2e, per_layer = workloads[args.workload].run(state)
    finally:
        if args.trace:
            tracer.dump(root / WORK_DIR / f"spans-{run_id}.json")
        shutil.rmtree(work, ignore_errors=True)

    attempted = max(state.attempted, 1)
    # A failed check that no workload tied to an operation still fails one.
    failed = min(max(state.failed, 1 if state.problems else 0), attempted)
    e2e["ok_share"] = (attempted - failed) / attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = per_layer if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing and not args.trace:
        raise RuntimeError("workload did not measure: " + ", ".join(missing))
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = "  (not measured on this workload)" if m["name"] not in measured else ""
        print(f"{m['name']} = {value} {m['unit']}{note}")
    for line in state.notes:
        print(line)
    print(f"failed_share = {failed}/{attempted} = {failed / attempted} (failed operations / attempted)")
    for problem in state.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
