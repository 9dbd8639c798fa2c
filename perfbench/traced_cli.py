"""Run one cotbudget CLI command with a span around each call into a module.

Usage: python3 perfbench/traced_cli.py SPANS_OUT WORKLOAD RUN_ID -- ARGS...

ARGS are the arguments of ``python -m cotbudget.cli``. The spans are written
to SPANS_OUT as JSON when the command returns, whatever its exit code.
"""
from __future__ import annotations

import sys

from harness import Tracer
from instrument import instrument


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, workload, run_id = argv[:3]
    tracer = Tracer(workload, run_id)
    try:
        with tracer.span("cli.import"):
            import cotbudget.cli
        instrument(tracer)
        with tracer.span("cli.main"):
            return cotbudget.cli.main(argv[4:])
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
