"""One measured process: import harmonia.cli, then run the planned CLI calls.

Usage: python3 child.py <plan.json> <result.json>

The plan is {"steps": [{"argv": [...], "stdout": <path>}], "trace": bool}.
The result records the CLOCK_MONOTONIC instants at which harmonia.cli was
imported (the end of set-up) and at which the last call returned with its
output on disk, each call's exit code, the library versions
and, when tracing, every span.  A plan without steps measures set-up only.
"""

import contextlib
import json
import sys
import time


def main() -> int:
    plan_path, result_path = sys.argv[1:3]
    import harmonia.cli

    ready = time.monotonic()
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    missing: list = []
    if plan["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
        missing = install(tracer)

    codes = []
    for step in plan["steps"]:
        with open(step["stdout"], "w") as out, contextlib.redirect_stdout(out):
            try:
                codes.append(harmonia.cli.main(step["argv"]))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 2)
    done = time.monotonic()

    import numpy

    result = {
        "ready": ready,
        "done": done,
        "exit_codes": codes,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["main_thread"] = tracer.main_thread
        result["missing"] = missing
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
