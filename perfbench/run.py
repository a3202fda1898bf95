"""harmonia's benchmark: four fixed CLI workloads, closed loop, one caller.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each iteration is a fresh Python process (perfbench/child.py) that imports
harmonia.cli from ./src and calls harmonia.cli.main with --threads 2; the
next iteration starts only after the previous one has finished and its
output has been checked against perfbench/oracle.json.  Iterations repeat
while the next one still fits in --seconds (at least one runs).

--trace 0 prints the end-to-end metrics: the timings of the run's fastest
iteration (other tenants' load only ever adds time) and the medians of the
sizes and of set-up.
--trace 1 runs one untraced and one traced iteration and prints the
per-layer metrics of the traced one, with the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Every iteration's run directory under .perfbench_runs/ is deleted
when the iteration ends, passed or failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Plan  # noqa: E402

CHILD = HERE / "child.py"
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_SAMPLES = 5
# the whole run must end within 180 s; stop starting work well before
RUN_DEADLINE_S = 165.0
MB = 1 << 20

# metric names and units come from BENCHMARK.json, the benchmark's contract
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark cannot run here; it prints why and exits non-zero."""


@dataclass
class Outcome:
    """One iteration: timings from the child, resources from wait4."""

    ok: bool
    note: str
    setup_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    written_bytes: int = 0
    run_file_bytes: int = 0
    output_bytes: int = 0
    result: dict = field(default_factory=dict)


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _spawn(plan_path: Path, result_path: Path, log_path: Path, timeout: float):
    """Run child.py to completion; returns (exit code, rusage, spawn instant).
    Temporary files the program makes land in the run's ckpt/ directory, so
    they stay inside the checkout and are counted and deleted with it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(plan_path.parent / "ckpt"))
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(plan_path), str(result_path)],
            cwd=plan_path.parent,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=log,
        )
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, usage, started


def run_iteration(make, seed: int, trace: bool, timeout: float) -> Outcome:
    """Plan, run and check one iteration in a fresh run directory, which is
    deleted afterwards whatever happened."""
    RUNS_DIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR))
    try:
        work, ckpt = rundir / "work", rundir / "ckpt"
        work.mkdir()
        ckpt.mkdir()
        plan: Plan | None = make(random.Random(seed), work, ckpt) if make else None
        steps = []
        if plan is not None:
            for path, text in plan.inputs.items():
                Path(path).write_text(text)
            steps = [{"argv": s.argv, "stdout": str(work / s.stdout)} for s in plan.steps]
        plan_path, result_path = rundir / "plan.json", rundir / "result.json"
        plan_path.write_text(json.dumps({"steps": steps, "trace": trace}))
        code, usage, started = _spawn(plan_path, result_path, rundir / "child.log", timeout)
        if code != 0 or not result_path.exists():
            tail = (rundir / "child.log").read_text(errors="replace")[-2000:]
            return Outcome(False, f"child exited {code}: {tail}", 0.0)
        result = json.loads(result_path.read_text())
        out = Outcome(
            ok=True,
            note="ok",
            setup_s=result["ready"] - started,
            wall_s=result["done"] - result["ready"],
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss * 1024 / MB,
            result=result,
        )
        if plan is None:
            return out
        out.output_bytes = _tree_bytes(work)
        out.run_file_bytes = _tree_bytes(ckpt)
        out.written_bytes = out.output_bytes + out.run_file_bytes
        try:
            if any(c != 0 for c in result["exit_codes"]):
                raise CheckFailed(f"exit codes {result['exit_codes']}")
            plan.check(work)
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            out.ok, out.note = False, f"check failed: {exc}"
        return out
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "free_disk_gb": round(shutil.disk_usage(ROOT).free / (1 << 30), 2),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _emit(correct: bool, outcomes: list, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outcomes),
                "failed": sum(1 for o in outcomes if not o.ok),
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )


def _report_iteration(i: int, o: Outcome) -> None:
    print(
        f"iteration {i}: {o.note.splitlines()[0]} wall_s={o.wall_s:.3f} "
        f"cpu_s={o.cpu_s:.3f} peak_rss_mb={o.peak_rss_mb:.1f} setup_s={o.setup_s:.3f} "
        f"written_mb={o.written_bytes / MB:.3f}",
        flush=True,
    )
    if not o.ok:
        print(o.note, file=sys.stderr)


def bench(workload_name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (ROOT / "src" / "harmonia" / "cli.py").is_file():
        raise BenchError(f"no harmonia sources under {ROOT / 'src'}; run from a checkout")
    workload = WORKLOADS[workload_name]
    began = time.monotonic()
    facts = machine_facts()
    if shutil.disk_usage(ROOT).free < workload.min_free_bytes:
        raise BenchError(
            f"refusing to run {workload_name}: {facts['free_disk_gb']} GiB free under "
            f"{ROOT}, it needs {workload.min_free_bytes / (1 << 30):.2f} GiB"
        )
    # this seed's inputs and work volume; the paths are placeholders
    preview = workload.make(random.Random(seed), RUNS_DIR / "work", RUNS_DIR / "ckpt")
    print(f"workload {workload_name} seed={seed} {preview.describe}")

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.monotonic() - began)

    # set-up: one warm-up process (fills the page cache and, unless
    # PYTHONDONTWRITEBYTECODE is set, __pycache__), then the samples
    setup = []
    for i in range(SETUP_SAMPLES + 1):
        o = run_iteration(None, seed, False, remaining())
        if not o.ok:
            raise BenchError(f"set-up process failed: {o.note}")
        if i:
            setup.append(o.setup_s)
    facts["numpy"] = o.result["numpy"]
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()), flush=True)

    outcomes: list[Outcome] = []
    if trace:
        for traced in (False, True):
            outcomes.append(run_iteration(workload.make, seed, traced, remaining()))
            _report_iteration(len(outcomes), outcomes[-1])
        plain, traced_run = outcomes
        metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        if traced_run.result.get("missing"):
            print(f"trace targets not found: {traced_run.result['missing']}", file=sys.stderr)
        if "spans" in traced_run.result:
            metrics.update(
                layer_metrics(traced_run.result["spans"], traced_run.result["main_thread"])
            )
        metrics["cli.output_bytes"] = traced_run.output_bytes
        metrics["trace.untraced_wall_s"] = plain.wall_s
        metrics["trace.traced_wall_s"] = traced_run.wall_s
        metrics["trace.overhead_s"] = traced_run.wall_s - plain.wall_s
        _emit(all(o.ok for o in outcomes), outcomes, metrics, PER_LAYER_UNITS)
        return 0

    while True:
        o = run_iteration(workload.make, seed, False, remaining())
        outcomes.append(o)
        if o.ok:
            setup.append(o.setup_s)
        _report_iteration(len(outcomes), o)
        typical = _median([x.wall_s + x.setup_s for x in outcomes if x.ok] or [seconds])
        elapsed = time.monotonic() - began
        if elapsed + typical > seconds or typical * 1.5 > remaining():
            break
    passed = [o for o in outcomes if o.ok]
    # failed iterations' timings are never reported as successes
    basis = passed or outcomes
    fastest = min(o.wall_s for o in basis)
    metrics = {
        "wall_s": fastest,
        "items_per_s": preview.items / fastest if fastest else 0.0,
        "cpu_s": min(o.cpu_s for o in basis),
        "peak_rss_mb": _median([o.peak_rss_mb for o in basis]),
        "written_mb": _median([o.written_bytes / MB for o in basis]),
        "setup_s": _median(setup),
    }
    print(
        f"summary iterations={len(outcomes)} failed_share={1 - len(passed) / len(outcomes):.3f} "
        f"run_file_mb={_median([o.run_file_bytes / MB for o in basis]):.3f} "
        f"median_wall_s={_median([o.wall_s for o in basis]):.6g} "
        f"median_cpu_s={_median([o.cpu_s for o in basis]):.6g}"
    )
    _emit(bool(passed) and len(passed) == len(outcomes), outcomes, metrics, END_TO_END_UNITS)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the finally blocks stop the child and
    # delete its run directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
