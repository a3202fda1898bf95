"""Outside-in tracing of harmonia, installed from the benchmark's side.

The program itself is not edited.  `install` replaces module attributes
(public functions, and the `np` / `hashlib` names that `harmonia.search`
calls through) with wrappers that record one span per call: name, start,
end, parent span and thread id, plus the work counts of that call.  Spans
are kept in memory and written out when the traced process ends;
`layer_metrics` folds them into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
import types

# Span tuple layout.
ID, NAME, START, END, PARENT, THREAD, COUNTS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, count=None):
        """Wrapper of `fn` that records a span named `name`.  `count(args,
        kwargs, result)` returns the call's work counts; it runs outside the
        timed interval."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer._record(span_id, name, start, end, parent, {})
                raise
            end = time.perf_counter()
            stack.pop()
            counts = count(args, kwargs, result) if count else {}
            tracer._record(span_id, name, start, end, parent, counts)
            return result

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span_id, name, start, end, parent, counts) -> None:
        # list.append is atomic under the interpreter lock, so worker
        # threads can record without a lock of their own
        self.spans.append((span_id, name, start, end, parent, threading.get_ident(), counts))


class _TimedHash:
    """hashlib object whose update() calls are spans."""

    def __init__(self, real, update) -> None:
        self._real = real
        self.update = update

    def __getattr__(self, name):
        return getattr(self._real, name)


def _module_proxy(real: types.ModuleType, overrides: dict) -> types.ModuleType:
    proxy = types.ModuleType(real.__name__)
    proxy.__getattr__ = lambda name: getattr(real, name)
    for name, value in overrides.items():
        setattr(proxy, name, value)
    return proxy


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _saved_bytes(args, kwargs, result) -> dict:
    path = os.fspath(_arg(args, kwargs, 0, "file"))
    if not path.endswith(".npy"):
        path += ".npy"
    return {"bytes": os.path.getsize(path), "files": 1}


def install(tracer: Tracer) -> list[str]:
    """Wrap harmonia's layer entry points; returns the targets it could not
    find (a renamed function shows up here instead of silently reading 0)."""
    import hashlib
    import importlib

    import numpy as np

    # sys.modules, not attribute access: the package re-exports functions
    # under module names (harmonia.classify is also a function)
    arith, bounds, classify, cli, induction, lemmas, search = (
        importlib.import_module(f"harmonia.{name}")
        for name in ("arith", "bounds", "classify", "cli", "induction", "lemmas", "search")
    )

    modules = [m for n, m in sys.modules.items() if n == "harmonia" or n.startswith("harmonia.")]
    missing: list[str] = []

    def everywhere(module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = tracer.wrap(name, fn, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapper)

    records = lambda a, k, r: {"records": len(r)}  # noqa: E731
    everywhere(arith, "factorize", "arith.factorize")
    everywhere(
        arith,
        "sieve_tables",
        "arith.sieve_tables",
        lambda a, k, r: {"integers": _arg(a, k, 1, "hi") - _arg(a, k, 0, "lo") + 1},
    )
    everywhere(classify, "classify", "classify.classify")
    everywhere(bounds, "tower", "bounds.tower")
    everywhere(bounds, "verify_bounds", "bounds.verify_bounds")
    everywhere(
        lemmas,
        "scan_hb_grid",
        "lemmas.scan_hb_grid",
        lambda a, k, r: {"instances": r.instances, "hypotheses_held": r.hypotheses_held},
    )
    everywhere(lemmas, "scan_cook_grid", "lemmas.scan_cook_grid")
    everywhere(
        induction,
        "run_induction",
        "induction.run_induction",
        lambda a, k, r: {"steps": len(r.steps)},
    )
    everywhere(induction, "theorem_trace", "induction.theorem_trace")
    everywhere(search, "search_pairs", "search.search_pairs", records)
    everywhere(search, "search_anarchy_pairs", "search.search_anarchy_pairs", records)
    everywhere(cli, "main", "cli.main")

    # search's own view of classify is the emit layer; the classify span
    # installed above nests inside it
    if hasattr(search, "classify"):
        search.classify = tracer.wrap("search.emit", search.classify)
    else:
        missing.append("harmonia.search.classify")

    if getattr(search, "np", None) is np:
        search.np = _module_proxy(
            np,
            {
                "gcd": tracer.wrap("search.keys", np.gcd, lambda a, k, r: {"items": _size(r)}),
                "argsort": tracer.wrap(
                    "search.sort", np.argsort, lambda a, k, r: {"items": _size(_arg(a, k, 0, "a"))}
                ),
                "searchsorted": tracer.wrap(
                    "search.probe",
                    np.searchsorted,
                    lambda a, k, r: {
                        "queries": _size(_arg(a, k, 1, "v")),
                        "haystack_rows": len(_arg(a, k, 0, "a")),
                    },
                ),
                "save": tracer.wrap("search.runs.write", np.save, _saved_bytes),
            },
        )
    else:
        missing.append("harmonia.search.np")

    if getattr(search, "hashlib", None) is hashlib:

        def sha256(*args, **kwargs):
            real = hashlib.sha256(*args, **kwargs)
            # update() takes its data positionally only
            update = tracer.wrap(
                "search.runs.hash", real.update, lambda a, k, r: {"bytes": memoryview(a[0]).nbytes}
            )
            return _TimedHash(real, update)

        search.hashlib = _module_proxy(hashlib, {"sha256": sha256})
    else:
        missing.append("harmonia.search.hashlib")
    return missing


# --- folding spans into per-layer metrics ------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _sum_counts(spans, key: str) -> float:
    return sum(s[COUNTS].get(key, 0) for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, main_thread: int) -> dict[str, float]:
    """Per-layer metrics from one traced process's spans.  busy_s is the
    summed duration of a layer's spans; work done in two threads at once
    counts twice, as CPU-busy time does."""
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)

    def busy(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str, key: str) -> float:
        return _sum_counts(by_name.get(name, ()), key)

    sieve_s = busy("arith.sieve_tables")
    sieve_n = total("arith.sieve_tables", "integers")
    hb_s = busy("lemmas.scan_hb_grid")
    hb_n = total("lemmas.scan_hb_grid", "instances")
    records = total("search.search_pairs", "records") + total(
        "search.search_anarchy_pairs", "records"
    )
    candidates = calls("search.emit")
    worker_roots = [
        (s[START], s[END]) for s in spans if s[THREAD] != main_thread and s[PARENT] is None
    ]
    search_wall = _covered(
        [
            (s[START], s[END])
            for name in ("search.search_pairs", "search.search_anarchy_pairs")
            for s in by_name.get(name, ())
        ]
    )
    worker_busy = sum(end - start for start, end in worker_roots)
    cli_self = sum(
        (s[END] - s[START]) - _covered([(c[START], c[END]) for c in children.get(s[ID], ())])
        for s in by_name.get("cli.main", ())
    )
    return {
        "arith.sieve_tables.busy_s": sieve_s,
        "arith.sieve_tables.calls": calls("arith.sieve_tables"),
        "arith.sieve_tables.integers": sieve_n,
        "arith.sieve_tables.integers_per_s": _ratio(sieve_n, sieve_s),
        "search.keys.busy_s": busy("search.keys"),
        "search.keys.items": total("search.keys", "items"),
        "search.sort.busy_s": busy("search.sort"),
        "search.sort.items": total("search.sort", "items"),
        "search.probe.busy_s": busy("search.probe"),
        "search.probe.queries": total("search.probe", "queries"),
        "search.probe.haystack_rows": total("search.probe", "haystack_rows"),
        "search.runs.write_s": busy("search.runs.write"),
        "search.runs.bytes_written": total("search.runs.write", "bytes"),
        "search.runs.hash_s": busy("search.runs.hash"),
        "search.runs.bytes_hashed": total("search.runs.hash", "bytes"),
        "search.runs.files": total("search.runs.write", "files"),
        "search.emit.busy_s": busy("search.emit"),
        "search.emit.candidates": candidates,
        "search.emit.records": records,
        "search.emit.useful_ratio": _ratio(records, candidates),
        "search.pool.parallelism": _ratio(worker_busy, search_wall),
        "arith.factorize.busy_s": busy("arith.factorize"),
        "arith.factorize.calls": calls("arith.factorize"),
        "classify.classify.busy_s": busy("classify.classify"),
        "classify.classify.calls": calls("classify.classify"),
        "lemmas.scan_hb_grid.busy_s": hb_s,
        "lemmas.scan_hb_grid.instances": hb_n,
        "lemmas.scan_hb_grid.hypotheses_held": total("lemmas.scan_hb_grid", "hypotheses_held"),
        "lemmas.scan_hb_grid.instances_per_s": _ratio(hb_n, hb_s),
        "lemmas.scan_cook_grid.busy_s": busy("lemmas.scan_cook_grid"),
        "bounds.tower.busy_s": busy("bounds.tower"),
        "bounds.tower.calls": calls("bounds.tower"),
        "induction.run_induction.busy_s": busy("induction.run_induction"),
        "induction.theorem_trace.busy_s": busy("induction.theorem_trace"),
        "induction.steps": total("induction.run_induction", "steps"),
        "bounds.verify_bounds.busy_s": busy("bounds.verify_bounds"),
        "bounds.verify_bounds.calls": calls("bounds.verify_bounds"),
        "cli.self_s": cli_self,
    }
