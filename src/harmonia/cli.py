"""Command-line entry point.

Wires the searches, the classifier, the bound checks, the lemma grids, and
the induction traces to reproducible file outputs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 checkpoint
mismatch, 4 I/O error (such as an unwritable --out or a full disk).  Result
data goes to --out when given (stdout otherwise); the fixed one-line summary
is always the last line on stdout; progress goes to stderr only.  Alongside
every --out file a <out>.manifest.json records the command line, config
digest, version, wall time, counts, and the output's sha256, so reruns can be
audited without rereading the data.  The parser is built once per process,
so repeated main() calls in one process skip rebuilding it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import __version__
from .bounds import render_big, verify_bounds
from .classify import (
    CLASS_FLAG_NAMES,
    classify,
    classify_all,
    format_factorization,
    ordered_members,
)
from .induction import theorem_trace
from .lemmas import (
    scan_cook_grid,
    scan_divisibility_grid,
    scan_hb_grid,
    scan_pre_cook_grid,
)
from .search import (
    CheckpointMismatch,
    SearchConfig,
    count_table,
    json_digest,
    search_anarchy_pairs,
    search_pairs,
    search_triples,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_CHECKPOINT = 3
EXIT_IO = 4

CSV_HEADER = "M,N,factor_M,factor_N,gcd_M_sigmaN,gcd_sigmaM_N"

_KIND_BY_COMMAND = {
    "harmonious": "harmonious",
    "unitary": "unitary_harmonious",
    "amicable": "amicable",
}


def _progress(line: str) -> None:
    print(line, file=sys.stderr)


def _deliver(
    lines: list[str],
    out: str | None,
    argv: list,
    config_digest: str,
    counts: dict,
    started: float,
) -> None:
    """Write result lines to --out (platform-independent bytes) or stdout,
    and drop the manifest next to the file."""
    blob = ("\n".join(lines) + "\n").encode() if lines else b""
    if out is None:
        sys.stdout.write(blob.decode())
        return
    with open(out, "wb") as fh:
        fh.write(blob)
    manifest = {
        "argv": argv,
        "config_digest": config_digest,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 3),
        "counts": counts,
        "outputs": {out: hashlib.sha256(blob).hexdigest()},
    }
    with open(out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _csv_lines(records) -> list[str]:
    lines = [CSV_HEADER]
    for r in records:
        m, n = r.members
        lines.append(
            f"{m},{n}"
            f",{format_factorization(r.factorizations[0])}"
            f",{format_factorization(r.factorizations[1])}"
            f",{r.g1},{r.g2}"
        )
    return lines


def _jsonl_lines(records) -> list[str]:
    return [r.to_json() for r in records]


# --- search -------------------------------------------------------------------


def _search_output(args, argv, records, digest: str, kind: str, bound: int, started) -> int:
    lines = _csv_lines(records) if args.fmt == "csv" else _jsonl_lines(records)
    _deliver(lines, args.out, argv, digest, {"found": len(records)}, started)
    print(f"kind={kind} bound={bound} found={len(records)}")
    return EXIT_OK


def cmd_search_tuples(args, parser: argparse.ArgumentParser, argv: list) -> int:
    started = time.perf_counter()
    if args.fmt == "csv" and args.k == 3:
        parser.error("--format csv is defined for pairs only; use jsonl for k=3")
    config = SearchConfig(
        bound=args.bound,
        kind=_KIND_BY_COMMAND[args.kind],
        k=args.k,
        filters=args.filters,
        allow_equal_members=None if args.allow_equal is None else args.allow_equal == "true",
        checkpoint_path=args.checkpoint,
        threads=args.threads,
    )
    if args.k == 2:
        records = search_pairs(config, progress=_progress if args.progress else None)
    else:
        records = search_triples(config)
    return _search_output(args, argv, records, config.digest(), config.kind, args.bound, started)


def cmd_search_anarchy(args, parser: argparse.ArgumentParser, argv: list) -> int:
    started = time.perf_counter()
    progress = _progress if args.progress else None
    records = search_anarchy_pairs(
        args.m_bound, args.n_bound, threads=args.threads, progress=progress
    )
    digest = json_digest({"op": "anarchy", "m_bound": args.m_bound, "n_bound": args.n_bound})
    return _search_output(args, argv, records, digest, "anarchy", args.n_bound, started)


# --- classify -------------------------------------------------------------------


def cmd_classify(args, parser: argparse.ArgumentParser, argv: list) -> int:
    record = classify(args.members)
    print(record.to_json())
    if any(record.flags[name] for name in CLASS_FLAG_NAMES):
        return EXIT_OK
    return EXIT_VERIFICATION


# --- report table2 ----------------------------------------------------------------


def cmd_table2(args, parser: argparse.ArgumentParser, argv: list) -> int:
    started = time.perf_counter()
    try:
        bounds = tuple(int(b) for b in args.bounds.split(","))
    except ValueError:
        parser.error(f"--bounds must be comma-separated integers, got {args.bounds!r}")
    rows = count_table(
        bounds, threads=args.threads, progress=_progress if args.progress else None
    )
    lines = ["bound,harmonious_count,coprime_count"]
    lines += [f"{r.bound},{r.harmonious},{r.coprime_harmonious}" for r in rows]
    digest = json_digest({"op": "table2", "bounds": list(bounds)})
    counts = {str(r.bound): r.harmonious for r in rows}
    _deliver(lines, args.out, argv, digest, counts, started)
    print(f"kind=table2 bound={bounds[-1]} found={rows[-1].harmonious}")
    return EXIT_OK


# --- bounds verify -----------------------------------------------------------------


def _render_holds(value: bool | None) -> str:
    if value is None:
        return "skip"
    return "pass" if value else "FAIL"


def _bound_summary(report) -> str:
    return (
        f"members={list(report.record.members)} K={report.record.K} "
        f"main={_render_holds(report.main_holds)} "
        f"borho={_render_holds(report.borho_holds)} "
        f"borho_star={_render_holds(report.borho_star_holds)}"
    )


def cmd_bounds_verify(args, parser: argparse.ArgumentParser, argv: list) -> int:
    try:
        with open(args.input) as fh:
            payloads = [(n, json.loads(line)) for n, line in enumerate(fh, 1) if line.strip()]
    except OSError as exc:
        parser.error(f"cannot read --input: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"--input is not JSONL: {exc}")
    tuples = []
    for lineno, payload in payloads:
        members = payload.get("members") if isinstance(payload, dict) else None
        try:
            if not isinstance(members, list):
                raise ValueError(
                    f'expected {{"members": [integers, ...]}}, got {json.dumps(payload)[:80]}'
                )
            tuples.append(ordered_members(members))
        except ValueError as exc:
            parser.error(f"--input line {lineno}: {exc}")
    reports = [verify_bounds(record) for record in classify_all(tuples)]
    violations = 0
    for report in reports:
        print(_bound_summary(report))
        if not report.all_applicable_hold:
            violations += 1
    print(f"kind=bounds checked={len(reports)} violations={violations}")
    return EXIT_OK if violations == 0 else EXIT_VERIFICATION


# --- induction trace ---------------------------------------------------------------


def _render_int(value: int | None) -> str:
    if value is None:
        return "-"
    rendered = render_big(value)
    if isinstance(rendered, dict):
        return f"[{rendered['bits']}-bit]"
    return rendered


def cmd_induction_trace(args, parser: argparse.ArgumentParser, argv: list) -> int:
    theorem = theorem_trace(args.members)
    trace = theorem.trace
    if args.json:
        payload = {
            "trace": trace.to_json_dict(),
            "theorem": theorem.to_json_dict(),
        }
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for cert in trace.steps:
            absorbed = ",".join(f"{p}^{e}" for p, e in cert.absorbed)
            print(
                f"step={cert.step} v={cert.v} w={cert.w}"
                f" damping={','.join(map(str, cert.damping)) or '-'}"
                f" absorbed={absorbed or '-'}"
                f" carry_after={','.join(map(str, cert.carry_after)) or '-'}"
                f" lhs={_render_int(cert.lhs)}"
                f" bound={_render_int(cert.bound)}"
                f" structure={_render_holds(cert.structure_ok)}"
                f" bound_holds={_render_holds(cert.bound_holds)}"
                f" improved={_render_holds(cert.improved_holds)}"
            )
        print(
            f"aggregate sum_v={trace.sum_v} sum_w={trace.sum_w}"
            f" chain={_render_holds(trace.chain_holds)}"
            f" final_lhs={_render_int(trace.final_lhs)}"
            f" final_rhs_bits={trace.final_rhs_bits}"
            f" final={_render_holds(trace.final_holds)}"
        )
        print(
            f"theorem branch={theorem.branch}"
            f" branch_inequality={_render_holds(theorem.branch_inequality_holds)}"
            f" combined={_render_holds(theorem.combined_holds)}"
            f" identity={_render_holds(theorem.identity_holds)}"
            f" product={_render_int(trace.product)}"
            f" below_main_bound={_render_holds(theorem.product_below_main_bound)}"
        )
    ok = trace.all_hold and theorem.all_hold
    print(f"kind=induction steps={len(trace.steps)} verified={str(ok).lower()}")
    return EXIT_OK if ok else EXIT_VERIFICATION


# --- lemmas check -----------------------------------------------------------------


_LEMMAS = ("hb1", "hb2", "cook", "precook", "div")
# every lemma-specific flag of `lemmas check`: its default, the lemmas that
# read it (the others refuse it) and what it sets; the parser builds each
# flag, its help and the command's description from this table
_LEMMA_FLAGS = {
    "k_max": (2, ("hb1", "hb2", "cook"), "largest class count k; cook: sequence length"),
    "r_max": (3, ("hb1", "hb2"), "largest factor-slot count R"),
    "m_max": (12, ("hb1", "hb2", "cook"), "largest m_j; cook: largest entry value"),
    "coef_max": (6, ("hb1", "hb2", "cook"), "largest a_i and b_i; cook: largest denominator"),
    "members": ("64,173369889", ("div",), "the tuple whose unitary splits are scanned"),
    "dump_witnesses": (False, ("hb1", "hb2"), "print each hypothesis-holding instance as JSON"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def cmd_lemmas_check(args, parser: argparse.ArgumentParser, argv: list) -> int:
    for name, (default, lemmas, _) in _LEMMA_FLAGS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.lemma not in lemmas:
            parser.error(f"{_flag(name)} applies to --lemma {'/'.join(lemmas)} only")
    sink = None
    if args.dump_witnesses:
        sink = lambda witness: print(json.dumps(witness, sort_keys=True))  # noqa: E731
    if args.lemma in ("hb1", "hb2"):
        report = scan_hb_grid(
            args.lemma,
            args.k_max,
            args.r_max,
            args.m_max,
            args.coef_max,
            witness_sink=sink,
        )
    elif args.lemma == "cook":
        # the shared flag box maps onto the rational grid: --m-max caps the
        # entry value, --coef-max caps the denominator
        report = scan_cook_grid(args.k_max, value_max=args.m_max, den_max=args.coef_max)
    elif args.lemma == "precook":
        report = scan_pre_cook_grid()
    else:
        try:
            members = tuple(int(m) for m in args.members.split(","))
        except ValueError:
            parser.error(f"--members must be comma-separated integers, got {args.members!r}")
        report = scan_divisibility_grid(members)
    print(
        f"lemma={report.lemma} instances={report.instances}"
        f" hypotheses_held={report.hypotheses_held}"
        f" counterexamples={len(report.counterexamples)}"
        f" equalities={report.conclusion_equalities}"
        f" remark_violations={report.remark_violations}"
    )
    return EXIT_OK if report.clean else EXIT_VERIFICATION


# --- parser -------------------------------------------------------------------------


def _add_search_parser(sub, run: argparse.ArgumentParser) -> None:
    shared = argparse.ArgumentParser(add_help=False, parents=[run])
    shared.add_argument("--format", dest="fmt", choices=["csv", "jsonl"], default="jsonl")
    p = sub.add_parser(
        "search",
        help="enumerate pairs or triples of a class up to a bound",
        description=(
            "Results go to --out (with a manifest) or stdout; the final stdout "
            "line is always 'kind=<> bound=<> found=<>'."
        ),
    )
    ssub = p.add_subparsers(dest="kind", required=True)
    for command, kind in _KIND_BY_COMMAND.items():
        k = ssub.add_parser(command, parents=[shared], help=f"{kind} pairs or triples")
        k.add_argument(
            "--bound", type=int, required=True, help="largest member; pairs need bound < 2^30"
        )
        k.add_argument("--k", type=int, choices=[2, 3], default=2, help="tuple size")
        for name, tuples in (("coprime", "pairwise coprime"), ("anarchy", "anarchy")):
            k.add_argument(
                f"--{name}",
                dest="filters",
                action="append_const",
                const=name,
                help=f"keep {tuples} tuples only",
            )
        k.add_argument(
            "--allow-equal",
            choices=["true", "false"],
            default=None,
            help="override the kind's equal-members convention",
        )
        k.add_argument("--checkpoint", help="pairs only: checkpoint file; run files go beside it")
        k.set_defaults(handler=cmd_search_tuples, filters=[])
    a = ssub.add_parser(
        "anarchy", parents=[shared], help="sweep M <= --m-bound, N <= --n-bound for anarchy pairs"
    )
    a.add_argument("--m-bound", type=int, required=True, help="bound for the smaller member")
    a.add_argument("--n-bound", type=int, required=True, help="bound for the larger member")
    a.set_defaults(handler=cmd_search_anarchy)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonia",
        description="Search, classify, and verify harmonious-type integer tuples.",
    )
    parser.add_argument("--version", action="version", version=f"harmonia {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--out", help="output file; stdout when omitted")
    run.add_argument("--threads", type=int, default=0, help="worker threads (0 = auto)")
    run.add_argument("--progress", action="store_true", help="report progress on stderr")
    _add_search_parser(sub, run)

    p = sub.add_parser("classify", help="classify one tuple and print its record")
    p.add_argument("members", nargs="+", type=int, metavar="M")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("report", help="reproduce the count table")
    rsub = p.add_subparsers(dest="report_kind", required=True)
    t2 = rsub.add_parser("table2", parents=[run], help="pair counts per bound as CSV")
    t2.add_argument("--bounds", required=True, help="comma-separated ascending bounds")
    t2.set_defaults(handler=cmd_table2)

    p = sub.add_parser("bounds", help="verify explicit bounds over a result file")
    bsub = p.add_subparsers(dest="bounds_kind", required=True)
    bv = bsub.add_parser("verify", help="check every record in a JSONL result file")
    bv.add_argument("--input", required=True, help="JSONL file of tuple records")
    bv.set_defaults(handler=cmd_bounds_verify)

    p = sub.add_parser("induction", help="run and verify certificate traces")
    isub = p.add_subparsers(dest="induction_kind", required=True)
    tr = isub.add_parser("trace", help="execute the induction on one tuple")
    tr.add_argument("members", nargs="+", type=int, metavar="M")
    tr.add_argument("--json", action="store_true", help="emit the full trace as JSON")
    tr.set_defaults(handler=cmd_induction_trace)

    p = sub.add_parser("lemmas", help="exhaustive lemma grids")
    lsub = p.add_subparsers(dest="lemmas_kind", required=True)
    reads = {
        lemma: " ".join(_flag(n) for n, (_, lemmas, _) in _LEMMA_FLAGS.items() if lemma in lemmas)
        for lemma in _LEMMAS
    }
    lc = lsub.add_parser(
        "check",
        help="scan one lemma over a parameter box",
        description=(
            "; ".join(f"{lemma} reads {flags or 'no flag'}" for lemma, flags in reads.items())
            + ".  A flag that its lemma does not read is refused."
        ),
    )
    lc.add_argument("--lemma", required=True, choices=_LEMMAS)
    for name, (default, lemmas, what) in _LEMMA_FLAGS.items():
        # None marks an unset flag, so cmd_lemmas_check can refuse a set one
        kind = {"type": type(default)}
        if default is False:
            kind = {"action": "store_true", "default": None}
        lc.add_argument(
            _flag(name), help=f"{'/'.join(lemmas)} only: {what} (default {default})", **kind
        )
    lc.set_defaults(handler=cmd_lemmas_check)

    return parser


def main(argv: list | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser, argv)
    except CheckpointMismatch as exc:
        print(f"checkpoint mismatch: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
