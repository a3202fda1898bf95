"""The four fixed CLI workloads: their seeded inputs and their output checks.

Every expected value comes from `oracle.json`: the counts frozen in the
repository's acceptance tests, plus values frozen from the seed commit's
output and cross-checked there (intermediate Table 2 rows against a plain
divisor-sum double loop up to 5000 and against the full 10^7 listing; the
sha256 of the in-memory 10^7 listing against the file-backed regime; the
hb1/hb2 counts of HB_BOX against check_hb1/check_hb2 called on every
instance of enumerate_instances).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ORACLE = json.loads((Path(__file__).with_name("oracle.json")).read_text())

THREADS = "2"
# The acceptance box (m 12, coef 6) takes ~16 s a pass, so a run would hold
# one sample; this box keeps k and R and takes ~0.1 s, so a run holds ~50
# passes and its fastest one is a steady figure (see README.md).
HB_BOX = ["--k-max", "2", "--r-max", "3", "--m-max", "6", "--coef-max", "3"]
COOK_BOX = ["--k-max", "2", "--m-max", "6", "--coef-max", "4"]
ANARCHY_PAIR = tuple(ORACLE["anarchy"]["members"])
# One 2^22-wide sieve segment [171966465, 176160768] holds the known anarchy
# pair's N, so every n_bound drawn from this range sweeps the same 42
# segments and the work volume stays within 1.6% across seeds.
ANARCHY_N_RANGE = (ANARCHY_PAIR[1], 42 << 22)
ANARCHY_M_RANGE = (900, 1000)
BOUNDS_SUBSET = 15
EXTRA_LADDER_BOUNDS = 3


class CheckFailed(Exception):
    """The program's output differs from the oracle."""


@dataclass(frozen=True)
class Step:
    """One harmonia.cli.main call; its stdout goes to work/<stdout>."""

    argv: list
    stdout: str


@dataclass(frozen=True)
class Plan:
    """A workload instance: CLI calls made in one process, the integers (or
    lemma instances) they cover, and the check of their outputs."""

    steps: list
    items: int
    check: Callable[[Path], None]
    # input files the benchmark writes into the run directory first
    inputs: dict
    describe: str


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, Path, Path], Plan]
    min_free_bytes: int


def _stdout_lines(work: Path, step: Step) -> list[str]:
    return (work / step.stdout).read_text().splitlines()


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def _last_line(work: Path, step: Step) -> str:
    lines = _stdout_lines(work, step)
    return lines[-1] if lines else ""


# --- table2-mem ----------------------------------------------------------------


def table2_mem(rng: random.Random, work: Path, ckpt: Path) -> Plan:
    fixed = ORACLE["table2_fixed"]
    extra = ORACLE["table2_extra"]
    chosen = rng.sample(sorted(extra, key=int), EXTRA_LADDER_BOUNDS)
    expected = {**fixed, **{b: extra[b] for b in chosen}}
    ladder = sorted(expected, key=int)
    out = work / "table2.csv"
    argv = ["report", "table2", "--bounds", ",".join(ladder), "--threads", THREADS]
    step = Step([*argv, "--out", str(out)], "stdout.txt")
    top = ladder[-1]

    def check(work: Path) -> None:
        rows = ["bound,harmonious_count,coprime_count"]
        rows += [f"{b},{expected[b][0]},{expected[b][1]}" for b in ladder]
        _expect("table2 rows", out.read_text().splitlines(), rows)
        summary = f"kind=table2 bound={top} found={fixed[top][0]}"
        _expect("summary", _last_line(work, step), summary)

    return Plan([step], int(top), check, {}, f"bounds={','.join(ladder)}")


# --- pairs-file ----------------------------------------------------------------


def pairs_file(rng: random.Random, work: Path, ckpt: Path) -> Plan:
    want = ORACLE["pairs_1e7"]
    bound = 10**7
    checkpoint = ckpt / "checkpoint.json"
    runs = Path(str(checkpoint) + ".runs")
    if checkpoint.exists() or runs.exists():
        raise FileExistsError(f"checkpoint {checkpoint} already exists; it would be resumed")
    out = work / "pairs.jsonl"
    step = Step(
        [
            "search", "harmonious", "--bound", str(bound), "--threads", THREADS,
            "--checkpoint", str(checkpoint), "--out", str(out),
        ],
        "stdout.txt",
    )

    def check(work: Path) -> None:
        _expect(
            "summary",
            _last_line(work, step),
            f"kind=harmonious bound={bound} found={want['found']}",
        )
        blob = out.read_bytes()
        digest = hashlib.sha256(blob).hexdigest()
        _expect("output sha256 (in-memory regime)", digest, want["jsonl_sha256"])
        records = [json.loads(line) for line in blob.splitlines()]
        _expect("records", len(records), want["found"])
        coprime = sum(1 for r in records if r["flags"]["pairwise_coprime"])
        _expect("pairwise_coprime records", coprime, want["pairwise_coprime"])

    return Plan([step], bound, check, {}, f"bound={bound} checkpoint=fresh per iteration")


# --- anarchy-sweep ---------------------------------------------------------------


def anarchy_sweep(rng: random.Random, work: Path, ckpt: Path) -> Plan:
    m_bound = rng.randint(*ANARCHY_M_RANGE)
    n_bound = rng.randint(*ANARCHY_N_RANGE)
    out = work / "anarchy.jsonl"
    step = Step(
        [
            "search", "anarchy", "--m-bound", str(m_bound), "--n-bound", str(n_bound),
            "--threads", THREADS, "--out", str(out),
        ],
        "stdout.txt",
    )

    def check(work: Path) -> None:
        _expect("summary", _last_line(work, step), f"kind=anarchy bound={n_bound} found=1")
        records = [json.loads(line) for line in out.read_text().splitlines()]
        _expect("members", [tuple(r["members"]) for r in records], [ANARCHY_PAIR])
        _expect("sigma", records[0]["sigma"], ORACLE["anarchy"]["sigma"])
        _expect("anarchy flag", records[0]["flags"]["anarchy"], True)

    return Plan([step], n_bound, check, {}, f"m_bound={m_bound} n_bound={n_bound}")


# --- certify ---------------------------------------------------------------------


def _lemma_fields(line: str) -> dict:
    fields = dict(part.split("=", 1) for part in line.split())
    return {k: (v if k == "lemma" else int(v)) for k, v in fields.items()}


def certify(rng: random.Random, work: Path, ckpt: Path) -> Plan:
    lemmas = ORACLE["lemmas"]
    subset = sorted(rng.sample(ORACLE["coprime_1e5"], BOUNDS_SUBSET)) + [list(ANARCHY_PAIR)]
    bounds_input = work.parent / "bounds_input.jsonl"
    boxes = {"hb1": HB_BOX, "hb2": HB_BOX, "cook": COOK_BOX, "precook": [], "div": []}
    lemma_steps = {
        name: Step(["lemmas", "check", "--lemma", name, *box], f"lemma-{name}.txt")
        for name, box in boxes.items()
    }
    induction = Step(["induction", "trace", *map(str, ANARCHY_PAIR)], "induction.txt")
    bounds = Step(["bounds", "verify", "--input", str(bounds_input)], "bounds.txt")
    items = sum(v["instances"] for v in lemmas.values())

    def check(work: Path) -> None:
        for name, step in lemma_steps.items():
            got = _lemma_fields(_last_line(work, step))
            _expect(f"{name} lemma", got["lemma"], name)
            want = {**lemmas[name], "counterexamples": 0, "remark_violations": 0}
            for key, value in want.items():
                _expect(f"{name} {key}", got[key], value)
        last = _last_line(work, induction)
        if not (last.startswith("kind=induction steps=") and last.endswith(" verified=true")):
            raise CheckFailed(f"induction trace: {last!r}")
        lines = _stdout_lines(work, bounds)
        _expect("bounds summary", lines[-1], f"kind=bounds checked={len(subset)} violations=0")
        _expect("bounds report lines", len(lines) - 1, len(subset))

    inputs = {bounds_input: "".join(json.dumps({"members": m}) + "\n" for m in subset)}
    return Plan(
        [*lemma_steps.values(), induction, bounds],
        items,
        check,
        inputs,
        f"bounds_subset={json.dumps(subset, separators=(',', ':'))}",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table2-mem", table2_mem, 0),
        # run files of one 10^7 pass take ~320 MB; refuse well before the
        # disk could fill
        Workload("pairs-file", pairs_file, 2 << 30),
        Workload("anarchy-sweep", anarchy_sweep, 0),
        Workload("certify", certify, 0),
    )
}
