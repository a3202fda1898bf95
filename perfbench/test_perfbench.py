"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    ORACLE,
    WORKLOADS,
    CheckFailed,
    Plan,
    Step,
    certify,
    pairs_file,
    table2_mem,
)


@pytest.fixture
def runs_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUNS_DIR", tmp_path / "runs")
    return tmp_path / "runs"


def test_seed_fixes_inputs(tmp_path):
    def argvs(seed):
        work, ckpt = tmp_path / "w", tmp_path / "c"
        plans = [w.make(random.Random(seed), work, ckpt) for w in WORKLOADS.values()]
        return [[a.replace(str(tmp_path), "") for a in s.argv] for p in plans for s in p.steps]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


def test_pre_existing_checkpoint_is_refused(tmp_path):
    (tmp_path / "checkpoint.json").write_text("{}")
    with pytest.raises(FileExistsError):
        pairs_file(random.Random(1), tmp_path, tmp_path)


def test_every_iteration_gets_a_fresh_checkpoint_and_is_deleted(runs_dir, monkeypatch):
    seen = []

    def fake_spawn(plan_path, result_path, log_path, timeout):
        argv = json.loads(plan_path.read_text())["steps"][0]["argv"]
        checkpoint = Path(argv[argv.index("--checkpoint") + 1])
        assert not checkpoint.exists() and not Path(f"{checkpoint}.runs").exists()
        Path(f"{checkpoint}.runs").mkdir()
        (Path(f"{checkpoint}.runs") / "keys-000000.npy").write_bytes(b"x" * 100)
        seen.append(checkpoint)
        log_path.write_text("killed")
        return 1, None, 0.0

    monkeypatch.setattr(run, "_spawn", fake_spawn)
    for _ in range(2):
        outcome = run.run_iteration(pairs_file, 1, False, 10.0)
        assert not outcome.ok
    assert seen[0] != seen[1]
    assert not any(p.exists() for p in seen)
    assert list(runs_dir.iterdir()) == []


def test_table2_check_rejects_a_wrong_row(tmp_path):
    plan = table2_mem(random.Random(3), tmp_path, tmp_path)
    (tmp_path / "stdout.txt").write_text("kind=table2 bound=10000000 found=13602\n")
    bounds = plan.steps[0].argv[plan.steps[0].argv.index("--bounds") + 1].split(",")
    oracle = {**ORACLE["table2_fixed"], **ORACLE["table2_extra"]}
    rows = ["bound,harmonious_count,coprime_count"]
    rows += [f"{b},{oracle[b][0]},{oracle[b][1]}" for b in bounds]
    (tmp_path / "table2.csv").write_text("\n".join(rows) + "\n")
    plan.check(tmp_path)
    rows[-1] = rows[-1].replace("631", "630")
    (tmp_path / "table2.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(CheckFailed):
        plan.check(tmp_path)


def test_certify_oracle_matches_the_program(runs_dir):
    outcome = run.run_iteration(certify, 5, False, 60.0)
    assert outcome.ok, outcome.note
    assert list(runs_dir.iterdir()) == []


def test_traced_child_records_layers(runs_dir):
    """A small file-backed search through the real child process."""

    def small(rng, work, ckpt):
        step = Step(
            ["search", "harmonious", "--bound", "100000", "--threads", "2",
             "--checkpoint", str(ckpt / "ck.json"), "--out", str(work / "o.jsonl")],
            "stdout.txt",
        )

        def check(work):
            if not (work / "stdout.txt").read_text().endswith("found=983\n"):
                raise CheckFailed("wrong count")

        return Plan([step], 10**5, check, {}, "small")

    outcome = run.run_iteration(small, 0, True, 60.0)
    assert outcome.ok, outcome.note
    assert outcome.result["missing"] == []
    m = layer_metrics(outcome.result["spans"], outcome.result["main_thread"])
    assert m["arith.sieve_tables.integers"] == 10**5
    assert m["search.emit.candidates"] == m["search.emit.records"] == 983
    assert m["search.runs.files"] == 2
    assert m["search.runs.bytes_hashed"] == m["search.runs.bytes_written"] > 0
    assert m["search.probe.busy_s"] > 0 and m["cli.self_s"] > 0
    assert outcome.run_file_bytes > 0
    assert list(runs_dir.iterdir()) == []


def test_self_time_subtracts_covered_child_time():
    tracer = Tracer()
    spans = [
        (0, "cli.main", 0.0, 10.0, None, 1, {}),
        (1, "search.search_pairs", 1.0, 4.0, 0, 1, {"records": 5}),
        (2, "search.search_pairs", 3.0, 6.0, 0, 1, {"records": 5}),
        (3, "arith.sieve_tables", 1.5, 3.5, None, 2, {"integers": 100}),
    ]
    m = layer_metrics(spans, main_thread=1)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["search.pool.parallelism"] == pytest.approx(2.0 / 5.0)
    assert m["arith.sieve_tables.integers_per_s"] == pytest.approx(50.0)

    calls = []
    outer = tracer.wrap("outer", lambda: inner())
    inner = tracer.wrap("inner", lambda: calls.append(1))
    outer()
    by_name = {s[1]: s for s in tracer.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][4] is None


def test_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "certify", "--seed", "1", "--seconds", "1"]) != 0
    assert not capsys.readouterr().out
