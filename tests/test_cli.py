"""End-to-end CLI behavior: flags, exit codes, output formats, manifests."""

import dataclasses
import hashlib
import json
import re
import sys
import types

import pytest

import harmonia.cli
import harmonia.induction
from harmonia.cli import _LEMMA_FLAGS, CSV_HEADER, main
from harmonia.classify import classify
from harmonia.search import SearchConfig, search_pairs


def run_cli(*argv):
    """Exit code, treating argparse SystemExit like the console script would."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


# --- classify ---------------------------------------------------------------


def test_classify_anarchy_pair(capsys):
    assert run_cli("classify", "64", "173369889") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["members"] == [64, 173369889]
    assert payload["flags"]["harmonious"] and payload["flags"]["anarchy"]


def test_classify_amicable_pair(capsys):
    assert run_cli("classify", "220", "284") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"]["amicable"]
    assert payload["sigma"] == [504, 504]


def test_classify_no_class_is_exit_1(capsys):
    assert run_cli("classify", "2", "3") == 1
    assert json.loads(capsys.readouterr().out)["flags"]["harmonious"] is False


def test_classify_usage_errors(capsys):
    assert run_cli("classify", "six") == 2
    assert run_cli("classify", "0") == 2
    assert run_cli("classify", "0", "5") == 2
    assert "members must be positive integers, got 0" in capsys.readouterr().err
    assert run_cli("classify", "5", str(2**64)) == 2
    assert "factorize requires n < 2^64" in capsys.readouterr().err
    capsys.readouterr()


# --- search ------------------------------------------------------------------


def test_search_stdout_jsonl_and_summary(capsys):
    assert run_cli("search", "harmonious", "--bound", "1000") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == "kind=harmonious bound=1000 found=55"
    records = [json.loads(line) for line in lines[:-1]]
    assert len(records) == 55
    expected = [r.members for r in search_pairs(SearchConfig(bound=1000))]
    assert [tuple(r["members"]) for r in records] == expected


@pytest.mark.parametrize(
    "argv, progress",
    [
        (
            ("search", "harmonious", "--bound", "3000"),
            [f"wrote segment {i}/3" for i in (1, 2, 3)]
            + [f"joined bucket {b}/8" for b in range(1, 9)],
        ),
        (
            ("search", "anarchy", "--m-bound", "10", "--n-bound", "3000"),
            [f"swept segment {i}/3" for i in (1, 2, 3)],
        ),
    ],
    ids=["harmonious", "anarchy"],
)
def test_search_progress_goes_to_stderr_only(argv, progress, tmp_path, capsys):
    # --progress adds its lines to stderr and changes no byte of stdout or
    # of the --out listing
    runs = {}
    for flag in ((), ("--progress",)):
        out = tmp_path / f"listing{len(flag)}.jsonl"
        assert run_cli(*argv, *flag) == 0
        piped = capsys.readouterr()
        assert run_cli(*argv, *flag, "--out", str(out)) == 0
        written = capsys.readouterr()
        assert written.err == piped.err
        runs[flag] = (piped.out, written.out, out.read_bytes(), piped.err)
    plain, with_progress = runs[()], runs[("--progress",)]
    assert with_progress[:3] == plain[:3]
    assert plain[3] == "" and with_progress[3] == "".join(line + "\n" for line in progress)
    # the listing on stdout is the --out file's, before the summary line
    assert plain[1].startswith("kind=") and plain[0] == plain[2].decode() + plain[1]


def test_search_amicable_summary(capsys):
    assert run_cli("search", "amicable", "--bound", "10000") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == "kind=amicable bound=10000 found=5"
    assert json.loads(lines[0])["members"] == [220, 284]


def test_search_unitary(capsys):
    assert run_cli("search", "unitary", "--bound", "1000") == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[-1] == "kind=unitary_harmonious bound=1000 found=26"


def test_search_allow_equal_override(capsys):
    assert run_cli("search", "harmonious", "--bound", "10", "--allow-equal", "false") == 0
    assert capsys.readouterr().out.strip() == "kind=harmonious bound=10 found=0"


def test_search_out_file_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "pairs.jsonl")
    argv = ("search", "harmonious", "--bound", "1000", "--out", out)
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out.strip() == "kind=harmonious bound=1000 found=55"

    lines = open(out).read().strip().split("\n")
    assert len(lines) == 55
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["argv"] == list(argv)
    assert manifest["counts"] == {"found": 55}
    assert manifest["config_digest"] == SearchConfig(bound=1000).digest()
    import hashlib

    assert manifest["outputs"][out] == hashlib.sha256(open(out, "rb").read()).hexdigest()


def test_search_csv_round_trips_through_record(tmp_path, capsys):
    out = str(tmp_path / "t1.csv")
    assert (
        run_cli(
            "search", "harmonious", "--bound", "100000", "--coprime",
            "--format", "csv", "--out", out,
        )
        == 0
    )
    capsys.readouterr()
    lines = open(out).read().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 31
    assert lines[1] == "135,3472,3^3*5,2^4*7*31,1,16"
    for line in lines[1:]:
        m, n, factor_m, factor_n, g1, g2 = line.split(",")
        record = classify((int(m), int(n)))
        assert record.g1 == int(g1) and record.g2 == int(g2)
        from harmonia.classify import format_factorization

        assert format_factorization(record.factorizations[0]) == factor_m
        assert format_factorization(record.factorizations[1]) == factor_n


def test_search_csv_rejected_for_triples(capsys):
    assert run_cli("search", "harmonious", "--bound", "130", "--k", "3", "--format", "csv") == 2
    capsys.readouterr()


def test_search_csv_for_triples_refused_before_searching(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harmonia.cli, "search_triples", lambda *a, **k: calls.append(a))
    argv = ("search", "harmonious", "--bound", "20000", "--k", "3", "--format", "csv")
    assert run_cli(*argv) == 2
    assert calls == []
    capsys.readouterr()


def test_search_triples_via_cli(capsys):
    assert run_cli("search", "harmonious", "--bound", "130", "--k", "3") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == "kind=harmonious bound=130 found=1"
    assert json.loads(lines[0])["members"] == [120, 120, 120]


def test_search_anarchy_subcommand(capsys):
    assert run_cli("search", "anarchy", "--m-bound", "100", "--n-bound", "10000") == 0
    assert capsys.readouterr().out.strip() == "kind=anarchy bound=10000 found=0"


def test_search_anarchy_flag_validation(capsys):
    assert run_cli("search", "anarchy", "--m-bound", "100") == 2
    assert run_cli("search", "anarchy", "--bound", "100") == 2
    assert run_cli("search", "harmonious", "--m-bound", "100", "--bound", "50") == 2
    assert run_cli("search", "harmonious") == 2
    capsys.readouterr()
    # the anarchy sweep refuses a negative thread count like the pair search
    anarchy = ("search", "anarchy", "--m-bound", "100", "--n-bound", "10000")
    assert run_cli(*anarchy, "--threads", "-3") == 2
    assert "threads must be >= 0" in capsys.readouterr().err


def test_search_anarchy_rejects_pair_search_flags(tmp_path, capsys):
    ck = tmp_path / "run.ck"
    anarchy = ("search", "anarchy", "--m-bound", "100", "--n-bound", "10000")
    assert run_cli(*anarchy, "--checkpoint", str(ck)) == 2
    assert not ck.exists()
    assert run_cli(*anarchy, "--k", "3") == 2
    assert run_cli(*anarchy, "--allow-equal", "true") == 2
    assert run_cli(*anarchy, "--coprime") == 2
    assert run_cli(*anarchy, "--anarchy") == 2
    capsys.readouterr()


def test_no_segment_length_or_memory_limit_flags(capsys):
    for flag in ("--segment-length", "--in-memory-limit"):
        assert run_cli("search", "harmonious", "--bound", "100", flag, "1024") == 2
        assert run_cli("report", "table2", "--bounds", "10,100", flag, "1024") == 2
    kinds = ("harmonious", "unitary", "amicable", "anarchy")
    for command in (*(("search", kind) for kind in kinds), ("report", "table2")):
        capsys.readouterr()
        assert run_cli(*command, "--help") == 0
        help_text = capsys.readouterr().out
        # a help that lists no flags would pass the check below vacuously
        assert "--threads" in help_text, command
        assert "--segment-length" not in help_text and "--in-memory-limit" not in help_text


def test_search_help_lists_only_its_kinds_flags(capsys):
    def flags_of(*command):
        assert run_cli(*command, "--help") == 0
        return set(re.findall(r"--[\w-]+", capsys.readouterr().out))

    anarchy = flags_of("search", "anarchy")
    assert {"--m-bound", "--n-bound"} <= anarchy
    pair_only = {"--bound", "--k", "--allow-equal", "--coprime", "--anarchy"}
    assert not anarchy & pair_only
    for kind in ("harmonious", "unitary", "amicable"):
        pair = flags_of("search", kind)
        assert pair_only <= pair and "--m-bound" not in pair, kind
        # accepted but ignored, so not advertised
        assert "--checkpoint" not in pair, kind


def test_search_checkpoint_flag_is_ignored(tmp_path, capsys):
    # the benchmark's pairs-file command line: the flag changes no byte of
    # the output and leaves no file behind
    ck, out, plain = tmp_path / "ck.json", tmp_path / "ck.jsonl", tmp_path / "plain.jsonl"
    argv = ("search", "harmonious", "--bound", "4096", "--threads", "2")
    assert run_cli(*argv, "--checkpoint", str(ck), "--out", str(out)) == 0
    flagged = capsys.readouterr()
    assert run_cli(*argv, "--out", str(plain)) == 0
    unflagged = capsys.readouterr()
    assert out.read_bytes() == plain.read_bytes()
    assert flagged.out == unflagged.out
    assert not ck.exists() and not (tmp_path / "ck.json.runs").exists()
    assert "--checkpoint is ignored" in flagged.err
    assert "--checkpoint" not in unflagged.err


def test_search_anarchy_filter_flag(capsys):
    # --anarchy as a filter on the plain pair search
    assert run_cli("search", "harmonious", "--bound", "10000", "--anarchy") == 0
    assert capsys.readouterr().out.strip() == "kind=harmonious bound=10000 found=0"


def test_search_io_error_exit_4(tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.jsonl")
    assert run_cli("search", "harmonious", "--bound", "100", "--out", out) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x.jsonl" in err
    assert err.count("\n") == 1


def test_search_outputs_deterministic(tmp_path, capsys):
    files = []
    for name, threads in (("a", "1"), ("b", "2"), ("c", "8")):
        out = str(tmp_path / name)
        assert (
            run_cli(
                "search", "harmonious", "--bound", "10000",
                "--threads", threads, "--out", out,
            )
            == 0
        )
        files.append(open(out, "rb").read())
    capsys.readouterr()
    assert files[0] == files[1] == files[2]


# --- report table2 --------------------------------------------------------------


def test_table2_csv(capsys):
    assert run_cli("report", "table2", "--bounds", "10,100,1000") == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "bound,harmonious_count,coprime_count"
    assert out[1:4] == ["10,1,0", "100,10,0", "1000,55,0"]
    assert out[-1] == "kind=table2 bound=1000 found=55"


def test_table2_usage_errors(capsys):
    assert run_cli("report", "table2", "--bounds", "100,10") == 2
    assert run_cli("report", "table2", "--bounds", "ten") == 2
    assert run_cli("report", "table2") == 2
    capsys.readouterr()


def test_table2_out_manifest(tmp_path, capsys):
    out = str(tmp_path / "table2.csv")
    assert run_cli("report", "table2", "--bounds", "10,100", "--out", out) == 0
    capsys.readouterr()
    assert open(out).read() == "bound,harmonious_count,coprime_count\n10,1,0\n100,10,0\n"
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["counts"] == {"10": 1, "100": 10}


# --- bounds verify -----------------------------------------------------------------


def test_bounds_verify_over_results(tmp_path, capsys):
    out = str(tmp_path / "pairs.jsonl")
    run_cli("search", "harmonious", "--bound", "1000", "--out", out)
    capsys.readouterr()
    assert run_cli("bounds", "verify", "--input", out) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 56
    assert lines[-1] == "kind=bounds checked=55 violations=0"
    assert all("borho=pass" in line for line in lines[:-1])


def test_bounds_verify_bytes_are_frozen(tmp_path, capsys):
    # the 30 coprime pairs to 10^5 (main=skip: none is anarchy) and the
    # anarchy pair (main=pass)
    pairs = [r.members for r in search_pairs(SearchConfig(bound=10**5, filters={"coprime"}))]
    assert len(pairs) == 30
    path = tmp_path / "records.jsonl"
    lines = [json.dumps({"members": list(p)}) for p in (*pairs, (64, 173369889))]
    path.write_text("".join(line + "\n" for line in lines))
    assert run_cli("bounds", "verify", "--input", str(path)) == 0
    out = capsys.readouterr().out
    assert (out.count("main=skip"), out.count("main=pass")) == (30, 1)
    assert out.endswith("kind=bounds checked=31 violations=0\n")
    digest = "2c83410d7edaf572d494dd18a6506052986a6763d8be2f105711ac1639c02616"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bounds_verify_usage_errors(tmp_path, capsys):
    assert run_cli("bounds", "verify", "--input", str(tmp_path / "missing")) == 2
    bad = str(tmp_path / "bad.jsonl")
    open(bad, "w").write("{not json\n")
    assert run_cli("bounds", "verify", "--input", bad) == 2
    capsys.readouterr()


def test_bounds_verify_classifies_all_lines_at_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "records.jsonl"
    tuples = [[220, 284], [64, 173369889], [135, 3472], [6, 6], [2, 3]]
    path.write_text("".join(json.dumps({"members": t}) + "\n" for t in tuples))
    classify_all = harmonia.cli.classify_all
    calls = []

    def counted(batch):
        calls.append(list(batch))
        return classify_all(batch)

    monkeypatch.setattr(harmonia.cli, "classify_all", counted)
    # classify() goes through the module's classify_all, so a per-line
    # classify call would be counted too
    monkeypatch.setattr(sys.modules["harmonia.classify"], "classify_all", counted)
    assert run_cli("bounds", "verify", "--input", str(path)) == 0
    assert calls == [[tuple(sorted(t)) for t in tuples]]
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "members=[220, 284] K=4 main=skip borho=pass borho_star=skip"
    assert lines[-1] == "kind=bounds checked=5 violations=0"


def test_bounds_verify_refuses_malformed_records(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    shape = 'expected {"members": [integers, ...]}'
    # past the shape test, the validator's own message names the bad member
    bad = {
        '{"m": [1, 2]}': shape,
        "[220, 284]": shape,
        '{"members": 5}': shape,
        '{"members": [0, 5]}': "members must be positive integers, got 0",
        '{"members": [64, true]}': "members must be positive integers, got True",
        '{"members": []}': "need at least one member",
        '{"members": [5, 18446744073709551616]}': "factorize requires n < 2^64",
    }
    for line, message in bad.items():
        path.write_text('{"members": [220, 284]}\n' + line + "\n")
        assert run_cli("bounds", "verify", "--input", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--input line 2: {message}" in captured.err, line


# --- induction trace ----------------------------------------------------------------


def test_induction_trace_text(capsys):
    assert run_cli("induction", "trace", "64", "173369889") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("step=1 v=5 w=5 damping=2,3,7,11,19")
    assert "bound=[1024-bit]" in lines[0]
    assert lines[-1] == "kind=induction steps=1 verified=true"
    assert any("branch=chen_tang" in line for line in lines)


def test_induction_trace_json(capsys):
    assert run_cli("induction", "trace", "173369889", "64", "--json") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    payload = json.loads(lines[0])
    assert payload["trace"]["sum_v"] == 5 and payload["trace"]["sum_w"] == 5
    assert payload["trace"]["final"]["holds"] is True
    assert payload["theorem"]["branch"] == "chen_tang"
    assert payload["theorem"]["kernel"]["radical"] == 8778
    assert lines[-1] == "kind=induction steps=1 verified=true"


@pytest.mark.parametrize("members", [("64", "173369889"), ("173369889", "64")])
def test_induction_trace_bytes_are_frozen(members, capsys):
    frozen = {
        (): "cec3f8f8cf6de2654afee990b932342827da1ac03b31f4180fb662becabb0b20",
        ("--json",): "8394910dae1f9190ae0c6b1bff05084a6910a16ac3be9905eda4aa17541bb269",
    }
    for extra, digest in frozen.items():
        assert run_cli("induction", "trace", *members, *extra) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, extra


def test_induction_trace_json_prints_the_trace_once(monkeypatch, capsys):
    # with the threshold at 0 the worked pair takes the induction branch,
    # whose theorem embeds the trace: the top-level trace is then null
    monkeypatch.setattr(harmonia.induction, "_radical_threshold", lambda K: 0)
    steps = []
    to_json_dict = harmonia.induction.StepCertificate.to_json_dict
    monkeypatch.setattr(
        harmonia.induction.StepCertificate,
        "to_json_dict",
        lambda cert: steps.append(cert.step) or to_json_dict(cert),
    )
    assert run_cli("induction", "trace", "64", "173369889", "--json") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].count('"steps":') == 1
    payload = json.loads(lines[0])
    assert payload["trace"] is None
    assert payload["theorem"]["branch"] == "induction"
    assert payload["theorem"]["trace"]["sum_v"] == 5
    assert steps == [1]
    assert lines[-1] == "kind=induction steps=1 verified=true"


def test_induction_trace_validates_once(monkeypatch, capsys):
    validate = harmonia.induction._validated_members
    calls = []

    def counted(members):
        calls.append(members)
        return validate(members)

    monkeypatch.setattr(harmonia.induction, "_validated_members", counted)
    assert run_cli("induction", "trace", "64", "173369889") == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_induction_trace_rejects_non_anarchy(capsys):
    assert run_cli("induction", "trace", "220", "284") == 2
    assert run_cli("induction", "trace", "2", "3") == 2
    capsys.readouterr()


def test_bounds_verify_counts_a_failed_bound(tmp_path, monkeypatch, capsys):
    # a report whose borho verdict fails for the anarchy pair: its line
    # names the pair with borho=FAIL, and the summary counts one violation
    real = harmonia.cli.verify_bounds

    def failing(record):
        report = real(record)
        if record.members == (64, 173369889):
            return dataclasses.replace(report, borho_holds=False)
        return report

    monkeypatch.setattr(harmonia.cli, "verify_bounds", failing)
    path = tmp_path / "records.jsonl"
    path.write_text('{"members": [135, 3472]}\n{"members": [64, 173369889]}\n')
    assert run_cli("bounds", "verify", "--input", str(path)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("members=[135, 3472] ") and " borho=pass " in lines[0]
    assert lines[1].startswith("members=[64, 173369889] ") and " borho=FAIL " in lines[1]
    assert lines[2] == "kind=bounds checked=2 violations=1"


# --- lemmas check ------------------------------------------------------------------


def test_lemmas_check_hb1(capsys):
    assert (
        run_cli(
            "lemmas", "check", "--lemma", "hb1",
            "--k-max", "2", "--r-max", "2", "--m-max", "6", "--coef-max", "4",
        )
        == 0
    )
    out = capsys.readouterr().out.strip()
    assert out.startswith("lemma=hb1 instances=18240")
    assert "counterexamples=0" in out


def test_lemmas_check_dump_witnesses(capsys):
    assert (
        run_cli(
            "lemmas", "check", "--lemma", "hb2",
            "--k-max", "1", "--r-max", "1", "--m-max", "3", "--coef-max", "2",
            "--dump-witnesses",
        )
        == 0
    )
    lines = capsys.readouterr().out.strip().split("\n")
    summary = lines[-1]
    assert summary.startswith("lemma=hb2")
    held = int(summary.split("hypotheses_held=")[1].split()[0])
    witnesses = [json.loads(line) for line in lines[:-1]]
    assert len(witnesses) == held > 0


def test_lemmas_check_dump_witnesses_refused_off_hb(monkeypatch, capsys):
    scans = []
    for name in ("scan_cook_grid", "scan_pre_cook_grid", "scan_divisibility_grid"):
        monkeypatch.setattr(harmonia.cli, name, lambda *a, **k: scans.append(a))
    for lemma in ("cook", "precook", "div"):
        assert run_cli("lemmas", "check", "--lemma", lemma, "--dump-witnesses") == 2
    assert scans == []
    assert "hb1/hb2 only" in capsys.readouterr().err


def test_lemmas_check_refuses_empty_box(capsys):
    empty_boxes = [
        ("hb1", "--coef-max", "0"),
        ("hb1", "--m-max", "1"),
        ("hb2", "--k-max", "0"),
        ("hb2", "--r-max", "0"),
        ("cook", "--m-max", "1"),
        ("cook", "--k-max", "0"),
        ("cook", "--coef-max", "0"),
    ]
    for lemma, flag, value in empty_boxes:
        assert run_cli("lemmas", "check", "--lemma", lemma, flag, value) == 2, (lemma, flag)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: need k_max >= 1") == len(empty_boxes)


def test_lemmas_check_remaining_grids(capsys):
    assert run_cli("lemmas", "check", "--lemma", "precook") == 0
    out = capsys.readouterr().out.strip()
    assert "instances=45" in out and "counterexamples=0" in out

    assert run_cli("lemmas", "check", "--lemma", "div") == 0
    out = capsys.readouterr().out.strip()
    assert "instances=242" in out and "counterexamples=0" in out

    assert (
        run_cli(
            "lemmas", "check", "--lemma", "cook",
            "--k-max", "2", "--m-max", "3", "--coef-max", "2",
        )
        == 0
    )
    out = capsys.readouterr().out.strip()
    assert out.startswith("lemma=cook") and "counterexamples=0" in out


def test_lemmas_check_div_members_flag(capsys):
    assert run_cli("lemmas", "check", "--lemma", "div", "--members", "64,bad") == 2
    # 1/sigma(1) + 1/sigma(1) = 2: not harmonious, though no unitary split exists
    assert run_cli("lemmas", "check", "--lemma", "div", "--members", "1,1") == 2
    assert "error: not a harmonious tuple: ratio sum is 2\n" in capsys.readouterr().err
    assert run_cli("lemmas", "check", "--lemma", "div", "--members", "220,284") == 2
    assert "error: not an anarchy tuple: a cross gcd exceeds 1\n" in capsys.readouterr().err


def test_lemmas_check_refuses_an_oversized_cook_box(capsys):
    # sum over k <= 3 of C(131 + k, k)^2 over the 132 default grid values
    assert run_cli("lemmas", "check", "--lemma", "cook", "--k-max", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid holds 153806933764 instances, over budget 100000000" in captured.err


def test_lemmas_check_refuses_flags_of_other_lemmas(monkeypatch, capsys):
    scans = []
    for name in ("scan_hb_grid", "scan_cook_grid", "scan_pre_cook_grid", "scan_divisibility_grid"):
        monkeypatch.setattr(harmonia.cli, name, lambda *a, **k: scans.append(a))
    refused = [
        ("hb1", "--members", "1,1", "div only"),
        ("hb2", "--members", "64,173369889", "div only"),
        ("cook", "--members", "1,1", "div only"),
        ("precook", "--members", "1,1", "div only"),
        ("cook", "--r-max", "3", "hb1/hb2 only"),
        ("precook", "--r-max", "3", "hb1/hb2 only"),
        ("div", "--r-max", "3", "hb1/hb2 only"),
    ]
    for lemma in ("precook", "div"):
        for flag in ("--k-max", "--m-max", "--coef-max"):
            refused.append((lemma, flag, "99", "hb1/hb2/cook only"))
    for lemma, flag, value, rule in refused:
        assert run_cli("lemmas", "check", "--lemma", lemma, flag, value) == 2, (lemma, flag)
        assert f"{flag} applies to --lemma {rule}" in capsys.readouterr().err
    assert scans == []


def test_lemmas_check_help_states_the_flag_table(capsys):
    assert run_cli("lemmas", "check", "--help") == 0
    # argparse wraps the help, at spaces and after hyphens alike
    text = "".join(capsys.readouterr().out.split())
    for name, (default, lemmas, _) in _LEMMA_FLAGS.items():
        flag = "--" + name.replace("_", "-")
        rule = re.escape(f"{flag}") + "[A-Z_]*" + re.escape(f"{'/'.join(lemmas)}only:")
        assert re.search(rule + r"[^()]*" + re.escape(f"(default{default})"), text), flag
    for lemma in ("hb1", "hb2", "cook", "precook", "div"):
        reads = [
            "--" + name.replace("_", "-")
            for name, (_, lemmas, _) in _LEMMA_FLAGS.items()
            if lemma in lemmas
        ]
        assert f"{lemma}reads{''.join(reads) or 'noflag'}" in text, lemma


def test_lemmas_check_resolves_defaults_per_lemma(monkeypatch, capsys):
    # the defaults a lemma reads are the ones it always had
    scans = []
    report = types.SimpleNamespace(
        lemma="stub",
        instances=0,
        hypotheses_held=0,
        counterexamples=(),
        conclusion_equalities=0,
        remark_violations=0,
        clean=True,
    )
    for name in ("scan_hb_grid", "scan_cook_grid", "scan_divisibility_grid"):
        monkeypatch.setattr(harmonia.cli, name, lambda *a, **k: scans.append((a, k)) or report)
    for lemma in ("hb1", "cook", "div"):
        assert run_cli("lemmas", "check", "--lemma", lemma) == 0
    assert scans == [
        (("hb1", 2, 3, 12, 6), {"witness_sink": None}),
        ((2,), {"value_max": 12, "den_max": 6}),
        (((64, 173369889),), {}),
    ]
    capsys.readouterr()


# --- top level ---------------------------------------------------------------------


def test_unknown_command_is_usage_error(capsys):
    assert run_cli("frobnicate") == 2
    assert run_cli() == 2
    capsys.readouterr()


def test_version(capsys):
    assert run_cli("--version") == 0
    assert capsys.readouterr().out.startswith("harmonia ")
