"""Search oracles and determinism contracts.

The reference results here come from independent exhaustive scans: pure
Fraction double loops, blockwise integer cross-multiplication, and
sigma-class closure for amicable tuples.  None of them share code with the
join under test.
"""

import functools
import hashlib
import json
import math
import os
import tempfile
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from oracles import profile_of

import harmonia.search
from harmonia.arith import sieve_tables
from harmonia.classify import classify_all
from harmonia.cli import main as cli_main
from harmonia.search import (
    CheckpointMismatch,
    CountRow,
    SearchConfig,
    TRIPLE_BOUND_CAP,
    _abundancy_cap,
    _code_shift,
    _complement_keys,
    _each_segment,
    _emit_records,
    _key_index,
    _probe,
    _ratio_keys,
    _ratio_segment_runs,
    _segment_length,
    _segments,
    _sigma_cap,
    _sorted_run,
    count_table,
    json_digest,
    load_checkpoint,
    search_anarchy_pairs,
    search_pairs,
    search_triples,
)

TABLE2_SMALL = (
    (10, 1, 0),
    (100, 10, 0),
    (1000, 55, 0),
    (10**4, 252, 6),
    (10**5, 983, 30),
)

AMICABLE_1E4 = ((220, 284), (1184, 1210), (2620, 2924), (5020, 5564), (6232, 6368))


def harmonic_ratio(n):
    p = profile_of(n)
    return Fraction(p.n, p.sigma)


def unitary_ratio(n):
    p = profile_of(n)
    return Fraction(p.n, p.sigma_star)


def members_of(records):
    return [r.members for r in records]


def jsonl_of(records):
    return "\n".join(r.to_json() for r in records).encode()


# --- configuration ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="bound"):
        SearchConfig(bound=1)
    with pytest.raises(ValueError, match="kind"):
        SearchConfig(bound=10, kind="perfect")
    with pytest.raises(ValueError, match="k must be"):
        SearchConfig(bound=10, k=4)
    with pytest.raises(ValueError, match="filters"):
        SearchConfig(bound=10, filters={"odd"})
    with pytest.raises(ValueError, match="threads"):
        SearchConfig(bound=10, threads=-1)


def test_triple_config_refuses_checkpoint(tmp_path):
    # a triple search keeps no run files, so a checkpoint would silently
    # record nothing
    ck = tmp_path / "run.ck"
    with pytest.raises(ValueError, match="--checkpoint"):
        SearchConfig(bound=1000, k=3, checkpoint_path=str(ck))
    assert list(tmp_path.iterdir()) == []


def test_equal_member_conventions():
    assert SearchConfig(bound=10).equal_allowed
    assert SearchConfig(bound=10, kind="unitary_harmonious").equal_allowed
    assert not SearchConfig(bound=10, kind="amicable").equal_allowed
    assert SearchConfig(bound=10, kind="amicable", allow_equal_members=True).equal_allowed
    assert not SearchConfig(bound=10, allow_equal_members=False).equal_allowed


def test_config_digest_tracks_results_only(monkeypatch):
    base = SearchConfig(bound=100)
    assert base.digest() == SearchConfig(bound=100, threads=8).digest()
    assert base.digest() == SearchConfig(bound=100, checkpoint_path="x").digest()
    assert base.digest() != SearchConfig(bound=101).digest()
    assert base.digest() != SearchConfig(bound=100, filters={"coprime"}).digest()
    before = base.digest()
    monkeypatch.setattr(harmonia.search, "_segment_length", lambda bound: 2048)
    assert before != base.digest()


# --- pair oracles ------------------------------------------------------------


def test_pairs_match_fraction_oracle_1e3():
    oracle = [
        (m, n)
        for m in range(1, 1001)
        for n in range(m, 1001)
        if harmonic_ratio(m) + harmonic_ratio(n) == 1
    ]
    got = members_of(search_pairs(SearchConfig(bound=1000)))
    assert got == oracle
    assert len(got) == 55


def test_pairs_match_blockwise_integer_oracle_1e4():
    # M/sigma(M) + N/sigma(N) = 1  <=>  M*sigma(N) + N*sigma(M) = sigma(M)*sigma(N)
    bound = 10**4
    s = sieve_tables(1, bound)
    n = np.arange(1, bound + 1, dtype=np.int64)
    oracle = []
    for lo in range(0, bound, 512):
        hi = min(lo + 512, bound)
        m_blk = n[lo:hi, None]
        s_blk = s[lo:hi, None]
        lhs = m_blk * s[None, :] + n[None, :] * s_blk
        rhs = s_blk * s[None, :]
        rows, cols = np.nonzero((lhs == rhs) & (n[None, :] >= m_blk))
        oracle.extend(zip((rows + lo + 1).tolist(), (cols + 1).tolist()))
    oracle.sort()
    got = members_of(search_pairs(SearchConfig(bound=bound)))
    assert got == oracle
    assert len(got) == 252


def test_unitary_pairs_match_oracle_1e3():
    oracle = [
        (m, n)
        for m in range(1, 1001)
        for n in range(m, 1001)
        if unitary_ratio(m) + unitary_ratio(n) == 1
    ]
    got = members_of(search_pairs(SearchConfig(bound=1000, kind="unitary_harmonious")))
    assert got == oracle
    assert len(got) == 26
    assert got[:4] == [(6, 6), (6, 60), (6, 90), (14, 30)]


def test_amicable_pairs_match_blockwise_oracle_1e4():
    # sigma(M) = sigma(N) = M + N checked directly on sieve tables
    bound = 10**4
    s = sieve_tables(1, bound)
    n = np.arange(1, bound + 1, dtype=np.int64)
    oracle = []
    for lo in range(0, bound, 512):
        hi = min(lo + 512, bound)
        m_blk = n[lo:hi, None]
        s_blk = s[lo:hi, None]
        hit = (s_blk == s[None, :]) & (s_blk == m_blk + n[None, :]) & (n[None, :] > m_blk)
        rows, cols = np.nonzero(hit)
        oracle.extend(zip((rows + lo + 1).tolist(), (cols + 1).tolist()))
    oracle.sort()
    got = members_of(search_pairs(SearchConfig(bound=bound, kind="amicable")))
    assert got == oracle
    assert tuple(got) == AMICABLE_1E4


def test_amicable_pairs_match_published_counts():
    # OEIS A066539: 42 amicable pairs with smaller member <= 10^6, 108 with
    # it <= 10^7.  Every one of the 108 has N/M < 1.4, so a search to
    # 1.4 * 10^7, which holds both members of each, finds them all.
    got = members_of(search_pairs(SearchConfig(bound=14 * 10**6, kind="amicable")))
    assert sum(m <= 10**6 for m, _ in got) == 42
    upto_1e7 = [(m, n) for m, n in got if m <= 10**7]
    assert len(upto_1e7) == 108
    assert max(Fraction(n, m) for m, n in upto_1e7) < Fraction(14, 10)


def test_amicable_equal_members_are_the_perfect_numbers():
    got = members_of(
        search_pairs(SearchConfig(bound=10**4, kind="amicable", allow_equal_members=True))
    )
    extras = [p for p in got if p[0] == p[1]]
    assert extras == [(6, 6), (28, 28), (496, 496), (8128, 8128)]
    assert [p for p in got if p[0] != p[1]] == list(AMICABLE_1E4)


def test_harmonious_equal_member_convention():
    assert members_of(search_pairs(SearchConfig(bound=10))) == [(6, 6)]
    assert members_of(search_pairs(SearchConfig(bound=10, allow_equal_members=False))) == []


def test_table1_rows():
    records = search_pairs(SearchConfig(bound=10**5, filters={"coprime"}))
    assert len(records) == 30
    by_members = {r.members: r for r in records}
    assert by_members[(135, 3472)].g1 == 1 and by_members[(135, 3472)].g2 == 16
    assert by_members[(345, 38192)].g1 == 3 and by_members[(345, 38192)].g2 == 16
    assert by_members[(62992, 63855)].g1 == 16 and by_members[(62992, 63855)].g2 == 1
    assert all(r.flags["pairwise_coprime"] for r in records)
    assert all(r.flags["harmonious"] for r in records)


@functools.lru_cache(maxsize=None)
def full_join_pairs(bound, star):
    """Every (M <= N) pair from an unsplit join: all n keyed by n/sigma(n),
    all n probing with (sigma(n) - n)/sigma(n)."""
    s = sieve_tables(1, bound, star=star)
    n = np.arange(1, bound + 1, dtype=np.int64)
    g = np.gcd(n, s)
    num, den = n // g, s // g
    shift = int(s.max()).bit_length()
    keys = (num << shift) | den
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    # (s - n)/s shares the reduction of n/s
    comps = ((den - num) << shift) | den
    lo = np.searchsorted(sorted_keys, comps, side="left")
    hi = np.searchsorted(sorted_keys, comps, side="right")
    pairs = set()
    for i in np.flatnonzero(hi > lo).tolist():
        for j in order[lo[i] : hi[i]].tolist():
            pairs.add((min(i, j) + 1, max(i, j) + 1))
    return sorted(pairs)


@pytest.mark.parametrize(
    "kind, perfect_pair", [("harmonious", (6, 28)), ("unitary_harmonious", (6, 60))]
)
def test_half_plane_join_matches_full_join_1e6(kind, perfect_pair, monkeypatch):
    bound = 10**6
    want = full_join_pairs(bound, star=kind == "unitary_harmonious")
    # the derived segment length (125,000), then a shorter one
    for length in (None, 1 << 16):
        if length:
            monkeypatch.setattr(harmonia.search, "_segment_length", lambda bound: length)
        got = members_of(search_pairs(SearchConfig(bound=bound, kind=kind)))
        assert got == want
        # two perfect numbers are found from both sides of the split
        assert got.count(perfect_pair) == 1
        assert got.count((6, 6)) == 1
    distinct = members_of(
        search_pairs(SearchConfig(bound=bound, kind=kind, allow_equal_members=False))
    )
    assert distinct == [p for p in want if p[0] != p[1]]
    assert (6, 6) not in distinct and perfect_pair in distinct


@pytest.mark.parametrize("kind", ["harmonious", "unitary_harmonious"])
def test_multi_bucket_join_matches_full_join_1e6(kind, monkeypatch):
    # the keys at 10^6 take ~4 MB (harmonious) and ~1.1 MB (unitary), so
    # this target splits the join into 64 and 32 code-range buckets, each
    # probed by every segment's query slice
    bound = 10**6
    want = full_join_pairs(bound, star=kind == "unitary_harmonious")
    monkeypatch.setattr(harmonia.search, "_BUCKET_TARGET_BYTES", 1 << 16)
    for equal in (True, False):
        lines = []
        config = SearchConfig(bound=bound, kind=kind, allow_equal_members=equal)
        got = members_of(search_pairs(config, progress=lines.append))
        assert got == [p for p in want if equal or p[0] != p[1]]
        assert sum(line.startswith("joined bucket") for line in lines) >= 8


@pytest.mark.parametrize(
    "kind, skip",
    # harmonious at 3000 runs 3 segments and one bucket: its first three
    # slices are key slices, the next three query slices
    [("harmonious", 0), ("harmonious", 3), ("amicable", 0)],
)
def test_run_conservation_refuses_a_lost_row(kind, skip, monkeypatch):
    # a bucket or segment slice that loses one column must make the search
    # raise instead of dropping the pairs of that row
    real = harmonia.search._bucket_slice
    calls = []

    def lossy(run, lo_edge, hi_edge):
        part = real(run, lo_edge, hi_edge)
        calls.append(part.shape[1])
        return part[:, 1:] if len(calls) == skip + 1 else part

    monkeypatch.setattr(harmonia.search, "_bucket_slice", lossy)
    with pytest.raises(ArithmeticError, match="lost rows"):
        search_pairs(SearchConfig(bound=3000, kind=kind))
    assert calls[skip] > 0


@pytest.mark.parametrize(
    "kind, keys, queries",
    [("harmonious", 247_549, 452_874), ("unitary_harmonious", 70_034, 506_597)],
)
def test_query_prune_size_1e6(kind, keys, queries):
    # of the 752,454 (harmonious) and 929,969 (unitary) complement queries
    # with a nonzero numerator, those at or below b/a = 1024/5143 are dropped
    bound = 10**6
    shift = _code_shift(bound, _sigma_cap(bound))
    star = kind == "unitary_harmonious"
    assert _abundancy_cap(bound) == (5143, 1024)
    runs = [_ratio_segment_runs(lo, hi, bound, shift, star) for lo, hi in _segments(bound)]
    assert sum(r["keys"].shape[1] for r in runs) == keys
    assert sum(r["comps"].shape[1] for r in runs) == queries


def test_complement_key_invariant():
    for record in search_pairs(SearchConfig(bound=10**4)):
        m, n = record.members
        sm, sn = record.sigma
        assert 1 - Fraction(m, sm) == Fraction(n, sn)


# --- count table --------------------------------------------------------------


def test_count_table_small_frozen():
    rows = count_table(tuple(b for b, _, _ in TABLE2_SMALL))
    assert tuple((r.bound, r.harmonious, r.coprime_harmonious) for r in rows) == TABLE2_SMALL


def test_count_table_edges():
    assert count_table((2,)) == (CountRow(2, 0, 0),)
    assert count_table((10,)) == (CountRow(10, 1, 0),)


def test_count_table_validation():
    with pytest.raises(ValueError, match="at least one"):
        count_table(())
    with pytest.raises(ValueError, match="ascending"):
        count_table((100, 10))
    with pytest.raises(ValueError, match="ascending"):
        count_table((10, 10))
    with pytest.raises(ValueError, match=">= 2"):
        count_table((1, 10))


def test_count_table_matches_search_cardinalities():
    rows = count_table((300, 10**3))
    for row in rows:
        records = search_pairs(SearchConfig(bound=row.bound))
        assert row.harmonious == len(records)
        assert row.coprime_harmonious == sum(
            1 for r in records if r.flags["pairwise_coprime"]
        )


# --- determinism and run files -------------------------------------------------


def test_partition_independence(monkeypatch):
    # at segment length 1024 the amicable pair (5020, 5564) straddles the
    # segment edge at 5120, so its partner query resolves in another segment
    for kind, bound in (("harmonious", 5000), ("amicable", 10**4)):
        reference = None
        for seg in (1024, 4096, 1 << 22):
            monkeypatch.setattr(harmonia.search, "_segment_length", lambda bound: seg)
            config = SearchConfig(bound=bound, kind=kind)
            got = jsonl_of(search_pairs(config))
            reference = reference if reference is not None else got
            assert got == reference


def test_segment_length_follows_the_bound():
    want = {
        2: 1024,
        4096: 1024,
        10**6: 125000,
        10**7: 1250000,
        8 << 22: 1 << 22,
        2 * 10**8: 1 << 22,
    }
    assert {bound: _segment_length(bound) for bound in want} == want
    segs = _segments(10**7)
    assert [hi - lo + 1 for lo, hi in segs] == [1250000] * 8
    assert segs[0][0] == 1 and segs[-1][1] == 10**7


def test_thread_independence():
    reference = None
    for threads in (1, 2, 8):
        got = jsonl_of(search_pairs(SearchConfig(bound=10**4, threads=threads)))
        reference = reference if reference is not None else got
        assert got == reference


def test_failing_segment_cancels_the_rest():
    ran = []

    def work(i):
        ran.append(i)
        if i == 0:
            raise OSError("disk full")
        time.sleep(0.01)
        return i

    with pytest.raises(OSError, match="disk full"):
        list(_each_segment(work, range(100), threads=1))
    assert len(ran) <= 5


def test_segment_length_invariance_every_kind(monkeypatch):
    # the derived 3 segments of 1024 against one segment holding the bound
    for kind in ("harmonious", "unitary_harmonious", "amicable"):
        split = search_pairs(SearchConfig(bound=3000, kind=kind))
        with monkeypatch.context() as m:
            m.setattr(harmonia.search, "_segment_length", lambda bound: 4096)
            whole = search_pairs(SearchConfig(bound=3000, kind=kind))
        assert jsonl_of(whole) == jsonl_of(split)


def test_run_files_are_hashed_only_for_a_checkpoint(tmp_path, monkeypatch):
    hashed, written = [], []
    sha256_file = harmonia.search._sha256_file
    put = harmonia.search._FileRuns.put

    def hash_spy(path):
        hashed.append(os.path.basename(path))
        return sha256_file(path)

    def put_spy(store, index, name, run):
        written.append((index, name))
        put(store, index, name, run)

    monkeypatch.setattr(harmonia.search, "_sha256_file", hash_spy)
    monkeypatch.setattr(harmonia.search._FileRuns, "put", put_spy)
    # without a checkpoint: 4 segments, a keys and a comps run each, and no
    # digest anywhere
    search_pairs(SearchConfig(bound=4096))
    assert len(written) == 8 and hashed == []

    ck = tmp_path / "run.ck"
    search_pairs(SearchConfig(bound=4096, checkpoint_path=str(ck)))
    assert len(written) == 16
    assert sorted(hashed) == sorted(os.listdir(str(ck) + ".runs"))
    assert len(hashed) == 8


def test_runs_live_in_a_temporary_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    seen = []

    def look(line):
        seen.append({d: set(os.listdir(tmp_path / d)) for d in os.listdir(tmp_path)})

    # 3 segments of 1024, a keys and a comps run each
    search_pairs(SearchConfig(bound=3000), progress=look)
    assert len({d for dirs in seen for d in dirs}) == 1
    [(rundir, files)] = seen[-1].items()
    assert rundir.startswith("harmonia-runs-")
    assert files == {f"{name}-{i:06d}.npy" for name in ("keys", "comps") for i in range(3)}
    assert os.listdir(tmp_path) == []
    # a search that the key-packing guard refuses leaves nothing behind
    monkeypatch.setattr(harmonia.search, "_sigma_cap", lambda bound: bound)
    with pytest.raises(ArithmeticError, match="key packing"):
        search_pairs(SearchConfig(bound=3000))
    assert os.listdir(tmp_path) == []


def test_missing_temporary_directory_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    assert cli_main(["search", "harmonious", "--bound", "3000"]) == 4
    assert capsys.readouterr().err.startswith("error: ")


def test_checkpoint_resume_and_refusal(tmp_path):
    ck = str(tmp_path / "run.ck")
    config = SearchConfig(bound=4096, checkpoint_path=ck)
    first = jsonl_of(search_pairs(config))

    # completed checkpoint: rerun resumes past every segment, same result
    assert jsonl_of(search_pairs(config)) == first
    loaded, rows = load_checkpoint(ck)
    assert loaded.config_digest == config.digest()
    assert loaded.last_segment == len(rows) - 1 == 3

    # truncate to two completed segments: resume redoes the rest identically
    with open(ck) as fh:
        raw = json.load(fh)
    raw["runs"] = raw["runs"][:2]
    raw["last_segment"] = 1
    raw["partial_digest"] = json_digest(raw["runs"])
    with open(ck, "w") as fh:
        json.dump(raw, fh)
    assert jsonl_of(search_pairs(config)) == first

    # foreign config refuses
    with pytest.raises(CheckpointMismatch, match="belongs to config"):
        search_pairs(SearchConfig(bound=5000, checkpoint_path=ck))

    # tampered run file refuses
    victim = str(tmp_path / "run.ck.runs" / "keys-000000.npy")
    with open(victim, "r+b") as fh:
        fh.seek(-8, os.SEEK_END)
        fh.write(b"\x01\x02\x03\x04\x05\x06\x07\x08")
    with pytest.raises(CheckpointMismatch, match="does not match"):
        search_pairs(config)

    # corrupt checkpoint json refuses
    with open(ck, "w") as fh:
        fh.write("{not json")
    with pytest.raises(CheckpointMismatch, match="unreadable"):
        search_pairs(config)


def test_checkpoint_of_older_run_layout_is_refused(tmp_path):
    ck = str(tmp_path / "run.ck")
    config = SearchConfig(bound=4096, checkpoint_path=ck)
    search_pairs(config)
    # the digest payload from before the run layout entered it
    old_payload = {
        "bound": 4096,
        "kind": "harmonious",
        "k": 2,
        "filters": [],
        "allow_equal": True,
        "segment_length": 1024,
        "in_memory_limit": 10**7,
    }
    with open(ck) as fh:
        raw = json.load(fh)
    raw["config_digest"] = hashlib.sha256(
        json.dumps(old_payload, sort_keys=True).encode()
    ).hexdigest()
    with open(ck, "w") as fh:
        json.dump(raw, fh)
    with pytest.raises(CheckpointMismatch, match="belongs to config"):
        search_pairs(config)


def test_checkpoint_of_run_layout_2_is_refused(tmp_path, monkeypatch, capsys):
    # layout 2 kept every deficient-or-perfect query; its run files must not
    # be mixed into a run of the pruned layout
    ck = str(tmp_path / "run.ck")
    argv = ["search", "harmonious", "--bound", "4096", "--checkpoint", ck]
    with monkeypatch.context() as m:
        m.setattr(harmonia.search, "_RUN_LAYOUT", 2)
        assert cli_main(argv) == 0
    capsys.readouterr()
    assert cli_main(argv) == 3
    assert "belongs to config" in capsys.readouterr().err


def test_load_checkpoint_absent(tmp_path):
    assert load_checkpoint(str(tmp_path / "nope.ck")) is None


# --- anarchy sweep --------------------------------------------------------------


def test_anarchy_sub_bounds_empty():
    assert search_anarchy_pairs(100, 10**5) == []
    assert search_anarchy_pairs(2, 2) == []


def test_anarchy_validation():
    with pytest.raises(ValueError, match="m_bound <= n_bound"):
        search_anarchy_pairs(100, 10)
    with pytest.raises(ValueError, match="2 <= m_bound"):
        search_anarchy_pairs(1, 10)
    with pytest.raises(ValueError, match="threads must be >= 0"):
        search_anarchy_pairs(100, 10**4, threads=-3)


def test_anarchy_key_match_for_known_pair():
    # the sweep's matching arithmetic, probed directly at the real pair
    shift = _code_shift(2 * 10**8, _sigma_cap(2 * 10**8))
    ccode, owners = _complement_keys(
        np.array([64], dtype=np.int64), np.array([127], dtype=np.int64), shift, 2 * 10**8
    )
    code = _ratio_keys(
        np.array([173369889], dtype=np.int64),
        np.array([349491681], dtype=np.int64),
        shift,
    )
    assert owners.tolist() == [64]
    assert ccode.tolist() == code.tolist()


def odd_square(m):
    return m % 2 == 1 and math.isqrt(m) ** 2 == m


def parity_rule(m, n):
    """Every anarchy pair (m, n) has n odd or m an odd square."""
    return n % 2 == 1 or odd_square(m)


def swept_candidates(monkeypatch, m_bound, n_bound, segment_lengths=(None,)):
    """The candidate list that the anarchy sweep hands to _emit_records, the
    same under each segment length (None: the derived one)."""
    sent = []
    emit = harmonia.search._emit_records

    def spy(pairs, kind_flag, filters):
        sent.append(list(pairs))
        return emit(pairs, kind_flag, filters)

    with monkeypatch.context() as m:
        m.setattr(harmonia.search, "_emit_records", spy)
        for length in segment_lengths:
            if length:
                m.setattr(harmonia.search, "_segment_length", lambda bound: length)
            search_anarchy_pairs(m_bound, n_bound, threads=2)
    assert len(sent) == len(segment_lengths) and all(got == sent[0] for got in sent)
    return sent[0]


def test_anarchy_parity_rule_brute_force():
    # gcd(n, m*sigma(m)) = gcd(m, n*sigma(n)) = 1 over all 1 <= m, n <= 2000,
    # with sigma from divisor enumeration
    limit = 2000
    sigma = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        sigma[d::d] += d
    k = np.arange(1, limit + 1, dtype=np.int64)
    m, n = k[:, None], k[None, :]
    strangers = (np.gcd(n, m * sigma[m]) == 1) & (np.gcd(m, n * sigma[n]) == 1)
    allowed = (n % 2 == 1) | np.array([odd_square(v) for v in k.tolist()])[:, None]
    assert not (strangers & ~allowed).any()
    # the odd-square branch is not empty: (9, 4) are strangers
    assert strangers[8, 3] and (strangers & (n % 2 == 0)).sum() > 100


@pytest.mark.parametrize("bound", [10**6, 10**7])
def test_anarchy_sweep_matches_pair_search_by_parity(bound, monkeypatch):
    # the 2^a * o decomposition: the harmonious pairs with m <= 1000 that
    # the parity rule keeps are exactly the sweep's candidates
    want = [
        r.members
        for r in search_pairs(SearchConfig(bound=bound))
        if r.members[0] <= 1000 and parity_rule(*r.members)
    ]
    assert any(n % 2 == 0 for _, n in want)
    assert swept_candidates(monkeypatch, 1000, bound) == want


def test_anarchy_sweep_keeps_an_even_partner_at_the_bound(monkeypatch):
    # 2016 = 2^5 * 63 and 63/sigma(63) = 63/104 in lowest terms, so at
    # n_bound = 2016 the scaled target's numerator is exactly n_bound / 2^5
    assert (9, 2016) in swept_candidates(monkeypatch, 9, 2016)
    assert (9, 2016) not in swept_candidates(monkeypatch, 9, 2015)


def test_anarchy_prefilter_drops_no_candidate(monkeypatch):
    # the unfiltered exact path: every n's ratio key probed into the small
    # side's complement keys
    m_bound, n_bound = 1000, 2 * 10**6
    shift = _code_shift(n_bound, _sigma_cap(n_bound))
    sigma = sieve_tables(1, n_bound)
    n = np.arange(1, n_bound + 1, dtype=np.int64)
    comps = _sorted_run(*_complement_keys(n[:m_bound], sigma[:m_bound], shift, n_bound))
    n_col, m_col = _probe(_key_index(comps[0]), comps[1], _ratio_keys(n, sigma, shift), n)
    keep = n_col >= m_col
    exact = sorted(set(zip(m_col[keep].tolist(), n_col[keep].tolist())))
    assert len(exact) > 100
    # the sweep sends the exact pairs that the parity rule keeps, and every
    # pair the rule removes fails anarchy
    kept = [pair for pair in exact if parity_rule(*pair)]
    removed = [pair for pair in exact if not parity_rule(*pair)]
    assert len(kept) == 44 and len(removed) == 420
    assert not any(r.flags["anarchy"] for r in classify_all(removed))
    assert swept_candidates(monkeypatch, m_bound, n_bound, (1024, 1 << 17)) == kept


# --- triples ---------------------------------------------------------------------


def triple_oracle(bound, ratio):
    ratios = [None] + [ratio(n) for n in range(1, bound + 1)]
    out = []
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            partial = ratios[a] + ratios[b]
            if partial >= 1:
                continue
            for c in range(b, bound + 1):
                if partial + ratios[c] == 1:
                    out.append((a, b, c))
    return out


def test_triples_match_oracle_at_130():
    oracle = triple_oracle(130, harmonic_ratio)
    got = members_of(search_triples(SearchConfig(bound=130, k=3)))
    assert got == oracle
    assert got == [(120, 120, 120)]


def test_triples_distinct_variant():
    got = search_triples(SearchConfig(bound=130, k=3, allow_equal_members=False))
    assert got == []


def test_triples_empty_at_6():
    assert search_triples(SearchConfig(bound=6, k=3)) == []


def test_unitary_triples_match_oracle_at_90():
    oracle = triple_oracle(90, unitary_ratio)
    got = members_of(
        search_triples(SearchConfig(bound=90, k=3, kind="unitary_harmonious"))
    )
    assert got == oracle


# (count, sha256 of the JSON list of member lists) of the harmonious triples,
# frozen from the earlier per-first-member scan, which probed every
# (M1, M2) prefix and shares no window or anchor logic with the current search
HARMONIOUS_TRIPLES = {
    (10**4, True): (2074, "288c3abd1e4d0b4aabded51395e1b4fdd164d8f6ff856091b243343bad8dee73"),
    (10**4, False): (1914, "08155411162e7f74304e841f97e7fb9580839a59801b7d127a09de45b97b3d2e"),
    (3 * 10**4, True): (11605, "005bdf0ebf7092a6e33200cdc8b5bb46c524c3aa8a01f04ea1923f32ddc42302"),
    (3 * 10**4, False): (11203, "f7e421851b4be6b04e48b729d5cb6710c84fac83455a4c12e264150ae4913f82"),
}

# every unitary harmonious triple up to 10^5, frozen from the same scan; none
# lies below 3*10^4
UNITARY_TRIPLES_1E5 = (
    (2310, 2730, 79170),
    (8610, 43890, 99330),
    (13110, 30030, 30030),
    (18690, 46410, 46410),
    (30030, 35070, 79170),
    (30030, 37590, 67830),
    (30030, 50190, 99330),
)


@pytest.mark.parametrize("bound, equal", sorted(HARMONIOUS_TRIPLES))
def test_harmonious_triples_match_frozen_listing(bound, equal):
    config = SearchConfig(bound=bound, k=3, allow_equal_members=equal)
    got = [list(m) for m in members_of(search_triples(config))]
    count, digest = HARMONIOUS_TRIPLES[bound, equal]
    assert len(got) == count
    assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == digest


@pytest.mark.parametrize("equal", (True, False))
def test_unitary_triples_match_frozen_listing_1e5(equal):
    config = SearchConfig(
        bound=10**5, k=3, kind="unitary_harmonious", allow_equal_members=equal
    )
    got = members_of(search_triples(config))
    assert got == [t for t in UNITARY_TRIPLES_1E5 if equal or len(set(t)) == 3]
    assert len(got) == (7 if equal else 5)


def test_amicable_triples_match_class_oracle_1e4():
    bound = 10**4
    sigma = sieve_tables(1, bound).tolist()
    classes = defaultdict(list)
    for n, s in enumerate(sigma, start=1):
        classes[s].append(n)
    oracle = []
    for total, members in classes.items():
        present = set(members)
        for i, m1 in enumerate(members):
            for j in range(i + 1, len(members)):
                m2 = members[j]
                m3 = total - m1 - m2
                if m3 <= m2:
                    break
                if m3 in present:
                    oracle.append((m1, m2, m3))
    oracle.sort()
    got = members_of(search_triples(SearchConfig(bound=bound, k=3, kind="amicable")))
    assert got == oracle == [(1980, 2016, 2556)]


def test_triples_cap_refusal():
    with pytest.raises(ValueError, match="capped at bound"):
        search_triples(SearchConfig(bound=TRIPLE_BOUND_CAP + 1, k=3))


def test_tuple_size_routing():
    with pytest.raises(ValueError, match="k=2"):
        search_pairs(SearchConfig(bound=100, k=3))
    with pytest.raises(ValueError, match="k=3"):
        search_triples(SearchConfig(bound=100, k=2))


# --- guards ----------------------------------------------------------------------


def test_sigma_cap_dominates_true_maximum():
    for bound in (10, 100, 10**4, 10**5):
        assert _sigma_cap(bound) > int(sieve_tables(1, bound).max())


def test_abundancy_cap_dominates_true_maximum():
    for bound in (10, 100, 10**4, 10**5):
        a, b = _abundancy_cap(bound)
        for sigma in (sieve_tables(1, bound), sieve_tables(1, bound, star=True)):
            top = max(Fraction(int(s), n) for n, s in enumerate(sigma.tolist(), 1))
            assert top < Fraction(a, b)


def test_abundancy_cap_tripwire(monkeypatch, capsys):
    # at 10^4 the largest sigma is 34,560 and the largest sigma(n)/n 3.838:
    # a cap of 7/2 still packs every sigma but lies below that ratio, so
    # pass 1 refuses instead of letting the query prune drop pairs
    monkeypatch.setattr(harmonia.search, "_abundancy_cap", lambda bound: (7, 2))
    with pytest.raises(ArithmeticError, match="abundancy cap 7/2"):
        search_pairs(SearchConfig(bound=10**4))
    assert cli_main(["search", "harmonious", "--bound", "10000"]) == 1
    err = capsys.readouterr().err
    assert "abundancy cap 7/2" in err and "key packing" not in err
    # the packing check runs first: a segment whose sigma is too wide for
    # its codes is refused as such even when its keys reach the cap as well
    # (sigma(120)/120 = 3)
    monkeypatch.setattr(harmonia.search, "_abundancy_cap", lambda bound: (3, 1))
    monkeypatch.setattr(harmonia.search, "_sigma_cap", lambda bound: 16)
    with pytest.raises(ArithmeticError, match="key packing"):
        search_pairs(SearchConfig(bound=10**4))


def test_code_shift_overflow_refusal():
    with pytest.raises(ValueError, match="int64"):
        _code_shift(1 << 40, _sigma_cap(1 << 40))


def test_key_packing_guard_refuses_low_sigma_cap(monkeypatch):
    # a cap below the true sigma maximum would let packed codes collide
    monkeypatch.setattr(harmonia.search, "_sigma_cap", lambda bound: bound)
    with pytest.raises(ArithmeticError, match="key packing"):
        search_pairs(SearchConfig(bound=3000))
    with pytest.raises(ArithmeticError, match="key packing"):
        search_anarchy_pairs(10, 3000)
    # one segment holding the bound instead of the derived three
    monkeypatch.setattr(harmonia.search, "_segment_length", lambda bound: 4096)
    with pytest.raises(ArithmeticError, match="key packing"):
        search_pairs(SearchConfig(bound=3000))


def test_emit_revalidation_raises_on_bogus_candidate():
    with pytest.raises(ArithmeticError, match="re-validation"):
        _emit_records([(2, 3)], "harmonious", frozenset())


def _plant_false_positives(monkeypatch):
    """Let every search's candidate list also hold two non-harmonious pairs."""
    candidates = harmonia.search._candidate_tuples

    def planted(*cols):
        return sorted(candidates(*cols) + [(3, 4), (2, 3)])

    monkeypatch.setattr(harmonia.search, "_candidate_tuples", planted)


def test_false_positive_raises_through_every_search(monkeypatch, capsys):
    _plant_false_positives(monkeypatch)
    # the first failing candidate in sorted order is named
    first = r"candidate \(2, 3\) failed exact {} re-validation"
    searches = [
        (lambda: search_pairs(SearchConfig(bound=3000)), "harmonious"),
        (lambda: search_pairs(SearchConfig(bound=3000, kind="amicable")), "amicable"),
        (lambda: search_triples(SearchConfig(bound=2000, k=3)), "harmonious"),
        (lambda: search_triples(SearchConfig(bound=2000, k=3, kind="amicable")), "amicable"),
        (lambda: search_anarchy_pairs(10, 3000), "harmonious"),
    ]
    for search, kind in searches:
        with pytest.raises(ArithmeticError, match=first.format(kind)):
            search()
    assert cli_main(["search", "harmonious", "--bound", "3000"]) == 1
    assert "re-validation" in capsys.readouterr().err


def test_each_search_validates_once(monkeypatch, tmp_path):
    calls = []
    classify_all = harmonia.search.classify_all

    def counted(tuples):
        calls.append(len(tuples))
        return classify_all(tuples)

    monkeypatch.setattr(harmonia.search, "classify_all", counted)
    searches = [
        lambda: search_pairs(SearchConfig(bound=3000)),
        lambda: search_pairs(SearchConfig(bound=3000, kind="unitary_harmonious")),
        lambda: search_pairs(SearchConfig(bound=3000, kind="amicable")),
        lambda: search_pairs(SearchConfig(bound=3000, checkpoint_path=str(tmp_path / "c"))),
        lambda: search_triples(SearchConfig(bound=2000, k=3)),
        lambda: search_triples(SearchConfig(bound=2000, k=3, kind="amicable")),
        lambda: search_anarchy_pairs(64, 10**6),
        lambda: count_table([100, 3000]),
    ]
    for search in searches:
        calls.clear()
        search()
        assert len(calls) == 1
