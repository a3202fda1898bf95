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
import re
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from oracles import profile_of, scaled_targets_reference

import harmonia.search
from harmonia.arith import MAX_SIEVE_BOUND, SieveLanes, sieve_tables
from harmonia.classify import classify_all
from harmonia.cli import main as cli_main
from harmonia.search import (
    KINDS,
    CountRow,
    SearchConfig,
    TRIPLE_BOUND_CAP,
    _abundancy_cap,
    _anarchy_targets,
    _bucket_edges,
    _bucket_slice,
    _each_segment,
    _emit_records,
    _join,
    _joined_run,
    _key_index,
    _probe,
    _ratio_segment_runs,
    _segment_length,
    _segments,
    count_table,
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


def test_config_refuses_non_integral_bound_and_threads():
    # a float is refused even when it is whole, never truncated or rounded
    with pytest.raises(ValueError, match="^bound must be an integer, got 1000.0$"):
        SearchConfig(bound=1000.0)
    with pytest.raises(ValueError, match="^threads must be an integer, got 1.5$"):
        SearchConfig(bound=1000, threads=1.5)
    with pytest.raises(ValueError, match="^bound must be an integer, got '1000'$"):
        SearchConfig(bound="1000")
    with pytest.raises(ValueError, match="^threads must be >= 0, got -1$"):
        SearchConfig(bound=1000, threads=-1)
    with pytest.raises(ValueError, match="^k must be an integer, got 2.0$"):
        SearchConfig(bound=1000, k=2.0)
    # numpy integers are integral: they are read as Python ints
    config = SearchConfig(bound=np.int64(1000), threads=np.int32(2))
    assert (type(config.bound), type(config.threads)) == (int, int)
    assert config == SearchConfig(bound=1000, threads=2)
    # so their digest is the int's, and a manifest records the same one
    triple = SearchConfig(bound=1000, k=np.int64(3))
    assert triple.digest() == SearchConfig(bound=1000, k=3).digest()


def test_config_refuses_a_bare_string_as_filters():
    # a str is refused as a whole, not read as a collection of letters
    with pytest.raises(ValueError, match="^filters must be a collection of names.*'coprime'"):
        SearchConfig(bound=10, filters="coprime")
    assert SearchConfig(bound=10, filters=["coprime"]).filters == {"coprime"}


def test_equal_member_conventions():
    assert SearchConfig(bound=10).equal_allowed
    assert SearchConfig(bound=10, kind="unitary_harmonious").equal_allowed
    assert not SearchConfig(bound=10, kind="amicable").equal_allowed
    assert SearchConfig(bound=10, kind="amicable", allow_equal_members=True).equal_allowed
    assert not SearchConfig(bound=10, allow_equal_members=False).equal_allowed


def test_config_digest_tracks_results_only(monkeypatch):
    base = SearchConfig(bound=100)
    assert base.digest() == SearchConfig(bound=100, threads=8).digest()
    assert base.digest() != SearchConfig(bound=101).digest()
    assert base.digest() != SearchConfig(bound=100, filters={"coprime"}).digest()
    # the segment length never changes a result, so it is not in the digest
    before = base.digest()
    monkeypatch.setattr(harmonia.search, "_segment_length", lambda bound: 2048)
    assert before == base.digest()


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


@pytest.mark.parametrize("kind", ["harmonious", "unitary_harmonious"])
def test_join_buckets_are_thread_independent_1e6(kind, monkeypatch):
    # every bucket is one task on the segment pool: the records do not
    # depend on the thread count, at the 8-bucket floor and at many more
    # buckets, and the buckets are reported in order
    assert len(_bucket_edges(10**6, 0)) - 1 >= 8
    reference = None
    for target in (None, 1 << 16):
        if target:
            monkeypatch.setattr(harmonia.search, "_BUCKET_TARGET_BYTES", target)
        for threads in (1, 2, 3):
            lines = []
            config = SearchConfig(bound=10**6, kind=kind, threads=threads)
            got = jsonl_of(search_pairs(config, progress=lines.append))
            reference = reference if reference is not None else got
            assert got == reference
            joined = [line for line in lines if line.startswith("joined bucket")]
            n = len(joined)
            assert n > 8 if target else n >= 8
            assert joined == [f"joined bucket {b}/{n}" for b in range(1, n + 1)]


def planted_join(keys, queries):
    """The pairs that _join emits from one segment whose key and query runs
    hold the given (double, n) rows, at bound 2^30 - 1."""
    runs = {
        name: _joined_run(
            [
                (
                    np.array([d for d, _ in rows], dtype=np.float64).view(np.int64),
                    np.array([n for _, n in rows], dtype=np.int64),
                )
            ]
        )
        for name, rows in (("keys", keys), ("comps", queries))
    }
    counts = [{name: run.shape[1] for name, run in runs.items()}]
    return _join(lambda i, name: runs[name], counts, 2**30 - 1, True, 1, None).T.tolist()


def test_join_drops_an_equal_double_of_another_fraction():
    # the query q = 2^29 + 11 with sigma 2^30 - 3 has a complement x whose
    # double d also rounds y, a fraction with a denominator near 2^31 that
    # limit_denominator finds inside d's ulp: the key m/sigma(m) = y matches
    # q's query bit for bit, but only the rationals decide
    q, sigma_q = (1 << 29) + 11, (1 << 30) - 3
    x = Fraction(sigma_q - q, sigma_q)
    d = float(x)
    ulp = Fraction(math.ulp(d))
    y = (Fraction(d) + (ulp / 4 if x <= Fraction(d) else -ulp / 4)).limit_denominator(1 << 31)
    assert float(y) == d and y != x
    assert y.numerator < 2**30 and y.denominator < 2**33
    # beside it, the true pair (135, 3472): 105/240 = 3472/7936 = 7/16
    keys = [(y.numerator / y.denominator, y.numerator), (3472 / 7936, 3472)]
    queries = [((sigma_q - q) / sigma_q, q), (105 / 240, 135)]
    assert planted_join(keys, queries) == [[135, 3472]]


def flipped(d):
    """d with the lowest bit of its mantissa flipped."""
    return float((np.array([d]).view(np.int64) ^ 1).view(np.float64)[0])


@pytest.mark.parametrize(
    "keys, queries",
    [
        # both stored doubles of (135, 3472) one bit off 7/16
        ([(flipped(7 / 16), 3472)], [(flipped(7 / 16), 135)]),
        # a key whose double is no 3473/s: 3473 * 16/7 = 7938.3
        ([(7 / 16, 3473)], [(7 / 16, 135)]),
        # a query whose double is no (s - 136)/s: 136 * 16/9 = 241.8
        ([(7 / 16, 3472)], [(7 / 16, 136)]),
    ],
    ids=["flipped-bits", "key-without-sigma", "query-without-sigma"],
)
def test_join_refuses_a_double_that_no_sigma_gives_back(keys, queries):
    with pytest.raises(ArithmeticError, match="run is corrupt"):
        planted_join(keys, queries)


@pytest.mark.parametrize(
    "kind, name",
    [("harmonious", "keys"), ("harmonious", "comps"), ("amicable", "queries")],
)
def test_run_conservation_refuses_a_lost_row(kind, name, monkeypatch):
    # a bucket or segment slice that loses one column must make the search
    # raise instead of dropping the pairs of that row; the first nonempty
    # slice of a `name` run file loses one, whichever bucket, segment or
    # thread takes it
    real = harmonia.search._bucket_slice
    lock = threading.Lock()
    dropped = []

    def lossy(run, lo_edge, hi_edge):
        part = real(run, lo_edge, hi_edge)
        with lock:
            lose = (
                not dropped
                and part.shape[1] > 0
                and os.path.basename(run.filename).startswith(f"{name}-")
            )
            if lose:
                dropped.append(part.shape[1])
        return part[:, 1:] if lose else part

    monkeypatch.setattr(harmonia.search, "_bucket_slice", lossy)
    with pytest.raises(ArithmeticError, match="lost rows"):
        search_pairs(SearchConfig(bound=3000, kind=kind, threads=2))
    assert len(dropped) == 1


@pytest.mark.parametrize(
    "kind, name",
    [("harmonious", "keys"), ("harmonious", "comps"), ("amicable", "queries")],
)
def test_run_conservation_refuses_a_row_lost_at_save(kind, name, tmp_path, monkeypatch):
    # pass 2 checks its slices against the row counts that pass 1 reported
    # as it wrote the runs, not against the run files: the first nonempty
    # `name` run loses one column on its way to disk, and the search must
    # raise instead of dropping that row's pairs (a lost key row would
    # silently leave 121 of the 122 pairs at 3000)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    real = np.save
    dropped = []

    def lossy(file, arr, *args, **kwargs):
        lose = not dropped and arr.shape[1] > 0 and os.path.basename(file).startswith(f"{name}-")
        if lose:
            dropped.append(file)
        return real(file, arr[:, 1:] if lose else arr, *args, **kwargs)

    monkeypatch.setattr(np, "save", lossy)
    with pytest.raises(ArithmeticError, match="lost rows"):
        search_pairs(SearchConfig(bound=3000, kind=kind, threads=1))
    assert len(dropped) == 1
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "kind, keys, queries",
    [("harmonious", 247_549, 452_874), ("unitary_harmonious", 70_034, 506_597)],
)
def test_query_prune_size_1e6(kind, keys, queries):
    # of the 752,454 (harmonious) and 929,969 (unitary) complement queries
    # with a nonzero numerator, those at or below b/a = 1024/5143 are dropped
    bound = 10**6
    star = kind == "unitary_harmonious"
    assert _abundancy_cap(bound) == (5143, 1024)
    runs = [dict(_ratio_segment_runs(lo, hi, bound, star)) for lo, hi in _segments(bound)]
    assert sum(r["keys"].shape[1] for r in runs) == keys
    assert sum(r["comps"].shape[1] for r in runs) == queries


@pytest.mark.parametrize("kind", ["harmonious", "unitary_harmonious"])
def test_bucket_edges_cover_every_code_1e5(kind, monkeypatch):
    # the join slices on plain edges: the ratio bits of every key and query
    # lie below the last edge, so consecutive slices add up to each run
    monkeypatch.setattr(harmonia.search, "_BUCKET_TARGET_BYTES", 1 << 12)
    bound = 10**5
    star = kind == "unitary_harmonious"
    runs = [dict(_ratio_segment_runs(lo, hi, bound, star)) for lo, hi in _segments(bound)]
    edges = _bucket_edges(bound, sum(r["keys"].shape[1] for r in runs))
    assert len(edges) - 1 >= 8 and edges[0] == 0
    for run in (r[name] for r in runs for name in ("keys", "comps")):
        assert run.shape[1] and 0 <= run[0, 0] and run[0, -1] < edges[-1]
        parts = [_bucket_slice(run, lo, hi) for lo, hi in zip(edges, edges[1:])]
        assert np.array_equal(np.concatenate(parts, axis=1), run)


def test_bucket_slice_reaches_the_last_edge_above_one_half(monkeypatch):
    # the perfect numbers sit at exactly 1/2, the top of every ratio, so the
    # last edge lies one past the bits of 1/2 and the last bucket takes them
    monkeypatch.setattr(harmonia.search, "_BUCKET_TARGET_BYTES", 1 << 8)
    half = int(np.float64(6 / 12).view(np.int64))
    assert _bucket_edges(2**30 - 1, 0)[-1] == half + 1
    bound = 1000
    runs = dict(_ratio_segment_runs(1, bound, bound, False))
    edges = _bucket_edges(bound, runs["keys"].shape[1])
    assert len(edges) - 1 >= 8 and edges[-2] <= half < edges[-1]
    for name, run in runs.items():
        parts = [_bucket_slice(run, lo, hi) for lo, hi in zip(edges, edges[1:])]
        assert np.array_equal(np.concatenate(parts, axis=1), run)
        last = parts[-1]
        assert sorted(last[1, last[0] == half].tolist()) == [6, 28, 496]
        assert np.count_nonzero(run[0] == half) == 3


def pass1_runs(kind, bound):
    """Every segment's pass-1 runs of the kind at the bound, by name."""
    if kind == "amicable":
        segment_runs = functools.partial(harmonia.search._amicable_segment_runs, equal_allowed=False)
    else:
        segment_runs = functools.partial(_ratio_segment_runs, star=kind == "unitary_harmonious")
    return [dict(segment_runs(lo, hi, bound)) for lo, hi in _segments(bound)]


@pytest.mark.parametrize("kind", KINDS)
def test_pass1_runs_do_not_depend_on_the_block_length(kind, monkeypatch):
    # blocks of 1000 entries divide no segment at 10^5 (12,500 long): every
    # run holds the same rows in the same order as under the default
    # blocks, and the listing is the same
    bound = 10**5
    assert all((hi - lo + 1) % 1000 for lo, hi in _segments(bound))
    config = SearchConfig(bound=bound, kind=kind)
    want_runs, want = pass1_runs(kind, bound), jsonl_of(search_pairs(config))
    monkeypatch.setattr(harmonia.search, "_RATIO_CHUNK", 1000)
    got_runs = pass1_runs(kind, bound)
    assert [list(r) for r in got_runs] == [list(r) for r in want_runs]
    for got, runs in zip(got_runs, want_runs):
        for name, run in runs.items():
            assert got[name].dtype == run.dtype == np.int64
            assert got[name].tobytes() == run.tobytes(), name
    assert jsonl_of(search_pairs(config)) == want


def test_ratio_pass1_segment_traced_peak():
    # one segment of 2^20 integers at bound 2^23, its lanes sieved into
    # before tracing starts: the blocks, one run at a time and its sort
    # order stay within 36 bytes an integer (a segment-sized n, 2n, int64
    # sigma and gathered columns took 51.6)
    bound, length = 1 << 23, 1 << 20
    lo = bound - length + 1
    lanes = SieveLanes(length)
    sieve_tables(lo, bound, lanes=lanes)
    tracemalloc.start()
    try:
        rows = [run.shape[1] for _, run in _ratio_segment_runs(lo, bound, bound, False, lanes)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(rows) > length // 2
    assert peak <= 36 * length


@pytest.mark.parametrize("kind", KINDS)
def test_pair_search_releases_its_worker_lanes(kind, monkeypatch):
    # every sieve of pass 1, and of amicable's resolve pass, goes into lanes
    # that its worker owns: no lanes serve two threads, and none outlive
    # the search; six workers on a short switch interval interleave their
    # segments
    refs, users = [], []
    sieve = harmonia.search.sieve_tables

    def spy(lo, hi, **kwargs):
        lanes = kwargs["lanes"]
        sigma = sieve(lo, hi, **kwargs)
        held = next((i for i, (r, _, _) in enumerate(refs) if r() is lanes), None)
        if held is None:
            held = len(refs)
            refs.append(tuple(map(weakref.ref, (lanes, lanes.rem, lanes.out))))
            users.append(set())
        users[held].add(threading.get_ident())
        return sigma

    bound = 20000
    want = jsonl_of(search_pairs(SearchConfig(bound=bound, kind=kind, threads=1)))
    monkeypatch.setattr(harmonia.search, "sieve_tables", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = jsonl_of(search_pairs(SearchConfig(bound=bound, kind=kind, threads=6)))
    finally:
        sys.setswitchinterval(interval)
    assert got == want and len(want) > 1
    assert 1 <= len(refs) <= (12 if kind == "amicable" else 6)
    assert all(len(threads) == 1 for threads in users)
    assert all(r() is None for held in refs for r in held)


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
    with pytest.raises(ValueError, match="^bounds must be an integer, got 10.5$"):
        count_table([10.5, 100])
    with pytest.raises(ValueError, match="^threads must be an integer, got 1.5$"):
        count_table([10, 100], threads=1.5)


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


@pytest.mark.parametrize("kind", ["harmonious", "unitary_harmonious", "amicable"])
def test_pair_search_progress_lines(kind):
    # 3 segments of 1024, then 8 buckets (the floor) or 3 resolved segments,
    # each phase reported in order whatever the thread count
    lines = []
    search_pairs(SearchConfig(bound=3000, kind=kind, threads=2), progress=lines.append)
    if kind == "amicable":
        second = [f"resolved segment {i}/3" for i in range(1, 4)]
    else:
        second = [f"joined bucket {b}/8" for b in range(1, 9)]
    assert lines == [f"wrote segment {i}/3" for i in range(1, 4)] + second


def test_sweep_progress_lines():
    lines = []
    search_anarchy_pairs(10, 3000, threads=2, progress=lines.append)
    assert lines == [f"swept segment {i}/3" for i in range(1, 4)]


def test_segment_length_invariance_every_kind(monkeypatch):
    # the derived 3 segments of 1024 against one segment holding the bound
    for kind in ("harmonious", "unitary_harmonious", "amicable"):
        split = search_pairs(SearchConfig(bound=3000, kind=kind))
        with monkeypatch.context() as m:
            m.setattr(harmonia.search, "_segment_length", lambda bound: 4096)
            whole = search_pairs(SearchConfig(bound=3000, kind=kind))
        assert jsonl_of(whole) == jsonl_of(split)


def test_runs_live_in_a_temporary_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    bucket_slice = harmonia.search._bucket_slice
    runs_of = {
        "harmonious": ("keys", "comps"),
        "unitary_harmonious": ("keys", "comps"),
        "amicable": ("queries",),
    }
    for kind, names in runs_of.items():
        seen = []

        def look(line):
            seen.append({d: set(os.listdir(tmp_path / d)) for d in os.listdir(tmp_path)})

        # 3 segments of 1024, each kind's runs for each
        search_pairs(SearchConfig(bound=3000, kind=kind), progress=look)
        assert len({d for dirs in seen for d in dirs}) == 1, kind
        [(rundir, files)] = seen[-1].items()
        assert rundir.startswith("harmonia-runs-")
        assert files == {f"{name}-{i:06d}.npy" for name in names for i in range(3)}, kind
        assert os.listdir(tmp_path) == []
        # a search that loses a row after pass 1 raises and leaves nothing
        with monkeypatch.context() as m:
            m.setattr(harmonia.search, "_bucket_slice", lambda *a: bucket_slice(*a)[:, 1:])
            with pytest.raises(ArithmeticError, match="lost rows"):
                search_pairs(SearchConfig(bound=3000, kind=kind))
        assert os.listdir(tmp_path) == [], kind
    # so does one that the abundancy tripwire refuses in pass 1
    # (sigma*(210)/210 = 576/210 reaches 5/2)
    monkeypatch.setattr(harmonia.search, "_abundancy_cap", lambda bound: (5, 2))
    for kind in ("harmonious", "unitary_harmonious"):
        with pytest.raises(ArithmeticError, match="abundancy cap 5/2"):
            search_pairs(SearchConfig(bound=3000, kind=kind))
        assert os.listdir(tmp_path) == [], kind


def test_missing_temporary_directory_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    assert cli_main(["search", "harmonious", "--bound", "3000"]) == 4
    assert capsys.readouterr().err.startswith("error: ")


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
    with pytest.raises(ValueError, match="^m_bound must be an integer, got 100.0$"):
        search_anarchy_pairs(100.0, 1000)
    with pytest.raises(ValueError, match="^n_bound must be an integer, got 1000.0$"):
        search_anarchy_pairs(100, 1000.0)
    with pytest.raises(ValueError, match="^threads must be an integer, got 1.5$"):
        search_anarchy_pairs(100, 1000, threads=1.5)


def test_anarchy_key_match_for_known_pair():
    # the sweep's matching arithmetic, probed directly at the real pair: the
    # double of 173369889/349491681 finds the row of 64's complement 63/127,
    # and the cross-multiplication confirms it
    rows, doubles = _anarchy_targets(sieve_tables(1, 64), 2 * 10**8)
    o, s = np.array([173369889]), np.array([349491681])
    at, row = _probe(_key_index(doubles), np.arange(len(rows)), o / s, np.array([0]))
    assert at.tolist() == [0] and [rows[r] for r in row.tolist()] == [(63, 127, 64, 0)]
    assert 173369889 * 127 == 63 * 349491681


def anarchy_target_rows(small_sigma, n_bound):
    """The rows of _anarchy_targets as (Fraction, m, 2^a) and those of
    scaled_targets_reference, each sorted, after checking that the rows are
    Python ints and that each row's double is float(Fraction(num, den)), in
    ascending order."""
    rows, doubles = _anarchy_targets(small_sigma, n_bound)
    assert all(type(v) is int for row in rows for v in row)
    assert doubles.tolist() == [float(Fraction(num, den)) for num, den, _, _ in rows]
    assert (np.diff(doubles) >= 0).all()
    got = [(Fraction(num, den), m, 1 << a) for num, den, m, a in rows]
    return sorted(got), sorted(scaled_targets_reference(small_sigma, n_bound))


@pytest.mark.parametrize(
    "m_bound, n_bound",
    [(2, 2), (9, 2015), (9, 2016), (1000, 176160768), (5000, 2**30 - 1), (1000, 2**40)],
)
def test_anarchy_targets_match_reference(m_bound, n_bound):
    got, want = anarchy_target_rows(sieve_tables(1, m_bound), n_bound)
    assert got == want
    assert len(got) == m_bound + (math.isqrt(m_bound) - 1) // 2 * (n_bound.bit_length() - 1)


def test_anarchy_targets_at_the_sieve_limit():
    # sigma just below 2^43, above every sigma(n) with n <= 2^40, at
    # n_bound = 2^40: at a = 40 a row's num and den pass 2^82, where an
    # int64 product would wrap
    n_bound = MAX_SIEVE_BOUND
    m = np.arange(1, 2001, dtype=np.int64)
    small_sigma = ((1 << 43) - 1) // m * m
    got, want = anarchy_target_rows(small_sigma, n_bound)
    assert got == want
    assert max(scale for _, _, scale in got) == 1 << 40
    rows, _ = _anarchy_targets(small_sigma, n_bound)
    assert max(den for _, den, _, _ in rows).bit_length() == 83


def odd_square(m):
    return m % 2 == 1 and math.isqrt(m) ** 2 == m


def parity_rule(m, n):
    """Every anarchy pair (m, n) has n odd or m an odd square."""
    return n % 2 == 1 or odd_square(m)


def swept_candidates(monkeypatch, m_bound, n_bound, segment_lengths=(None,), threads=2):
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
            search_anarchy_pairs(m_bound, n_bound, threads=threads)
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
    # the unfiltered exact path: every n >= m whose reduced n/sigma(n) is a
    # small m's reduced complement
    m_bound, n_bound = 1000, 2 * 10**6
    sigma = sieve_tables(1, n_bound)
    comps = defaultdict(list)
    for m, s in enumerate(sigma[:m_bound].tolist(), 1):
        t = Fraction(s - m, s)
        comps[t.numerator, t.denominator].append(m)
    n = np.arange(1, n_bound + 1, dtype=np.int64)
    g = np.gcd(n, sigma)
    num, den = n // g, sigma // g
    # only a denominator of some complement can match
    near = np.flatnonzero(np.isin(den, [d for _, d in comps]))
    reduced = zip(n[near].tolist(), num[near].tolist(), den[near].tolist())
    exact = sorted(
        (m, big) for big, t, d in reduced for m in comps.get((t, d), ()) if m <= big
    )
    assert len(exact) > 100
    # the sweep sends the exact pairs that the parity rule keeps, and every
    # pair the rule removes fails anarchy
    kept = [pair for pair in exact if parity_rule(*pair)]
    removed = [pair for pair in exact if not parity_rule(*pair)]
    assert len(kept) == 44 and len(removed) == 420
    assert not any(r.flags["anarchy"] for r in classify_all(removed))
    # the derived mark table, a ratio chunk of 4099 entries, which divides
    # no segment's odd column, a mark table too small to filter anything
    # and one far larger than the target count derives; both segment
    # lengths leave a last segment shorter than the lanes each worker
    # holds
    assert n_bound % 1024 and n_bound % (1 << 17)
    for name, value, lengths in (
        (None, None, (1024, 1 << 17)),
        ("_RATIO_CHUNK", 4099, (1024, 1 << 17)),
        ("_mark_slots", lambda targets: 1 << 6, (1 << 17,)),
        ("_mark_slots", lambda targets: 1 << 24, (1 << 17,)),
    ):
        with monkeypatch.context() as m:
            if name:
                m.setattr(harmonia.search, name, value)
            assert swept_candidates(m, m_bound, n_bound, lengths) == kept, name


def test_anarchy_mark_table_follows_the_target_count():
    # m_bound 1000 keeps the 2^20 slots; 10^6 gets ~32 slots a target
    mark_slots = harmonia.search._mark_slots
    assert len(harmonia.search._anarchy_targets(sieve_tables(1, 1000), 176160768)[0]) == 1405
    assert mark_slots(1405) == mark_slots(1) == 1 << 20
    assert mark_slots(32768) == 1 << 20 and mark_slots(32769) == 1 << 21
    assert mark_slots(1_013_473) == 1 << 25 and mark_slots(10**9) == 1 << 26


def test_anarchy_sweep_releases_its_worker_buffers(monkeypatch):
    # the small side is one plain sieve of [1, m_bound]; every segment of
    # the sweep is an odd column that a worker sieves into its own lanes,
    # no lanes serve two threads, and none of them outlives the sweep; six
    # workers on a short switch interval interleave their segments
    refs, users, calls, small = [], defaultdict(set), 0, []
    sieve = harmonia.search.sieve_tables

    def spy(lo, hi, **kwargs):
        nonlocal calls
        lanes = kwargs.get("lanes")
        if not kwargs.get("odd"):
            small.append((lo, hi, kwargs))
            return sieve(lo, hi, **kwargs)
        calls += 1
        users[id(lanes)].add(threading.get_ident())
        sigma = sieve(lo, hi, **kwargs)
        if not any(r() is lanes for r, _, _ in refs):
            refs.append(tuple(map(weakref.ref, (lanes, lanes.rem, lanes.out))))
        return sigma

    want = swept_candidates(monkeypatch, 1000, 10**6, threads=1)
    monkeypatch.setattr(harmonia.search, "sieve_tables", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = swept_candidates(monkeypatch, 1000, 10**6, threads=6)
    finally:
        sys.setswitchinterval(interval)
    assert got == want and len(want) > 10
    assert small == [(1, 1000, {})]
    assert calls == len(harmonia.search._segments(10**6)) > 6
    assert 1 <= len(refs) == len(users) <= 6
    assert all(len(threads) == 1 for threads in users.values())
    assert all(r() is None for held in refs for r in held)


def test_anarchy_sweep_drops_an_equal_double_of_another_fraction(monkeypatch):
    # a planted target (3 * 2^60 + 1) / (4 * 2^60) for m = 2 rounds to the
    # double of 3/sigma(3) = 3/4 but is not 3/4, so only the exact check
    # keeps (2, 3) out of the candidates
    planted = ((3 << 60) + 1, 4 << 60, 2, 0)
    assert planted[0] / planted[1] == 3 / 4 and Fraction(*planted[:2]) != Fraction(3, 4)
    targets = harmonia.search._anarchy_targets

    def with_planted(small_sigma, n_bound):
        rows = sorted(targets(small_sigma, n_bound)[0] + [planted], key=lambda r: r[0] / r[1])
        return rows, np.array([num / den for num, den, _, _ in rows])

    want = swept_candidates(monkeypatch, 10, 3000)
    monkeypatch.setattr(harmonia.search, "_anarchy_targets", with_planted)
    got = swept_candidates(monkeypatch, 10, 3000)
    assert got == want and (2, 3) not in got


def test_anarchy_sweep_above_2_to_the_30(monkeypatch):
    # two segments of the 2^31 sweep, against the plain sigma column of the
    # same segments: each odd N whose reduced N/sigma(N) is a small m's
    # reduced complement.  Every o there exceeds 2^30, so N = 2^a * o <= 2^31
    # needs a = 0, and the odd N are all the candidates
    m_bound, n_bound = 10**4, 2**31
    length = _segment_length(n_bound)
    starts = [(n - 1) // length * length + 1 for n in (1169405775, 1221700095)]
    segs = [(lo, lo + length - 1) for lo in starts]
    segments = harmonia.search._segments
    monkeypatch.setattr(
        harmonia.search, "_segments", lambda bound: segs if bound == n_bound else segments(bound)
    )
    got = swept_candidates(monkeypatch, m_bound, n_bound)

    comps = defaultdict(list)
    for m, s in enumerate(sieve_tables(1, m_bound).tolist(), 1):
        t = Fraction(s - m, s)
        comps[t.numerator, t.denominator].append(m)
    widest = max(den for _, den in comps)
    want = []
    for lo, hi in segs:
        n = np.arange(lo, hi + 1, dtype=np.int64)
        sigma = sieve_tables(lo, hi)
        g = np.gcd(n, sigma)
        odd = np.flatnonzero((n % 2 == 1) & (sigma // g <= widest))
        reduced = zip(n[odd].tolist(), (n // g)[odd].tolist(), (sigma // g)[odd].tolist())
        for big, num, den in reduced:
            want += [(m, big) for m in comps.get((num, den), ())]
    assert got == sorted(want)
    assert {(6825, 1169405775), (6795, 1221700095)} <= set(got)
    records = classify_all(got)
    assert all(r.flags["harmonious"] and not r.flags["anarchy"] for r in records)
    assert _emit_records(got, "harmonious", frozenset({"anarchy"})) == []


def test_anarchy_sweep_refuses_past_the_sieve_limit(monkeypatch, capsys):
    # refused before any sieve runs, not in the last segment of the sweep
    def no_sieve(*args, **kwargs):
        raise AssertionError("the sweep sieved before refusing its bound")

    monkeypatch.setattr(harmonia.search, "sieve_tables", no_sieve)
    with pytest.raises(ValueError, match=f"^n_bound {MAX_SIEVE_BOUND + 1} exceeds the sieve"):
        search_anarchy_pairs(100, MAX_SIEVE_BOUND + 1)
    argv = ["search", "anarchy", "--m-bound", "100", "--n-bound", str(MAX_SIEVE_BOUND + 1)]
    assert cli_main(argv) == 2
    assert "exceeds the sieve limit" in capsys.readouterr().err


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
# (M1, M2) prefix and shares no window or anchor logic with the current search;
# the row at the cap, from the anchored search while it still sized its codes
# by the observed sigma maximum
HARMONIOUS_TRIPLES = {
    (10**4, True): (2074, "288c3abd1e4d0b4aabded51395e1b4fdd164d8f6ff856091b243343bad8dee73"),
    (10**4, False): (1914, "08155411162e7f74304e841f97e7fb9580839a59801b7d127a09de45b97b3d2e"),
    (3 * 10**4, True): (11605, "005bdf0ebf7092a6e33200cdc8b5bb46c524c3aa8a01f04ea1923f32ddc42302"),
    (3 * 10**4, False): (11203, "f7e421851b4be6b04e48b729d5cb6710c84fac83455a4c12e264150ae4913f82"),
    (10**5, True): (72010, "e2a2f7af268fe3e72fb22f0392b80f2cad498f7d247ccc408a43e4833fb5a078"),
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


def test_triple_confirm_drops_an_equal_double_of_another_n(monkeypatch):
    # the key run gains a column with the double of c/sigma(c), c the
    # largest-ratio member of the first triple at 3000, owned by c + 1:
    # the probe matches it, and only the exact confirm keeps it out
    config = SearchConfig(bound=3000, k=3)
    want = search_triples(config)
    first = want[0]
    c, s = max(zip(first.members, first.sigma), key=lambda p: Fraction(*p))
    assert harmonic_ratio(c + 1) != Fraction(c, s)
    real = harmonia.search._joined_run

    def planted(parts):
        ((bits, owners),) = parts
        return real(
            [(np.append(bits, np.float64(c / s).view(np.int64)), np.append(owners, c + 1))]
        )

    monkeypatch.setattr(harmonia.search, "_joined_run", planted)
    assert jsonl_of(search_triples(config)) == jsonl_of(want)


def test_triples_cap_refusal():
    with pytest.raises(ValueError, match="capped at bound"):
        search_triples(SearchConfig(bound=TRIPLE_BOUND_CAP + 1, k=3))


def test_tuple_size_routing():
    with pytest.raises(ValueError, match="k=2"):
        search_pairs(SearchConfig(bound=100, k=3))
    with pytest.raises(ValueError, match="k=3"):
        search_triples(SearchConfig(bound=100, k=2))


# --- guards ----------------------------------------------------------------------


def test_abundancy_cap_dominates_true_maximum():
    for bound in (10, 100, 10**4, 10**5):
        a, b = _abundancy_cap(bound)
        for sigma in (sieve_tables(1, bound), sieve_tables(1, bound, star=True)):
            top = max(Fraction(int(s), n) for n, s in enumerate(sigma.tolist(), 1))
            assert top < Fraction(a, b)


def test_abundancy_cap_tripwire(monkeypatch, capsys):
    # at 10^4 the largest sigma(n)/n is 3.838: a cap of 7/2 lies below
    # it, so pass 1 refuses instead of letting the query prune drop pairs
    monkeypatch.setattr(harmonia.search, "_abundancy_cap", lambda bound: (7, 2))
    with pytest.raises(ArithmeticError, match="abundancy cap 7/2"):
        search_pairs(SearchConfig(bound=10**4))
    assert cli_main(["search", "harmonious", "--bound", "10000"]) == 1
    assert "abundancy cap 7/2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, name",
    [("harmonious", "harmonious"), ("unitary_harmonious", "unitary")],
    ids=["harmonious", "unitary_harmonious"],
)
def test_pair_search_refuses_bound_2_to_the_30(kind, name, tmp_path, monkeypatch, capsys):
    # from 2^30 on, the ratio kinds' confirm products n * sigma overflow
    # int64: refused before any sieve runs or any run directory is made
    def no_sieve(*args, **kwargs):
        raise AssertionError("the search sieved")

    monkeypatch.setattr(harmonia.search, "sieve_tables", no_sieve)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    want = f"{kind} pair search needs bound < 2^30, got {2**30}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        search_pairs(SearchConfig(bound=2**30, kind=kind))
    assert cli_main(["search", name, "--bound", str(2**30)]) == 2
    assert want in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    # one below it goes on to sieve, and so does an amicable search at it
    for searched, bound in ((kind, 2**30 - 1), ("amicable", 2**30)):
        with pytest.raises(AssertionError, match="the search sieved"):
            search_pairs(SearchConfig(bound=bound, kind=searched, threads=1))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("kind", ["harmonious", "unitary_harmonious"])
def test_triple_search_refuses_sigma_past_2_to_the_21(kind, monkeypatch):
    # sigma_max^3 < 2^63 keeps each residual's double exact and the
    # confirm's products in int64; the true sigma at the cap is far below
    star = kind == "unitary_harmonious"
    assert int(sieve_tables(1, TRIPLE_BOUND_CAP, star=star).max()) < 1 << 20
    real = harmonia.search.sieve_tables

    def wide(lo, hi, **kwargs):
        sigma = real(lo, hi, **kwargs)
        sigma[-1] = 1 << 21
        return sigma

    monkeypatch.setattr(harmonia.search, "sieve_tables", wide)
    with pytest.raises(ValueError, match="^sigma values up to 2097152 overflow"):
        search_triples(SearchConfig(bound=3000, k=3, kind=kind))


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


def test_each_search_validates_once(monkeypatch):
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
        lambda: search_triples(SearchConfig(bound=2000, k=3)),
        lambda: search_triples(SearchConfig(bound=2000, k=3, kind="amicable")),
        lambda: search_anarchy_pairs(64, 10**6),
        lambda: count_table([100, 3000]),
    ]
    for search in searches:
        calls.clear()
        search()
        assert len(calls) == 1
