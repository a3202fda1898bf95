"""Bounded searches for harmonious, unitary harmonious, and amicable tuples.

Pair strategy: a pair (M, N) has M/sigma(M) + N/sigma(N) = 1 exactly when
the reduced complement (sigma(M) - M)/sigma(M) equals N's reduced ratio
N/sigma(N).  Two ratios that sum to 1 straddle 1/2, so one member has
sigma >= 2n and the other sigma <= 2n; perfect numbers lie on both sides.
This half-plane split sizes the join: only the abundant-or-perfect n (about
a quarter of all integers) are keyed by their ratio, and only the
deficient-or-perfect n probe with their complement.  Robin's bound caps
every key's abundancy sigma(n)/n below an exact a/b (_abundancy_cap), so a
key's ratio lies above b/a, and a complement at or below b/a is dropped
before it becomes a query: about 40% of them.  The unitary kind splits the
same way on sigma*.

One segment pipeline serves every pair kind.  For the ratio kinds, pass 1
sieves each segment once and emits a key run and a query run, each sorted
by its ratio's float64, read as int64 bits: for positive doubles the bits
sort as the values do.  Each worker sieves into lanes it owns for the
whole pass (_per_thread), and pass 1 reads sigma from the lane a block at
a time into the runs' exact-size columns, so no segment-sized n or int64
sigma is built; the runs are saved one at a time.  Nothing is reduced.  With n < 2^30 and
sigma < 2^33, each double is the correctly rounded value of its exact
ratio, so equal rationals have equal bits and no match is lost.  Every
segment checks that its keys stay below the abundancy cap.  The join splits
ranges of those bits into at least 8 buckets and runs them on
_each_segment, one task per bucket: it merges every segment's keys of the
bucket into one index, and each segment's already sorted query slice
probes that index in place.  A match of doubles is confirmed on its rows
alone: each sigma comes back from the shared double, and one int64
cross-multiplication decides (_exact_matches).  Every run is a plain .npy
file in one temporary directory, removed when the search ends, and pass 2's
slices of the runs must add up to the row counts that pass 1 reported as it
wrote them (_check_conserved).  Segment lengths
follow from the bound alone (_segment_length), so no search has a tuning
knob.  Pair search needs bound < 2^30: from there on, the confirm's
products n * sigma no longer fit in 63 bits.  Every segment loop, the
anarchy sweep's too, and the join's buckets run on one thread-pool driver,
_each_segment.  The triple search sieves [1, bound] in one call, matches
its residuals by double in the same way and confirms each match by one
int64 cross-multiplication (_ratio_triples).

The anarchy sweep pairs a small side M <= m_bound with every N up to a much
larger n_bound, streaming N through the same complement match over the odd
integers only.  Anarchy forces N odd or M an odd square (the parity rule),
and N = 2^a * o with o odd has N/sigma(N) = t exactly when
o/sigma(o) = t * (2^(a+1) - 1)/2^a.  So one sweep of the odd column of the
sieve probes every M's complement t, and the scaled targets of the
odd-square M for each a >= 1 (_anarchy_targets).  Each worker thread
sieves its segments into lanes it owns for the whole sweep and computes
o/sigma(o) a float64 chunk at a time, so no segment allocates a
segment-sized array.  Each o/sigma(o) is matched against the targets'
doubles, which loses no match since o, sigma(o) < 2^53; a matched o
follows from its index, and one exact cross-multiplication in Python ints
decides.  So the sweep runs up to MAX_SIEVE_BOUND, 2^40.

Amicable pairs use the aliquot shortcut instead: the only possible partner
of M is s(M) = sigma(M) - M, so a pair exists exactly when
sigma(s(M)) == sigma(M).  Pass 1 writes each M's (s(M), M) query to a run
file like the ratio kinds' runs, and a resolve pass re-sieves each
segment, into its worker's lanes, to check sigma(s(M)) == s(M) + M for
the queries whose partner lies in it.

Every search re-validates all its candidates in one classify_all call,
which factors each distinct member afresh by trial division, independent of
the sieve, and rebuilds sigma from that factorization.  So sieve or join
defects cannot leak into results: a candidate that fails re-validation
raises instead of being dropped.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .arith import MAX_SIEVE_BOUND, SieveLanes, sieve_tables
from .classify import TupleRecord, classify_all

KINDS = ("harmonious", "unitary_harmonious", "amicable")
FILTER_NAMES = ("coprime", "anarchy")
_FILTER_FLAG = {"coprime": "pairwise_coprime", "anarchy": "anarchy"}

TRIPLE_BOUND_CAP = 10**5
# key bytes per bucket of the merge join; a bucket's queries take about
# three times as much, and up to `threads` buckets are resident at once
_BUCKET_TARGET_BYTES = 64 << 20
# np.load parses each .npy header with ast.literal_eval, which CPython 3.11
# can fail with "AST constructor recursion depth mismatch" when a garbage
# collection in one thread switches to another that is also parsing
_LOAD_LOCK = threading.Lock()
# entries per block of a segment's ratio pass: the anarchy sweep's float64
# chunks of o/sigma(o) (512 KB), and pass 1's blocks of n and sigma
_RATIO_CHUNK = 1 << 16

Progress = Callable[[str], None]


def json_digest(payload) -> str:
    """sha256 hex of payload's sorted-key JSON: config digests and the CLI's
    manifest digests."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _integer(name: str, value, low: int | None = None) -> int:
    """value as an int, read with operator.index so that a float is refused
    instead of truncated; ValueError unless it is integral and >= low."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one bounded pair/triple search.

    allow_equal_members=None picks the kind's convention: equal members are
    allowed for (unitary) harmonious tuples, where M = N forces sigma = 2M
    and the perfect numbers appear on the diagonal, and disallowed for
    amicable tuples, whose members are distinct by definition.
    """

    bound: int
    kind: str = "harmonious"
    k: int = 2
    filters: frozenset = frozenset()
    allow_equal_members: bool | None = None
    threads: int = 0

    def __post_init__(self):
        object.__setattr__(self, "bound", _integer("bound", self.bound, 2))
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "k", _integer("k", self.k))
        if self.k not in (2, 3):
            raise ValueError(f"k must be 2 or 3, got {self.k}")
        if isinstance(self.filters, str):
            raise ValueError(
                f"filters must be a collection of names, got the str {self.filters!r}; "
                f"known: {FILTER_NAMES}"
            )
        object.__setattr__(self, "filters", frozenset(self.filters))
        bad = self.filters - set(FILTER_NAMES)
        if bad:
            raise ValueError(f"unknown filters {sorted(bad)}; known: {FILTER_NAMES}")
        object.__setattr__(self, "threads", _integer("threads", self.threads, 0))

    @property
    def equal_allowed(self) -> bool:
        if self.allow_equal_members is not None:
            return self.allow_equal_members
        return self.kind != "amicable"

    def digest(self) -> str:
        """Hex digest over every field that influences the result set.
        Thread count and segment length are excluded: they must never change
        results."""
        payload = {
            "bound": self.bound,
            "kind": self.kind,
            "k": self.k,
            "filters": sorted(self.filters),
            "allow_equal": self.equal_allowed,
        }
        return json_digest(payload)


# --- shared numeric helpers -------------------------------------------------


def _abundancy_cap(bound: int) -> tuple[int, int]:
    """(a, b) with sigma(n)/n < a/b, hence sigma*(n)/n < a/b, for every
    n <= bound; b is 2^10, so for bound < 2^30 every product of a or b with
    n or sigma(n) stays below 2^46.

    Robin's unconditional estimate: sigma(n)/n < e^gamma lnln n + 0.6483/lnln n
    for n >= 3.  The leading constant is rounded up and the ratio padded 2%,
    so float evaluation cannot undercut the true maximum.
    """
    b = 1 << 10
    if bound < 16:
        return 12 * b, b
    ll = math.log(math.log(bound))
    ratio = 1.7811 * ll + 0.6483 / ll
    return math.ceil(ratio * 1.02 * b), b


def _check_abundancy(n: np.ndarray, sigma: np.ndarray, a: int, b: int) -> None:
    """Refuse keys whose sigma(n)/n reaches the abundancy cap a/b: the query
    prune, which trusts the cap, could drop their pairs.  Below bound 2^30
    a/b < 8, so every key that passes has sigma < 2^33, as _exact_matches
    needs."""
    over = np.flatnonzero(sigma * b >= a * n)
    if over.size:
        i = over[0]
        raise ArithmeticError(
            f"sigma({n[i]}) = {sigma[i]} reaches the abundancy cap {a}/{b}; "
            "the cap estimate is too low"
        )


def _segment_length(bound: int) -> int:
    """Sieve segment length for [1, bound]: at least 8 segments, so two or
    more threads stay busy, but no longer than 2^22 and no shorter than
    1024.  It follows from the bound alone, never from the thread count,
    so a search writes the same runs under any thread count."""
    return min(1 << 22, max(1 << 10, -(-bound // 8)))


def _segments(bound: int) -> list[tuple[int, int]]:
    """Inclusive segments covering [1, bound]."""
    length = _segment_length(bound)
    return [(lo, min(lo + length - 1, bound)) for lo in range(1, bound + 1, length)]


def _each_segment(
    fn: Callable,
    items: Sequence,
    threads: int,
    progress: Progress | None = None,
    phase: str = "",
) -> Iterator:
    """fn(item) for every item on a thread pool, yielded in item order.

    Each result is reported as "<phase> <i>/<len(items)>", where the phase
    names its unit ("wrote segment", "joined bucket").  When fn
    raises, the items not yet started are cancelled instead of run, and the
    error propagates."""
    pool = ThreadPoolExecutor(max_workers=threads if threads > 0 else (os.cpu_count() or 1))
    try:
        futures = [pool.submit(fn, item) for item in items]
        for i, fut in enumerate(futures, 1):
            result = fut.result()
            if progress:
                progress(f"{phase} {i}/{len(items)}")
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def _per_thread(make: Callable) -> Callable:
    """A function that returns its calling thread's own make(), made on the
    thread's first call.  Each value lives until its thread ends or the
    function is dropped, so the buffers of a pool's workers die with the
    pool."""
    owned = threading.local()

    def mine():
        if not hasattr(owned, "value"):
            owned.value = make()
        return owned.value

    return mine


def _key_index(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct keys, first row, end row) of each run of equal sorted keys."""
    if not keys.size:
        return keys, keys, keys
    cut = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate(([0], cut))
    stops = np.concatenate((cut, [keys.size]))
    return keys[starts], starts, stops


def _probe(
    index: tuple[np.ndarray, np.ndarray, np.ndarray],
    values: np.ndarray,
    queries: np.ndarray,
    owners: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One (owner, value) row per query equal to an indexed key: doubles or
    their bits.

    One binary search per query over the distinct keys; sorted queries walk
    the keys in order, which keeps the search in cache."""
    distinct, starts, stops = index
    if not distinct.size:
        return owners[:0], values[:0]
    pos = np.searchsorted(distinct, queries)
    np.minimum(pos, distinct.size - 1, out=pos)
    hit = np.flatnonzero(distinct[pos] == queries)
    lo = starts[pos[hit]]
    lens = stops[pos[hit]] - lo
    offsets = np.repeat(np.cumsum(lens) - lens, lens)
    rows = np.arange(int(lens.sum()), dtype=np.int64) - offsets + np.repeat(lo, lens)
    return np.repeat(owners[hit], lens), values[rows]


# --- pass 1: segment runs -----------------------------------------------------
#
# search_pairs writes each segment's runs as plain <name>-<segment>.npy
# files: the ratio kinds a "keys" and a "comps" run of (ratio bits, n) rows,
# amicable a "queries" run of (partner, m) rows.  Every run is one
# int64 array sorted by its first row.  Pass 2 loads them memory-mapped
# through a load(segment, name) function, and its slices must add up to the
# row counts that pass 1 reported as it wrote them (_check_conserved), so a
# row lost between np.save and np.load raises.
#
# A segment's sigma stays in its worker's sieve lane, and its rows are
# picked from it one block of _RATIO_CHUNK entries at a time (_blocks).
# The picked rows are joined into their run (_joined_run), which is sorted
# in place, and the runs are yielded one at a time, so a run is saved and
# released before the next one is built.  No segment-sized n, 2n or int64
# sigma is built.


def _blocks(sigma: np.ndarray, lo: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(n, sigma(n)) of a segment's column from n = lo, as int64 blocks."""
    for at in range(0, sigma.size, _RATIO_CHUNK):
        s = sigma[at : at + _RATIO_CHUNK].astype(np.int64)
        yield np.arange(lo + at, lo + at + s.size, dtype=np.int64), s


def _joined_run(parts: list[tuple[np.ndarray, ...]]) -> np.ndarray:
    """The parts' rows as one int64 run, columns sorted by the first row.
    The parts are released once they are joined."""
    run = np.empty((len(parts[0]), sum(part[0].size for part in parts)), dtype=np.int64)
    for i, row in enumerate(run):
        np.concatenate([part[i] for part in parts], out=row)
    parts.clear()
    order = np.argsort(run[0])
    for row in run:
        row[...] = row[order]
    return run


def _ratio_segment_runs(
    lo: int, hi: int, bound: int, star: bool, lanes: SieveLanes | None = None
) -> Iterator[tuple[str, np.ndarray]]:
    """(name, run) for the key and the query run of the segment, each of
    (ratio bits, n) rows: the double n/sigma(n) of the segment's
    n with sigma >= 2n as keys, the double (sigma - n)/sigma of its n with
    sigma <= 2n as queries, each read as int64 bits.  No fraction is
    reduced: _exact_matches confirms the join's matches.

    Every key n/sigma(n) lies above b/a, the inverse abundancy cap, which
    each block checks.  So only the queries whose complement
    (sigma - n)/sigma lies above b/a can match a key; the rest (about 40%)
    never enter the run."""
    sigma = sieve_tables(lo, hi, star=star, lanes=lanes)
    a, b = _abundancy_cap(bound)
    keys, comps = [], []
    for n, s in _blocks(sigma, lo):
        key = s >= 2 * n
        m, sk = n[key], s[key]
        _check_abundancy(m, sk, a, b)
        keys.append(((m / sk).view(np.int64), m))
        query = (s <= 2 * n) & ((s - n) * a > s * b)
        m, sq = n[query], s[query]
        comps.append((((sq - m) / sq).view(np.int64), m))
    yield "keys", _joined_run(keys)
    yield "comps", _joined_run(comps)


def _amicable_segment_runs(
    lo: int, hi: int, bound: int, equal_allowed: bool, lanes: SieveLanes | None = None
) -> Iterator[tuple[str, np.ndarray]]:
    sigma = sieve_tables(lo, hi, lanes=lanes)
    parts = []
    for n, s in _blocks(sigma, lo):
        partner = s - n
        ok = (partner >= (n if equal_allowed else n + 1)) & (partner <= bound)
        parts.append((partner[ok], n[ok]))
    yield "queries", _joined_run(parts)


# --- pass 2: join -------------------------------------------------------------


def _bucket_edges(bound: int, total_keys: int) -> list[int]:
    """Boundaries of the join's buckets, as int64 bit patterns of doubles:
    0, then cuts spaced evenly in value over (b/a, 1/2], where every key
    and query ratio lies (_abundancy_cap), then one past the bits of 1/2,
    where the perfect numbers sit.  At least 8 buckets, the floor that
    _segment_length gives segments, so two or more threads stay busy; more
    once the keys outgrow _BUCKET_TARGET_BYTES a bucket."""
    want = max(1, (total_keys * 16) // _BUCKET_TARGET_BYTES)
    buckets = 1 << min(12, max(3, (want - 1).bit_length()))
    a, b = _abundancy_cap(bound)
    bits = np.linspace(b / a, 0.5, buckets + 1).view(np.int64).tolist()
    return [0, *bits[1:-1], bits[-1] + 1]


def _bucket_slice(run: np.ndarray, lo_edge: int, hi_edge: int) -> np.ndarray:
    """The columns of a run sorted by its first row with that row in
    [lo_edge, hi_edge)."""
    col = run[0]
    return run[:, np.searchsorted(col, lo_edge) : np.searchsorted(col, hi_edge)]


def _check_conserved(phase: str, taken: int, written: int) -> None:
    """Refuse a pass whose slices do not add up to the rows pass 1 wrote:
    a row lost between the two drops its pairs without any other error."""
    if taken != written:
        raise ArithmeticError(
            f"{phase}: the slices hold {taken} rows, pass 1 wrote {written}; "
            "a bucket or segment slice lost rows"
        )


def _exact_matches(q: np.ndarray, m: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Mask of the matches, query q and key m on the shared double d whose
    int64 bits are given, with (sigma(q) - q)/sigma(q) == m/sigma(m) exactly.

    Each sigma comes back from d as rint(m / d) and rint(q / (1 - d)), and
    must give back d bit for bit, else the run is corrupt and this raises.
    That round trip is a proof: for a fixed n, n/s and n/(s + 1) differ by
    a relative 1/(s + 1) >= 2^-33, far above one ulp, so only the true sigma
    reproduces d.  Then one cross-multiplication decides; its products stay
    below 2^63, since n < 2^30, a query's sigma is at most 2n and a key's is
    below 2^33 (_check_abundancy)."""
    d = bits.view(np.float64)
    sigma_m = np.rint(m / d).astype(np.int64)
    sigma_q = np.rint(q / (1 - d)).astype(np.int64)
    if not (np.array_equal(m / sigma_m, d) and np.array_equal((sigma_q - q) / sigma_q, d)):
        raise ArithmeticError("a run's ratio is not n/sigma(n) of its row; the run is corrupt")
    return m * sigma_q == (sigma_q - q) * sigma_m


def _join(
    load: Callable[[int, str], np.ndarray],
    counts: list[dict[str, int]],
    bound: int,
    equal_allowed: bool,
    threads: int,
    progress: Progress | None,
) -> np.ndarray:
    """Candidate pairs (M <= N) of the ratio runs, one bucket per task on
    _each_segment, as the rows of one array.

    Each bucket merges the keys of every segment into one index.  The
    queries are never merged: each segment's run is already sorted, so its
    slice of the bucket probes the index in place.  A probe matches equal
    doubles, and _exact_matches keeps the matches of equal rationals.  The
    buckets' key rows and query rows must add up to the counts that pass 1
    reported for each segment (_check_conserved)."""
    nsegs = len(counts)
    written_keys = sum(c["keys"] for c in counts)
    edges = _bucket_edges(bound, written_keys)

    def work(b: int) -> tuple[int, int, np.ndarray]:
        lo_edge, hi_edge = edges[b], edges[b + 1]
        keys = np.concatenate(
            [_bucket_slice(load(i, "keys"), lo_edge, hi_edge) for i in range(nsegs)], axis=1
        )
        # the parts are sorted runs, which a stable (merging) sort exploits
        keys = np.take(keys, np.argsort(keys[0], kind="stable"), axis=1)
        index = _key_index(keys[0])
        parts, taken = [], 0
        for i in range(nsegs):
            comps = _bucket_slice(load(i, "comps"), lo_edge, hi_edge)
            taken += comps.shape[1]
            at, m = _probe(index, keys[1], comps[0], np.arange(comps.shape[1]))
            # two distinct perfect numbers match from both sides; the
            # caller's candidate set folds that duplicate
            parts.append(np.stack((comps[1, at], m, comps[0, at])))
        return keys.shape[1], taken, np.concatenate(parts, axis=1)

    done = _each_segment(work, range(len(edges) - 1), threads, progress, "joined bucket")
    taken_keys, taken_queries, parts = zip(*done)
    _check_conserved("join keys", sum(taken_keys), written_keys)
    _check_conserved("join queries", sum(taken_queries), sum(c["comps"] for c in counts))
    q, m, bits = np.concatenate(parts, axis=1)
    pairs = np.sort(np.stack((q, m))[:, _exact_matches(q, m, bits)], axis=0)
    return pairs if equal_allowed else pairs[:, pairs[0] < pairs[1]]


def _resolve_amicable_queries(
    load: Callable[[int, str], np.ndarray],
    counts: list[dict[str, int]],
    segs: list[tuple[int, int]],
    thread_lanes: Callable[[], SieveLanes],
    threads: int,
    progress: Progress | None,
) -> np.ndarray:
    """Re-sieve each segment into the calling worker's thread_lanes() and
    keep the queries whose partner lies in it and has the same sigma;
    (M, partner) pairs as the rows of one array.  The segments' query
    slices must add up to the counts that pass 1 reported
    (_check_conserved)."""

    def work(seg: tuple[int, int]) -> tuple[np.ndarray, int]:
        lo, hi = seg
        sigma = sieve_tables(lo, hi, lanes=thread_lanes())
        hits, taken = [], 0
        for i in range(len(segs)):
            sl = np.asarray(_bucket_slice(load(i, "queries"), lo, hi + 1))
            taken += sl.shape[1]
            # a query's sigma(M) is partner + M
            hits.append(sl[[1, 0]][:, sigma[sl[0] - lo] == sl[0] + sl[1]])
        return np.concatenate(hits, axis=1), taken

    hits, taken = zip(*_each_segment(work, segs, threads, progress, "resolved segment"))
    _check_conserved("resolve queries", sum(taken), sum(c["queries"] for c in counts))
    return np.concatenate(hits, axis=1)


# --- record emission ---------------------------------------------------------


def _emit_records(
    candidates: Sequence[tuple[int, ...]], kind_flag: str, filters: frozenset
) -> list[TupleRecord]:
    """Re-validate all candidates in one classify_all call, insist the
    searched class really holds, apply filters.  Candidates are exact by
    construction, so a re-validation failure is an internal defect and
    raises, naming the first failing candidate in the given order."""
    records = classify_all(candidates)
    for members, record in zip(candidates, records):
        if not record.flags[kind_flag]:
            raise ArithmeticError(
                f"candidate {members} failed exact {kind_flag} re-validation; "
                "the sieve or the join is defective"
            )
    return [r for r in records if all(r.flags[_FILTER_FLAG[f]] for f in filters)]


def _candidate_tuples(*cols: np.ndarray) -> list[tuple[int, ...]]:
    """The distinct member tuples that the columns hold row by row, sorted."""
    return sorted(set(zip(*(col.tolist() for col in cols))))


# --- public searches ----------------------------------------------------------


def search_pairs(
    config: SearchConfig, *, progress: Progress | None = None
) -> list[TupleRecord]:
    """All pairs (M <= N <= bound) of the configured kind, sorted ascending.

    Every kind runs the same path: pass 1 writes each segment's runs as
    .npy files and reports their row counts, then the ratio kinds join the
    runs and amicable resolves its partner queries, each checked against
    those counts.  The files live in one temporary harmonia-runs-*
    directory (under TMPDIR), removed when the search ends, and take up to
    about 11 bytes per integer of the bound.  The segment length follows
    from the bound (_segment_length).  Results are identical across segment
    lengths and thread counts.  The ratio kinds need bound < 2^30
    (_exact_matches).
    """
    if config.k != 2:
        raise ValueError(f"search_pairs needs k=2, got k={config.k}")
    if config.kind != "amicable" and config.bound >= 1 << 30:
        raise ValueError(f"{config.kind} pair search needs bound < 2^30, got {config.bound}")
    segs = _segments(config.bound)
    star = config.kind == "unitary_harmonious"
    # pass 1 and the resolve pass sieve into their worker's own lanes
    thread_lanes = _per_thread(lambda: SieveLanes(max(hi - lo + 1 for lo, hi in segs)))
    with tempfile.TemporaryDirectory(prefix="harmonia-runs-") as rundir:

        def path(i: int, name: str) -> str:
            return os.path.join(rundir, f"{name}-{i:06d}.npy")

        def write(i: int) -> dict[str, int]:
            lo, hi = segs[i]
            if config.kind == "amicable":
                runs = _amicable_segment_runs(
                    lo, hi, config.bound, config.equal_allowed, thread_lanes()
                )
            else:
                runs = _ratio_segment_runs(lo, hi, config.bound, star, thread_lanes())
            counts = {}
            for name, run in runs:
                np.save(path(i, name), run)
                counts[name] = run.shape[1]
                # released before the segment's next run is built
                del run
            return counts

        def load(i: int, name: str) -> np.ndarray:
            with _LOAD_LOCK:
                return np.load(path(i, name), mmap_mode="r")

        counts = list(
            _each_segment(write, range(len(segs)), config.threads, progress, "wrote segment")
        )
        if config.kind == "amicable":
            m_col, n_col = _resolve_amicable_queries(
                load, counts, segs, thread_lanes, config.threads, progress
            )
        else:
            m_col, n_col = _join(
                load, counts, config.bound, config.equal_allowed, config.threads, progress
            )
    return _emit_records(_candidate_tuples(m_col, n_col), config.kind, config.filters)


def _anarchy_targets(small_sigma: np.ndarray, n_bound: int) -> tuple[list, np.ndarray]:
    """(rows, doubles): the (num, den, m, a) rows, in Python ints, with
    num/den = t * (2^(a+1) - 1) / 2^a, t = (sigma(m) - m)/sigma(m), for every
    m at a = 0 and every odd square m > 1 at each a >= 1 with 2^a <= n_bound,
    sorted by their doubles num / den, and those doubles.  An odd o matches
    a row exactly when N = 2^a * o has N/sigma(N) = t.  Python's int
    division is correctly rounded at any size, so no row is reduced, and
    none is dropped: a row that no o can match costs one slot of the index."""
    odd_squares = {k * k for k in range(3, math.isqrt(small_sigma.size) + 1, 2)}
    rows = [
        ((s - m) * ((2 << a) - 1), s << a, m, a)
        for m, s in enumerate(small_sigma.tolist(), 1)
        for a in range(n_bound.bit_length() if m in odd_squares else 1)
    ]
    rows.sort(key=lambda row: row[0] / row[1])
    return rows, np.array([num / den for num, den, _, _ in rows])


def _mark_slots(targets: int) -> int:
    """Slots of the anarchy sweep's prefilter table over that many target
    doubles, one bool each: the least power of two with 32 slots a
    target, so that at most ~3% of the swept o pass to the probe, but
    never fewer than 2^20 (1 MB) nor more than 2^26 (64 MB)."""
    return min(1 << 26, max(1 << 20, 1 << (32 * targets - 1).bit_length()))


def search_anarchy_pairs(
    m_bound: int,
    n_bound: int,
    *,
    threads: int = 0,
    progress: Progress | None = None,
) -> list[TupleRecord]:
    """Harmonious pairs with M <= m_bound, M <= N <= n_bound passing the
    anarchy test; n_bound is at most MAX_SIEVE_BOUND.

    The sweep reads sigma of the odd integers only.  Anarchy asks for
    gcd(N, M*sigma(M)) = gcd(M, N*sigma(N)) = 1, so an even N forces M and
    sigma(M) odd, which makes M an odd square (the parity rule): every
    anarchy pair has N odd or M an odd square.  Write N = 2^a * o with o
    odd; sigma(N) = (2^(a+1) - 1) * sigma(o), so N/sigma(N) = t exactly when
    o/sigma(o) = t * (2^(a+1) - 1) / 2^a.  The small side's targets are
    therefore every M's complement t with a = 0, plus the scaled
    complements of the odd-square M for each a >= 1, as the (num, den, M, a)
    rows of _anarchy_targets.  One streaming sweep over the odd o in
    [1, n_bound] probes them, and a match gives N = 2^a * o, kept when
    M <= N <= n_bound.  The candidates are the harmonious pairs with N odd
    or M an odd square; _emit_records drops those that fail anarchy.

    Each swept o/sigma(o) is matched as a float64, first in a table over
    the low mantissa bits of the targets' doubles (_mark_slots), then by
    _probe.  Each worker thread of the sweep owns the sieve's two lanes for
    the whole sweep, sized for the longest segment's odd column; they are
    thread-local on the sweep's pool, so they die with it.  The sieve
    leaves sigma in the out lane.  The ratio pass then walks it
    _RATIO_CHUNK entries at a time: it builds the chunk's o as a fresh
    float64 column, exact since o < 2^53, divides them by sigma and masks
    them in place, and looks the slots up in the table; the o of entry i
    is lo' + 2i, with lo' the segment's first odd integer.  Only the hits
    leave the chunk, and their ratios are recomputed from sigma in the
    lane.
    o and sigma(o) < 6o lie below 2^53, so o/sigma(o) is correctly
    rounded, as is each target's num / den: equal rationals give equal
    doubles and no match is lost.  Only o * den == num * sigma(o), in
    Python ints, decides; every record is re-validated by classify_all.
    """
    m_bound, n_bound = _integer("m_bound", m_bound), _integer("n_bound", n_bound)
    if not 2 <= m_bound <= n_bound:
        raise ValueError(f"need 2 <= m_bound <= n_bound, got ({m_bound}, {n_bound})")
    if n_bound > MAX_SIEVE_BOUND:
        raise ValueError(f"n_bound {n_bound} exceeds the sieve limit {MAX_SIEVE_BOUND}")
    threads = _integer("threads", threads, 0)
    small_sigma = sieve_tables(1, m_bound)
    rows, doubles = _anarchy_targets(small_sigma, n_bound)
    index = _key_index(doubles)
    row_ids = np.arange(len(rows))
    # equal doubles have equal bits, so a table over the low mantissa bits
    # passes every o whose double is among them (and a few of the rest)
    mask = _mark_slots(len(rows)) - 1
    marks = np.zeros(mask + 1, dtype=bool)
    marks[doubles.view(np.int64) & mask] = True
    segs = _segments(n_bound)
    # the odd o of a segment, at most; every worker's lanes hold that many
    entries = max((hi - lo) // 2 + 1 for lo, hi in segs)
    thread_lanes = _per_thread(lambda: SieveLanes(entries))

    def work(seg: tuple[int, int]) -> np.ndarray:
        lo_n, hi_n = seg
        sigma = sieve_tables(lo_n, hi_n, odd=True, lanes=thread_lanes())
        # entry i is o = first + 2i
        first = lo_n | 1
        hits = []
        for at in range(0, sigma.size, _RATIO_CHUNK):
            part = sigma[at : at + _RATIO_CHUNK]
            # the chunk's o as doubles, exact since o < 2^53
            ratio = np.arange(first + 2 * at, first + 2 * (at + part.size), 2, np.float64)
            ratio /= part
            slots = ratio.view(np.int64)
            slots &= mask
            # every slot is in range, so "wrap", take's fastest mode, never wraps
            marked = np.take(marks, slots, mode="wrap")
            hits.append(np.flatnonzero(marked) + at)
        hit = np.concatenate(hits)
        at, row = _probe(index, row_ids, (first + 2 * hit) / sigma[hit], hit)
        pairs = []
        for odd, s, r in zip((first + 2 * at).tolist(), sigma[at].tolist(), row.tolist()):
            num, den, m, a = rows[r]
            # equal doubles; the rationals are equal only when this holds
            if odd * den == num * s and m <= odd << a <= n_bound:
                pairs.append((m, odd << a))
        return np.array(pairs, dtype=np.int64).reshape(-1, 2).T

    parts = list(_each_segment(work, segs, threads, progress, "swept segment"))
    pairs = _candidate_tuples(*np.concatenate(parts, axis=1))
    return _emit_records(pairs, "harmonious", frozenset({"anarchy"}))


# --- triples -------------------------------------------------------------------


def _ratio_triples(config: SearchConfig) -> np.ndarray:
    """The ratio-kind triples, one per column of a 3-row array, members
    ascending down each column; a triple may appear more than once.

    With a triple's ratios r = n/sigma(n) sorted as r_a <= r_b <= r_c and
    summing to 1, r_a <= 1/3, so sigma(a) >= 3a, and r_a <= r_b <=
    (1 - r_a)/2, so sigma(b) >= 2b.  Each such anchor a takes the b of that
    window from the ratio-sorted n with sigma >= 2n, and probes the double
    of each residual 1 - r_a - r_b = tn / (sigma_a * sigma_b) into the bits
    of every n's ratio.  The float64 window is widened by a relative slack;
    only the confirm c * sigma_a * sigma_b == tn * sigma(c) decides.

    n < sigma(n), so with sigma_max^3 < 2^63 every tn and sigma_a * sigma_b
    stays below 2^42: its double is correctly rounded, as is every c/sigma(c),
    so equal rationals have equal bits and no match is lost.  The confirm's
    products stay below sigma_max^3."""
    bound = config.bound
    sigma = sieve_tables(1, bound, star=config.kind == "unitary_harmonious")
    sigma_max = int(sigma.max())
    if sigma_max**3 >= 1 << 63:
        raise ValueError(f"sigma values up to {sigma_max} overflow the triple search")
    n = np.arange(1, bound + 1, dtype=np.int64)
    ratio = n / sigma
    keys = _joined_run([(ratio.view(np.int64), n)])
    index = _key_index(keys[0])
    mid = np.flatnonzero(sigma >= 2 * n)
    mid = mid[np.argsort(ratio[mid])]
    mid_ratio = ratio[mid]
    # far wider than the few ulps by which the computed (1 - r)/2 can fall
    # below the double of an exactly equal ratio
    slack = 1e-9

    parts = [np.empty((3, 0), dtype=np.int64)]
    for a in np.flatnonzero(sigma >= 3 * n).tolist():
        r = ratio[a]
        lo = np.searchsorted(mid_ratio, r * (1 - slack))
        hi = np.searchsorted(mid_ratio, (1 - r) / 2 * (1 + slack), side="right")
        b = mid[lo:hi]
        den = sigma[a] * sigma[b]
        tn = (sigma[a] - n[a]) * sigma[b] - n[b] * sigma[a]
        at, c = _probe(index, keys[1], (tn / den).view(np.int64), np.arange(b.size))
        ok = c * den[at] == tn[at] * sigma[c - 1]
        b_col, c_col = n[b[at[ok]]], c[ok]
        parts.append(np.stack((np.full_like(b_col, a + 1), b_col, c_col)))
    found = np.sort(np.concatenate(parts, axis=1), axis=0)
    if not config.equal_allowed:
        found = found[:, (found[0] < found[1]) & (found[1] < found[2])]
    return found


def _amicable_triples(config: SearchConfig) -> np.ndarray:
    bound = config.bound
    sigma = sieve_tables(1, bound)
    order = np.argsort(sigma, kind="stable")
    equal = config.equal_allowed

    found: list[tuple[int, int, int]] = []
    for total, a, b in zip(*(col.tolist() for col in _key_index(sigma[order]))):
        if b - a < (1 if equal else 3):
            continue
        # stable argsort keeps index order, so members are already ascending
        members = (order[a:b] + 1).tolist()
        present = set(members)
        for i, m1 in enumerate(members):
            for j in range(i if equal else i + 1, len(members)):
                m2 = members[j]
                m3 = total - m1 - m2
                if m3 < (m2 if equal else m2 + 1):
                    break
                if m3 in present:
                    found.append((m1, m2, m3))
    return np.array(found, dtype=np.int64).reshape(-1, 3).T


def search_triples(config: SearchConfig) -> list[TupleRecord]:
    """All sorted triples (M1 <= M2 <= M3 <= bound) of the configured kind.

    Ratio kinds anchor the member of smallest ratio, which has sigma >= 3n,
    take the middle member from a ratio window of the n with sigma >= 2n,
    probe the double of the residual 1 - r1 - r2 into the doubles of every
    n/sigma(n) and confirm each match exactly (_ratio_triples).  Amicable
    triples instead group members by sigma and close each pair inside its
    class with a membership probe.  Both take sigma (sigma* for the
    unitary kind) of [1, bound] from one sieve_tables call, so the triples
    run on one thread and ignore config.threads.  The bound is capped at
    TRIPLE_BOUND_CAP.
    """
    if config.k != 3:
        raise ValueError(f"search_triples needs k=3, got k={config.k}")
    if config.bound > TRIPLE_BOUND_CAP:
        raise ValueError(
            f"triple search is capped at bound {TRIPLE_BOUND_CAP}; got {config.bound}"
        )
    if config.kind == "amicable":
        found = _amicable_triples(config)
    else:
        found = _ratio_triples(config)
    return _emit_records(_candidate_tuples(*found), config.kind, config.filters)


# --- count table ----------------------------------------------------------------


@dataclass(frozen=True)
class CountRow:
    bound: int
    harmonious: int
    coprime_harmonious: int


def count_table(
    bounds: Sequence[int],
    *,
    threads: int = 0,
    progress: Progress | None = None,
) -> tuple[CountRow, ...]:
    """Harmonious-pair counts (all, and pairwise-coprime) at each bound.

    One search at the largest bound supplies every row: a pair (M, N) counts
    toward bound b exactly when N <= b.
    """
    ladder = [_integer("bounds", b) for b in bounds]
    if not ladder:
        raise ValueError("need at least one bound")
    if ladder[0] < 2:
        raise ValueError(f"bounds must be >= 2, got {ladder[0]}")
    if any(b >= c for b, c in zip(ladder, ladder[1:])):
        raise ValueError(f"bounds must be strictly ascending, got {ladder}")
    config = SearchConfig(bound=ladder[-1], kind="harmonious", threads=threads)
    records = search_pairs(config, progress=progress)
    rows = []
    for b in ladder:
        hits = [r for r in records if r.members[-1] <= b]
        rows.append(
            CountRow(
                bound=b,
                harmonious=len(hits),
                coprime_harmonious=sum(1 for r in hits if r.flags["pairwise_coprime"]),
            )
        )
    return tuple(rows)
