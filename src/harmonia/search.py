"""Bounded searches for harmonious, unitary harmonious, and amicable tuples.

Pair strategy: a pair (M, N) has M/sigma(M) + N/sigma(N) = 1 exactly when
the reduced complement (sigma(M) - M)/sigma(M) equals N's reduced ratio
N/sigma(N).  Two ratios that sum to 1 straddle 1/2, so one member has
sigma >= 2n and the other sigma <= 2n; perfect numbers lie on both sides.
This half-plane split sizes the join: only the abundant-or-perfect n (about
a quarter of all integers) are keyed by their ratio, and only the
deficient-or-perfect n probe with their complement.  The unitary kind
splits the same way on sigma*.

One segment pipeline serves every pair kind in both memory regimes.  For
the ratio kinds, pass 1 sieves each segment once and emits a code-sorted
key run and a code-sorted query run.  Reduced fractions are packed into
int64 codes: the numerator is shifted past the denominator width, and every
segment checks that its sigma fits that width.  The join merges the runs
code-range bucket by bucket and probes the sorted queries into the sorted
keys.  Below the in-memory limit the runs are arrays; above it, or whenever
a checkpoint is configured, they are .npy files.  Pair search needs
bound < 2^30: from there on, a numerator and a denominator no longer fit in
63 bits together.  Every segment loop, the anarchy sweep's too, runs on one
thread-pool driver, _each_segment.

The anarchy sweep pairs a small side M <= m_bound with every N up to a much
larger n_bound, streaming N through the same complement match.  Before it
builds exact codes it compares float64s: N/sigma(N) against the small
side's (sigma(M) - M)/sigma(M), hashed on their low mantissa bits.  Equal
rationals whose parts are below 2^53 round to the same double, and
bound < 2^30 guarantees that, so the prefilter drops no match; the few N
that pass go through the exact codes.

Amicable pairs use the aliquot shortcut instead: the only possible partner
of M is s(M) = sigma(M) - M, so a pair exists exactly when
sigma(s(M)) == sigma(M).  Pass 1 puts each M's (s(M), sigma(M)) query into
the same run stores, and a resolve pass re-sieves each segment to check the
queries whose partner lies in it.

Every candidate a join produces is re-validated through classify, which
rebuilds sigma from a fresh factorization, so sieve or join defects cannot
leak into results; a candidate that fails re-validation raises instead of
being dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterator, Sequence

import numpy as np

from .arith import DEFAULT_SEGMENT_LENGTH, primes_upto, sieve_tables
from .classify import TupleRecord, classify

KINDS = ("harmonious", "unitary_harmonious", "amicable")
FILTER_NAMES = ("coprime", "anarchy")
_FILTER_FLAG = {"coprime": "pairwise_coprime", "anarchy": "anarchy"}

DEFAULT_IN_MEMORY_LIMIT = 10**7
TRIPLE_BOUND_CAP = 10**5
# key bytes per bucket of the merge join; a bucket's queries take about
# three times as much
_BUCKET_TARGET_BYTES = 64 << 20
# layout of the run files; it enters the config digest, so a checkpoint
# written under an older layout is refused instead of resumed
_RUN_LAYOUT = 2
# slots of the anarchy sweep's float64 prefilter table (1 MB of bool)
_MARK_SLOTS = 1 << 20

Progress = Callable[[str], None]


class CheckpointMismatch(RuntimeError):
    """Checkpoint on disk does not belong to the requested configuration."""


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
    segment_length: int = DEFAULT_SEGMENT_LENGTH
    in_memory_limit: int = DEFAULT_IN_MEMORY_LIMIT
    checkpoint_path: str | None = None
    threads: int = 0

    def __post_init__(self):
        if self.bound < 2:
            raise ValueError(f"bound must be >= 2, got {self.bound}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.k not in (2, 3):
            raise ValueError(f"k must be 2 or 3, got {self.k}")
        object.__setattr__(self, "filters", frozenset(self.filters))
        bad = self.filters - set(FILTER_NAMES)
        if bad:
            raise ValueError(f"unknown filters {sorted(bad)}; known: {FILTER_NAMES}")
        if self.segment_length < 1 << 10:
            raise ValueError(f"segment_length must be >= 1024, got {self.segment_length}")
        if self.in_memory_limit < 1:
            raise ValueError("in_memory_limit must be positive")
        if self.threads < 0:
            raise ValueError("threads must be >= 0 (0 = auto)")

    @property
    def equal_allowed(self) -> bool:
        if self.allow_equal_members is not None:
            return self.allow_equal_members
        return self.kind != "amicable"

    def digest(self) -> str:
        """Hex digest over every field that influences the result set or the
        layout of persisted run files.  Thread count and paths are excluded:
        they must never change results."""
        payload = {
            "bound": self.bound,
            "kind": self.kind,
            "k": self.k,
            "filters": sorted(self.filters),
            "allow_equal": self.equal_allowed,
            "segment_length": self.segment_length,
            "in_memory_limit": self.in_memory_limit,
            "run_layout": _RUN_LAYOUT,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    config_digest: str
    last_segment: int
    partial_digest: str


# --- checkpoint plumbing ----------------------------------------------------
#
# A checkpoint is only useful when partial work survives the process, so a
# configured checkpoint_path forces the file-backed pipeline and the run
# files live beside the checkpoint in <checkpoint_path>.runs/.  The file
# records the sha256 of every completed segment's run files; resuming
# re-hashes them, and any disagreement (foreign config, missing file,
# altered bytes) refuses rather than risking a silently different result.


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _partial_digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def load_checkpoint(path: str) -> tuple[Checkpoint, list] | None:
    """(checkpoint, per-segment file-digest rows), or None when absent."""
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            raw = json.load(fh)
        ck = Checkpoint(
            config_digest=raw["config_digest"],
            last_segment=int(raw["last_segment"]),
            partial_digest=raw["partial_digest"],
        )
        rows = raw["runs"]
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            raise ValueError("runs must be a list of objects")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointMismatch(f"unreadable checkpoint {path}: {exc}") from exc
    if _partial_digest(rows) != ck.partial_digest or len(rows) != ck.last_segment + 1:
        raise CheckpointMismatch(f"checkpoint {path} is internally inconsistent")
    return ck, rows


def _save_checkpoint(path: str, config_digest: str, rows: list) -> None:
    payload = {
        "config_digest": config_digest,
        "last_segment": len(rows) - 1,
        "partial_digest": _partial_digest(rows),
        "runs": rows,
    }
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- shared numeric helpers -------------------------------------------------


def _sigma_cap(bound: int) -> int:
    """Strict upper bound for sigma(n) (hence also sigma*(n)) over n <= bound.

    Robin's unconditional estimate: sigma(n)/n < e^gamma lnln n + 0.6483/lnln n
    for n >= 3.  The leading constant is rounded up and the result padded 2%,
    so float evaluation cannot undercut the true maximum.
    """
    if bound < 16:
        return 12 * bound + 12
    ll = math.log(math.log(bound))
    ratio = 1.7811 * ll + 0.6483 / ll
    return int(bound * ratio * 1.02) + 16


def _code_shift(bound: int, sigma_max: int) -> int:
    """Bit offset separating numerator from denominator in packed key codes."""
    shift = int(sigma_max).bit_length()
    if int(bound).bit_length() + shift > 63:
        raise ValueError(
            f"ratio keys for bound {bound} (sigma up to {sigma_max}) "
            "do not fit in int64 codes"
        )
    return shift


def _check_packing(sigma: np.ndarray, shift: int) -> None:
    """Refuse a segment whose sigma overflows the denominator width: its
    codes would collide with other fractions' and pairs would go missing."""
    top = int(sigma.max())
    if top >= 1 << shift:
        raise ArithmeticError(
            f"sigma value {top} does not fit the {shift}-bit key packing; "
            "the sigma cap estimate is too low"
        )


def _segments(bound: int, segment_length: int) -> list[tuple[int, int]]:
    """Inclusive segments covering [1, bound]."""
    return [
        (lo, min(lo + segment_length - 1, bound))
        for lo in range(1, bound + 1, segment_length)
    ]


def _threads(requested: int) -> int:
    return requested if requested > 0 else (os.cpu_count() or 1)


def _each_segment(
    fn: Callable,
    items: Sequence,
    threads: int,
    progress: Progress | None = None,
    phase: str = "",
    start: int = 0,
) -> Iterator:
    """fn(item) for items[start:] on a thread pool, yielded in item order.

    Each result is reported as "<phase> segment <i>/<len(items)>", counted
    from `start`.  When fn raises, the items not yet started are cancelled
    instead of run, and the error propagates."""
    pool = ThreadPoolExecutor(max_workers=_threads(threads))
    try:
        futures = [pool.submit(fn, item) for item in items[start:]]
        for i, fut in enumerate(futures, start + 1):
            result = fut.result()
            if progress:
                progress(f"{phase} segment {i}/{len(items)}")
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def _segment_sigma(lo: int, hi: int, primes: np.ndarray, star: bool) -> np.ndarray:
    t = sieve_tables(lo, hi, star=star, primes=primes)
    return t.sigma_star if star else t.sigma


def _sigma_full(bound: int, segment_length: int, star: bool, threads: int) -> np.ndarray:
    """sigma (or sigma*) of every n in [1, bound] as one array."""
    segs = _segments(bound, segment_length)
    primes = primes_upto(isqrt(bound))
    return np.concatenate(
        list(_each_segment(lambda seg: _segment_sigma(*seg, primes, star), segs, threads))
    )


def _ratio_keys(n: np.ndarray, s: np.ndarray, shift: int) -> np.ndarray:
    """Packed code of the reduced ratio n/s for each entry."""
    g = np.gcd(n, s)
    return ((n // g) << shift) | (s // g)


def _complement_keys(
    n: np.ndarray, s: np.ndarray, shift: int, partner_cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """(codes, owners) of reduced (s-n)/s; entries whose reduced numerator
    cannot be any partner's reduced numerator (0, or above partner_cap) are
    dropped since no key can ever match them."""
    num = s - n
    g = np.gcd(num, s)
    qn = num // g
    qd = s // g
    keep = (qn >= 1) & (qn <= partner_cap)
    return (qn[keep] << shift) | qd[keep], n[keep]


def _sorted_run(*rows: np.ndarray) -> np.ndarray:
    """The rows stacked into one array, columns sorted by the first row."""
    order = np.argsort(rows[0])
    return np.stack([row[order] for row in rows])


def _key_index(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct codes, first row, end row) of each run of equal sorted codes."""
    if not codes.size:
        return codes, codes, codes
    cut = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    starts = np.concatenate(([0], cut))
    stops = np.concatenate((cut, [codes.size]))
    return codes[starts], starts, stops


def _probe(
    index: tuple[np.ndarray, np.ndarray, np.ndarray],
    values: np.ndarray,
    queries: np.ndarray,
    owners: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One (owner, value) row per query code equal to an indexed key code.

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


# --- run stores ---------------------------------------------------------------
#
# Pass 1 puts each segment's runs into a store under (segment, name): the
# ratio kinds write a "keys" and a "comps" run of (code, n) rows, amicable
# writes a "queries" run of (partner, sigma_m, m) rows.  Every run is one
# int64 array sorted by its first row.


class _MemoryRuns(dict):
    """Run store of the in-memory regime."""

    def put(self, index: int, name: str, run: np.ndarray) -> str:
        self[index, name] = run
        return ""

    def load(self, index: int, name: str) -> np.ndarray:
        return self[index, name]


class _FileRuns:
    """Run store of the file-backed regime: <name>-<segment>.npy files whose
    sha256 goes into the checkpoint."""

    def __init__(self, rundir: str) -> None:
        self.rundir = rundir

    def path(self, index: int, name: str) -> str:
        return os.path.join(self.rundir, f"{name}-{index:06d}.npy")

    def put(self, index: int, name: str, run: np.ndarray) -> str:
        np.save(self.path(index, name), run)
        return _sha256_file(self.path(index, name))

    def load(self, index: int, name: str) -> np.ndarray:
        return np.load(self.path(index, name), mmap_mode="r")


@contextlib.contextmanager
def _run_store(config: SearchConfig, in_memory: bool) -> Iterator:
    """The regime's run store; a temporary run directory is removed on exit."""
    if in_memory:
        yield _MemoryRuns()
    elif config.checkpoint_path:
        rundir = config.checkpoint_path + ".runs"
        os.makedirs(rundir, exist_ok=True)
        yield _FileRuns(rundir)
    else:
        with tempfile.TemporaryDirectory(prefix="harmonia-runs-") as tmp:
            yield _FileRuns(tmp)


# --- pass 1: segment runs -----------------------------------------------------


def _ratio_segment_runs(
    lo: int, hi: int, bound: int, shift: int, primes: np.ndarray, star: bool
) -> dict[str, np.ndarray]:
    """Ratio codes of the segment's n with sigma >= 2n as keys, complement
    codes of its n with sigma <= 2n as queries."""
    sigma = _segment_sigma(lo, hi, primes, star)
    _check_packing(sigma, shift)
    n = np.arange(lo, hi + 1, dtype=np.int64)
    key = sigma >= 2 * n
    query = sigma <= 2 * n
    return {
        "keys": _sorted_run(_ratio_keys(n[key], sigma[key], shift), n[key]),
        "comps": _sorted_run(*_complement_keys(n[query], sigma[query], shift, bound)),
    }


def _amicable_segment_runs(
    lo: int, hi: int, bound: int, equal_allowed: bool, primes: np.ndarray
) -> dict[str, np.ndarray]:
    sigma = _segment_sigma(lo, hi, primes, star=False)
    n = np.arange(lo, hi + 1, dtype=np.int64)
    partner = sigma - n
    floor = n if equal_allowed else n + 1
    ok = (partner >= floor) & (partner <= bound)
    return {"queries": _sorted_run(partner[ok], sigma[ok], n[ok])}


def _resume(path: str, digest: str, nsegs: int, store: _FileRuns, names) -> list:
    """Digest rows of the segments a checkpoint completed, after re-hashing
    their run files."""
    loaded = load_checkpoint(path)
    if loaded is None:
        return []
    ck, rows = loaded
    if ck.config_digest != digest:
        raise CheckpointMismatch(
            f"checkpoint {path} belongs to config {ck.config_digest[:12]}, not {digest[:12]}"
        )
    if len(rows) > nsegs:
        raise CheckpointMismatch(f"checkpoint {path} records more segments than the run has")
    for i, row in enumerate(rows):
        for name in names:
            run = store.path(i, name)
            if name not in row or not os.path.exists(run):
                raise CheckpointMismatch(f"run file {run} from checkpoint is missing")
            if _sha256_file(run) != row[name]:
                raise CheckpointMismatch(f"run file {run} does not match its checkpoint digest")
    return rows


def _pass1(
    config: SearchConfig,
    segs: list[tuple[int, int]],
    shift: int,
    store,
    progress: Progress | None,
) -> None:
    """Put every segment's runs into the store, resuming from the checkpoint
    when one is configured."""
    digest = config.digest()
    names = ("queries",) if config.kind == "amicable" else ("keys", "comps")
    primes = primes_upto(isqrt(config.bound))
    star = config.kind == "unitary_harmonious"
    rows: list[dict] = []
    if config.checkpoint_path:
        rows = _resume(config.checkpoint_path, digest, len(segs), store, names)
        if progress and rows:
            progress(f"resumed after segment {len(rows)}/{len(segs)}")

    def work(i: int) -> dict:
        lo, hi = segs[i]
        if config.kind == "amicable":
            runs = _amicable_segment_runs(lo, hi, config.bound, config.equal_allowed, primes)
        else:
            runs = _ratio_segment_runs(lo, hi, config.bound, shift, primes, star)
        return {name: store.put(i, name, run) for name, run in runs.items()}

    segments = range(len(segs))
    for row in _each_segment(work, segments, config.threads, progress, "wrote", len(rows)):
        rows.append(row)
        if config.checkpoint_path:
            _save_checkpoint(config.checkpoint_path, digest, rows)


# --- pass 2: join -------------------------------------------------------------


def _bucket_edges(bound: int, shift: int, total_keys: int) -> list[int]:
    """Code-range boundaries splitting the join into flat-memory buckets."""
    want = max(1, (total_keys * 16) // _BUCKET_TARGET_BYTES)
    buckets = 1 << min(12, max(0, want - 1).bit_length())
    return [((i * (bound + 1)) // buckets) << shift for i in range(buckets + 1)]


def _bucket_rows(
    store, nsegs: int, name: str, lo_edge: int, hi_edge: int | None
) -> np.ndarray:
    """Every segment's `name` rows with codes in [lo_edge, hi_edge), code-sorted."""
    parts = []
    for i in range(nsegs):
        run = store.load(i, name)
        a = int(np.searchsorted(run[0], lo_edge)) if lo_edge else 0
        b = int(np.searchsorted(run[0], hi_edge)) if hi_edge is not None else run.shape[1]
        parts.append(run[:, a:b])
    rows = np.concatenate(parts, axis=1)
    # the parts are sorted runs, which a stable (merging) sort exploits
    return rows[:, np.argsort(rows[0], kind="stable")] if nsegs > 1 else rows


def _join(
    store,
    nsegs: int,
    bound: int,
    shift: int,
    equal_allowed: bool,
    progress: Progress | None,
) -> np.ndarray:
    """Candidate pairs (M <= N) of the ratio runs, bucket by bucket, as the
    rows of one array."""
    total = sum(store.load(i, "keys").shape[1] for i in range(nsegs))
    edges = _bucket_edges(bound, shift, total)
    parts = []
    for b in range(len(edges) - 1):
        hi_edge = edges[b + 1] if b + 2 < len(edges) else None
        keys = _bucket_rows(store, nsegs, "keys", edges[b], hi_edge)
        comps = _bucket_rows(store, nsegs, "comps", edges[b], hi_edge)
        # two distinct perfect numbers match from both sides; the caller's
        # candidate set folds that duplicate
        found = _probe(_key_index(keys[0]), keys[1], comps[0], comps[1])
        parts.append(np.sort(found, axis=0))
        if progress:
            progress(f"joined bucket {b + 1}/{len(edges) - 1}")
    pairs = np.concatenate(parts, axis=1)
    return pairs if equal_allowed else pairs[:, pairs[0] < pairs[1]]


def _resolve_amicable_queries(
    store,
    segs: list[tuple[int, int]],
    bound: int,
    threads: int,
    progress: Progress | None,
) -> np.ndarray:
    """Re-sieve each segment and keep the queries whose partner lies in it
    and has the same sigma; (M, partner) pairs as the rows of one array."""
    primes = primes_upto(isqrt(bound))

    def work(seg: tuple[int, int]) -> np.ndarray:
        lo, hi = seg
        sigma = _segment_sigma(lo, hi, primes, star=False)
        hits = []
        for i in range(len(segs)):
            arr = store.load(i, "queries")
            a = int(np.searchsorted(arr[0], lo, side="left"))
            b = int(np.searchsorted(arr[0], hi, side="right"))
            sl = np.asarray(arr[:, a:b])
            hits.append(sl[[2, 0]][:, sigma[sl[0] - lo] == sl[1]])
        return np.concatenate(hits, axis=1)

    return np.concatenate(list(_each_segment(work, segs, threads, progress, "resolved")), axis=1)


# --- record emission ---------------------------------------------------------


def _emit_records(
    pairs: Sequence[tuple[int, ...]], kind_flag: str, filters: frozenset
) -> list[TupleRecord]:
    """Classify candidates, insist the searched class really holds, apply
    filters.  Candidates are exact by construction, so a re-validation
    failure is an internal defect and raises."""
    records = []
    for members in pairs:
        record = classify(members)
        if not record.flags[kind_flag]:
            raise ArithmeticError(
                f"candidate {members} failed exact {kind_flag} re-validation; "
                "the sieve or the join is defective"
            )
        if all(record.flags[_FILTER_FLAG[f]] for f in filters):
            records.append(record)
    return records


def _candidate_pairs(m_col: np.ndarray, n_col: np.ndarray) -> list[tuple[int, int]]:
    return sorted({(int(m), int(n)) for m, n in zip(m_col.tolist(), n_col.tolist())})


# --- public searches ----------------------------------------------------------


def search_pairs(
    config: SearchConfig, *, progress: Progress | None = None
) -> list[TupleRecord]:
    """All pairs (M <= N <= bound) of the configured kind, sorted ascending.

    Every kind runs the same path: pass 1 puts each segment's runs into a
    run store, then the ratio kinds join the runs and amicable resolves its
    partner queries.  The store holds arrays up to config.in_memory_limit;
    above that, or whenever a checkpoint_path is set (partial work can only
    be resumed from disk), it holds files.  Results are identical across
    segment lengths, thread counts, and the two regimes.
    """
    if config.k != 2:
        raise ValueError(f"search_pairs needs k=2, got k={config.k}")
    in_memory = config.bound <= config.in_memory_limit and not config.checkpoint_path
    shift = 0 if config.kind == "amicable" else _code_shift(config.bound, _sigma_cap(config.bound))
    segs = _segments(config.bound, config.segment_length)
    with _run_store(config, in_memory) as store:
        _pass1(config, segs, shift, store, progress)
        if config.kind == "amicable":
            m_col, n_col = _resolve_amicable_queries(
                store, segs, config.bound, config.threads, progress
            )
        else:
            m_col, n_col = _join(
                store, len(segs), config.bound, shift, config.equal_allowed, progress
            )
    return _emit_records(_candidate_pairs(m_col, n_col), config.kind, config.filters)


def search_anarchy_pairs(
    m_bound: int,
    n_bound: int,
    *,
    segment_length: int = DEFAULT_SEGMENT_LENGTH,
    threads: int = 0,
    progress: Progress | None = None,
) -> list[TupleRecord]:
    """Harmonious pairs with M <= m_bound, M <= N <= n_bound passing the
    anarchy test.

    The small side's complement keys form the haystack; one streaming sweep
    over [1, n_bound] probes the large side against it, so the large bound
    never needs an index of its own.  Before any exact key is built, each
    swept n's ratio n/sigma(n) is taken as a float64, and only the n whose
    double equals one of the small side's complement doubles go on to
    _ratio_keys and _probe.  That drops no match: integers below 2^53
    convert to float64 exactly and their quotient is correctly rounded, so
    equal rationals give the same double, and bound < 2^30 (enforced by
    _code_shift) keeps n and sigma(n) far below 2^53.  Equal doubles of
    unequal ratios fail the exact probe, and every record is re-validated
    by classify.
    """
    if not 2 <= m_bound <= n_bound:
        raise ValueError(f"need 2 <= m_bound <= n_bound, got ({m_bound}, {n_bound})")
    shift = _code_shift(n_bound, _sigma_cap(n_bound))
    small_sigma = _sigma_full(m_bound, segment_length, False, threads)
    _check_packing(small_sigma, shift)
    small_n = np.arange(1, m_bound + 1, dtype=np.int64)
    comps = _sorted_run(*_complement_keys(small_n, small_sigma, shift, n_bound))
    index = _key_index(comps[0])
    doubles = (small_sigma - small_n) / small_sigma
    # equal doubles have equal bits, so a table over the low mantissa bits
    # passes every n whose double is among them (and about 0.1% of the rest)
    marks = np.zeros(_MARK_SLOTS, dtype=bool)
    marks[doubles.view(np.int64) & (_MARK_SLOTS - 1)] = True

    segs = _segments(n_bound, segment_length)
    primes = primes_upto(isqrt(n_bound))

    def work(seg: tuple[int, int]) -> np.ndarray:
        lo_n, hi_n = seg
        sigma = _segment_sigma(lo_n, hi_n, primes, star=False)
        _check_packing(sigma, shift)
        n = np.arange(lo_n, hi_n + 1, dtype=np.int64)
        ratio = n / sigma
        hit = np.flatnonzero(marks[ratio.view(np.int64) & (_MARK_SLOTS - 1)])
        hit = hit[np.isin(ratio[hit], doubles)]
        n_col, m_col = _probe(index, comps[1], _ratio_keys(n[hit], sigma[hit], shift), n[hit])
        keep = n_col >= m_col
        return np.stack((m_col[keep], n_col[keep]))

    parts = list(_each_segment(work, segs, threads, progress, "swept"))
    pairs = _candidate_pairs(*np.concatenate(parts, axis=1))
    return _emit_records(pairs, "harmonious", frozenset({"anarchy"}))


# --- triples -------------------------------------------------------------------


def _ratio_triples(config: SearchConfig, progress: Progress | None) -> list[tuple]:
    bound = config.bound
    star = config.kind == "unitary_harmonious"
    sigma = _sigma_full(bound, config.segment_length, star, config.threads)
    n = np.arange(1, bound + 1, dtype=np.int64)
    g = np.gcd(n, sigma)
    rn = n // g
    rd = sigma // g
    sigma_max = int(sigma.max())
    if sigma_max * sigma_max >= 1 << 62:
        raise ValueError(f"sigma values up to {sigma_max} overflow the triple search")
    shift = _code_shift(bound, sigma_max)
    keys = _sorted_run((rn << shift) | rd, n)
    index = _key_index(keys[0])
    equal = config.equal_allowed

    found: list[tuple[int, int, int]] = []
    for m1 in range(1, bound + 1):
        i1 = m1 - 1
        # residual 1 - r1 = (rd - rn)/rd shares rd's reduction, so it is
        # already in lowest terms
        res_num = int(rd[i1]) - int(rn[i1])
        res_den = int(rd[i1])
        if res_num <= 0:
            continue
        start = i1 if equal else i1 + 1
        if start >= bound:
            continue
        tn = res_num * rd[start:] - res_den * rn[start:]
        live = np.nonzero(tn > 0)[0]
        if not live.size:
            continue
        tn = tn[live]
        td = res_den * rd[start:][live]
        m2 = n[start:][live]
        gg = np.gcd(tn, td)
        tn //= gg
        td //= gg
        fit = (tn <= bound) & (td <= sigma_max)
        if not fit.any():
            continue
        target = (tn[fit] << shift) | td[fit]
        m2 = m2[fit]
        m2_col, m3_col = _probe(index, keys[1], target, m2)
        keep = (m3_col >= m2_col) if equal else (m3_col > m2_col)
        for b, c in zip(m2_col[keep].tolist(), m3_col[keep].tolist()):
            found.append((m1, b, c))
        if progress and m1 % 8192 == 0:
            progress(f"first member {m1}/{bound}")
    return found


def _amicable_triples(config: SearchConfig) -> list[tuple]:
    bound = config.bound
    sigma = _sigma_full(bound, config.segment_length, False, config.threads)
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
    return found


def search_triples(
    config: SearchConfig, *, progress: Progress | None = None
) -> list[TupleRecord]:
    """All sorted triples (M1 <= M2 <= M3 <= bound) of the configured kind.

    Ratio kinds run meet-in-the-middle: with all reduced ratios code-sorted,
    each (M1, M2) prefix binary-searches the exact residual 1 - r1 - r2.
    That is quadratic, so the bound is capped at TRIPLE_BOUND_CAP.  Amicable
    triples instead group members by sigma and close each pair inside its
    class with a membership probe.
    """
    if config.k != 3:
        raise ValueError(f"search_triples needs k=3, got k={config.k}")
    if config.bound > TRIPLE_BOUND_CAP:
        raise ValueError(
            f"triple search is quadratic and capped at bound {TRIPLE_BOUND_CAP}; "
            f"got {config.bound}"
        )
    if config.kind == "amicable":
        found = _amicable_triples(config)
    else:
        found = _ratio_triples(config, progress)
    return _emit_records(sorted(found), config.kind, config.filters)


# --- count table ----------------------------------------------------------------


@dataclass(frozen=True)
class CountRow:
    bound: int
    harmonious: int
    coprime_harmonious: int


def count_table(
    bounds: Sequence[int],
    *,
    segment_length: int = DEFAULT_SEGMENT_LENGTH,
    in_memory_limit: int = DEFAULT_IN_MEMORY_LIMIT,
    threads: int = 0,
    progress: Progress | None = None,
) -> tuple[CountRow, ...]:
    """Harmonious-pair counts (all, and pairwise-coprime) at each bound.

    One search at the largest bound supplies every row: a pair (M, N) counts
    toward bound b exactly when N <= b.
    """
    ladder = [int(b) for b in bounds]
    if not ladder:
        raise ValueError("need at least one bound")
    if ladder[0] < 2:
        raise ValueError(f"bounds must be >= 2, got {ladder[0]}")
    if any(b >= c for b, c in zip(ladder, ladder[1:])):
        raise ValueError(f"bounds must be strictly ascending, got {ladder}")
    config = SearchConfig(
        bound=ladder[-1],
        kind="harmonious",
        segment_length=segment_length,
        in_memory_limit=in_memory_limit,
        threads=threads,
    )
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
