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
sieves each segment once and emits a code-sorted key run and a code-sorted
query run.  Reduced fractions are packed into int64 codes: the numerator
is shifted past the denominator width, and every segment checks that its
sigma fits that width, then that its keys stay below the abundancy cap.
The join goes code-range bucket by bucket: it merges every segment's keys
of the bucket into one index, and each segment's already sorted query
slice probes that index in place.  Every run is a .npy file: beside the
checkpoint when one is configured, in a temporary directory otherwise.
Segment lengths follow from the bound alone (_segment_length), so no
search has a tuning knob and a checkpoint resumes under any thread count.
Pair search needs bound < 2^30: from there on, a numerator and a
denominator no longer fit in 63 bits together.  Every segment loop, the
anarchy sweep's too, runs on one thread-pool driver, _each_segment.

The anarchy sweep pairs a small side M <= m_bound with every N up to a much
larger n_bound, streaming N through the same complement match over the odd
integers only.  Anarchy forces N odd or M an odd square (the parity rule),
and N = 2^a * o with o odd has N/sigma(N) = t exactly when
o/sigma(o) = t * (2^(a+1) - 1)/2^a.  So one sweep of the odd column of the
sieve probes every M's complement t, and the scaled targets of the
odd-square M for each a >= 1.  Before it builds exact codes it compares
float64s: o/sigma(o) against the targets, hashed on their low mantissa
bits.  Equal rationals whose parts are below 2^53 round to the same
double, and bound < 2^30 guarantees that, so the prefilter drops no match;
the few o that pass go through the exact codes.

Amicable pairs use the aliquot shortcut instead: the only possible partner
of M is s(M) = sigma(M) - M, so a pair exists exactly when
sigma(s(M)) == sigma(M).  Pass 1 puts each M's (s(M), sigma(M)) query into
the same run store, and a resolve pass re-sieves each segment to check the
queries whose partner lies in it.

Every search re-validates all its candidates in one classify_all call,
which factors each distinct member afresh by trial division, independent of
the sieve, and rebuilds sigma from that factorization.  So sieve or join
defects cannot leak into results: a candidate that fails re-validation
raises instead of being dropped.
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
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .arith import sieve_tables
from .classify import TupleRecord, classify_all

KINDS = ("harmonious", "unitary_harmonious", "amicable")
FILTER_NAMES = ("coprime", "anarchy")
_FILTER_FLAG = {"coprime": "pairwise_coprime", "anarchy": "anarchy"}

TRIPLE_BOUND_CAP = 10**5
# key bytes per bucket of the merge join; a bucket's queries take about
# three times as much
_BUCKET_TARGET_BYTES = 64 << 20
# layout of the run files; it enters the config digest, so a checkpoint
# written under an older layout is refused instead of resumed
_RUN_LAYOUT = 3
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
    checkpoint_path: str | None = None
    threads: int = 0

    def __post_init__(self):
        if self.bound < 2:
            raise ValueError(f"bound must be >= 2, got {self.bound}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.k not in (2, 3):
            raise ValueError(f"k must be 2 or 3, got {self.k}")
        if self.k == 3 and self.checkpoint_path is not None:
            raise ValueError("a checkpoint (--checkpoint) applies to pair search only, not k=3")
        object.__setattr__(self, "filters", frozenset(self.filters))
        bad = self.filters - set(FILTER_NAMES)
        if bad:
            raise ValueError(f"unknown filters {sorted(bad)}; known: {FILTER_NAMES}")
        if self.threads < 0:
            raise ValueError("threads must be >= 0 (0 = auto)")

    @property
    def equal_allowed(self) -> bool:
        if self.allow_equal_members is not None:
            return self.allow_equal_members
        return self.kind != "amicable"

    def digest(self) -> str:
        """Hex digest over every field that influences the result set or the
        layout of persisted run files, the derived segment length included,
        so a checkpoint cut under another segmentation is refused.  Thread
        count and paths are excluded: they must never change results."""
        payload = {
            "bound": self.bound,
            "kind": self.kind,
            "k": self.k,
            "filters": sorted(self.filters),
            "allow_equal": self.equal_allowed,
            "segment_length": _segment_length(self.bound),
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
# configured checkpoint_path keeps the run files beside the checkpoint in
# <checkpoint_path>.runs/ instead of a temporary directory.  The file
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


def _sigma_cap(bound: int) -> int:
    """Strict upper bound for sigma(n) (hence also sigma*(n)) over n <= bound."""
    a, b = _abundancy_cap(bound)
    return bound * a // b + 16


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
    top = int(sigma.max(initial=0))
    if top >= 1 << shift:
        raise ArithmeticError(
            f"sigma value {top} does not fit the {shift}-bit key packing; "
            "the sigma cap estimate is too low"
        )


def _check_abundancy(n: np.ndarray, sigma: np.ndarray, a: int, b: int) -> None:
    """Refuse keys whose sigma(n)/n reaches the abundancy cap a/b: the query
    prune, which trusts the cap, could drop their pairs."""
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
    so a checkpoint resumes under any thread count."""
    return min(1 << 22, max(1 << 10, -(-bound // 8)))


def _segments(bound: int) -> list[tuple[int, int]]:
    """Inclusive segments covering [1, bound]."""
    length = _segment_length(bound)
    return [(lo, min(lo + length - 1, bound)) for lo in range(1, bound + 1, length)]


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


def _sigma_full(bound: int, star: bool, threads: int) -> np.ndarray:
    """sigma (or sigma*) of every n in [1, bound] as one array."""
    return np.concatenate(
        list(_each_segment(lambda seg: sieve_tables(*seg, star=star), _segments(bound), threads))
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


# --- run store ----------------------------------------------------------------
#
# Pass 1 writes each segment's runs into the store under (segment, name):
# the ratio kinds write a "keys" and a "comps" run of (code, n) rows,
# amicable writes a "queries" run of (partner, sigma_m, m) rows.  Every run
# is one int64 array sorted by its first row.


class _FileRuns:
    """The run store of every pair search: <name>-<segment>.npy files in
    one directory, loaded memory-mapped."""

    def __init__(self, rundir: str) -> None:
        self.rundir = rundir

    def path(self, index: int, name: str) -> str:
        return os.path.join(self.rundir, f"{name}-{index:06d}.npy")

    def put(self, index: int, name: str, run: np.ndarray) -> None:
        np.save(self.path(index, name), run)

    def load(self, index: int, name: str) -> np.ndarray:
        return np.load(self.path(index, name), mmap_mode="r")


@contextlib.contextmanager
def _run_store(config: SearchConfig) -> Iterator[_FileRuns]:
    """The run store in <checkpoint_path>.runs/, or in a temporary
    harmonia-runs-* directory (under TMPDIR) that is removed on exit."""
    if config.checkpoint_path:
        rundir = config.checkpoint_path + ".runs"
        os.makedirs(rundir, exist_ok=True)
        yield _FileRuns(rundir)
    else:
        with tempfile.TemporaryDirectory(prefix="harmonia-runs-") as tmp:
            yield _FileRuns(tmp)


# --- pass 1: segment runs -----------------------------------------------------


def _ratio_segment_runs(
    lo: int, hi: int, bound: int, shift: int, star: bool
) -> dict[str, np.ndarray]:
    """Ratio codes of the segment's n with sigma >= 2n as keys, complement
    codes of its n with sigma <= 2n as queries.

    Every key n/sigma(n) lies above b/a, the inverse abundancy cap, which
    the segment checks after the key packing.  So only the queries whose
    complement (sigma - n)/sigma lies above b/a can match a key; the rest
    (about 40%) never enter the run."""
    sigma = sieve_tables(lo, hi, star=star)
    _check_packing(sigma, shift)
    n = np.arange(lo, hi + 1, dtype=np.int64)
    key = sigma >= 2 * n
    a, b = _abundancy_cap(bound)
    _check_abundancy(n[key], sigma[key], a, b)
    query = (sigma <= 2 * n) & ((sigma - n) * a > sigma * b)
    return {
        "keys": _sorted_run(_ratio_keys(n[key], sigma[key], shift), n[key]),
        "comps": _sorted_run(*_complement_keys(n[query], sigma[query], shift, bound)),
    }


def _amicable_segment_runs(
    lo: int, hi: int, bound: int, equal_allowed: bool
) -> dict[str, np.ndarray]:
    sigma = sieve_tables(lo, hi)
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
    """Put every segment's runs into the store.  With a checkpoint, resume
    from it and record each segment's run-file digests in it."""
    digest = config.digest()
    names = ("queries",) if config.kind == "amicable" else ("keys", "comps")
    star = config.kind == "unitary_harmonious"
    rows: list[dict] = []
    if config.checkpoint_path:
        rows = _resume(config.checkpoint_path, digest, len(segs), store, names)
        if progress and rows:
            progress(f"resumed after segment {len(rows)}/{len(segs)}")

    def work(i: int) -> dict:
        lo, hi = segs[i]
        if config.kind == "amicable":
            runs = _amicable_segment_runs(lo, hi, config.bound, config.equal_allowed)
        else:
            runs = _ratio_segment_runs(lo, hi, config.bound, shift, star)
        for name, run in runs.items():
            store.put(i, name, run)
        # only a checkpoint records the run files' digests
        if not config.checkpoint_path:
            return {}
        return {name: _sha256_file(store.path(i, name)) for name in runs}

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


def _bucket_slice(run: np.ndarray, lo_edge: int, hi_edge: int | None) -> np.ndarray:
    """The columns of a code-sorted run with codes in [lo_edge, hi_edge)."""
    a = int(np.searchsorted(run[0], lo_edge)) if lo_edge else 0
    b = int(np.searchsorted(run[0], hi_edge)) if hi_edge is not None else run.shape[1]
    return run[:, a:b]


def _bucket_rows(store, nsegs: int, lo_edge: int, hi_edge: int | None) -> np.ndarray:
    """Every segment's key rows with codes in [lo_edge, hi_edge), merged
    into one code-sorted array."""
    rows = np.concatenate(
        [_bucket_slice(store.load(i, "keys"), lo_edge, hi_edge) for i in range(nsegs)], axis=1
    )
    # the parts are sorted runs, which a stable (merging) sort exploits
    return rows[:, np.argsort(rows[0], kind="stable")] if nsegs > 1 else rows


def _check_conserved(phase: str, taken: int, written: int) -> None:
    """Refuse a pass whose slices do not add up to the rows pass 1 wrote:
    a row lost between the two drops its pairs without any other error."""
    if taken != written:
        raise ArithmeticError(
            f"{phase}: the slices hold {taken} rows, pass 1 wrote {written}; "
            "a bucket or segment slice lost rows"
        )


def _join(
    store,
    nsegs: int,
    bound: int,
    shift: int,
    equal_allowed: bool,
    progress: Progress | None,
) -> np.ndarray:
    """Candidate pairs (M <= N) of the ratio runs, bucket by bucket, as the
    rows of one array.

    Each bucket merges the keys of every segment into one index.  The
    queries are never merged: each segment's run is already code-sorted,
    so its slice of the bucket probes the index in place.  The buckets'
    key rows and query rows must add up to the pass-1 runs'
    (_check_conserved)."""
    total = sum(store.load(i, "keys").shape[1] for i in range(nsegs))
    queries = sum(store.load(i, "comps").shape[1] for i in range(nsegs))
    edges = _bucket_edges(bound, shift, total)
    parts = []
    joined_keys = joined_queries = 0
    for b in range(len(edges) - 1):
        hi_edge = edges[b + 1] if b + 2 < len(edges) else None
        keys = _bucket_rows(store, nsegs, edges[b], hi_edge)
        joined_keys += keys.shape[1]
        index = _key_index(keys[0])
        for i in range(nsegs):
            comps = _bucket_slice(store.load(i, "comps"), edges[b], hi_edge)
            joined_queries += comps.shape[1]
            # two distinct perfect numbers match from both sides; the
            # caller's candidate set folds that duplicate
            parts.append(np.stack(_probe(index, keys[1], comps[0], comps[1])))
        if progress:
            progress(f"joined bucket {b + 1}/{len(edges) - 1}")
    _check_conserved("join keys", joined_keys, total)
    _check_conserved("join queries", joined_queries, queries)
    pairs = np.sort(np.concatenate(parts, axis=1), axis=0)
    return pairs if equal_allowed else pairs[:, pairs[0] < pairs[1]]


def _resolve_amicable_queries(
    store,
    segs: list[tuple[int, int]],
    threads: int,
    progress: Progress | None,
) -> np.ndarray:
    """Re-sieve each segment and keep the queries whose partner lies in it
    and has the same sigma; (M, partner) pairs as the rows of one array.
    The segments' query slices must add up to the pass-1 runs
    (_check_conserved)."""

    def work(seg: tuple[int, int]) -> tuple[np.ndarray, int]:
        lo, hi = seg
        sigma = sieve_tables(lo, hi)
        hits, taken = [], 0
        for i in range(len(segs)):
            sl = np.asarray(_bucket_slice(store.load(i, "queries"), lo, hi + 1))
            taken += sl.shape[1]
            hits.append(sl[[2, 0]][:, sigma[sl[0] - lo] == sl[1]])
        return np.concatenate(hits, axis=1), taken

    hits, taken = zip(*_each_segment(work, segs, threads, progress, "resolved"))
    total = sum(store.load(i, "queries").shape[1] for i in range(len(segs)))
    _check_conserved("resolve queries", sum(taken), total)
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
    .npy files, then the ratio kinds join the runs and amicable resolves its
    partner queries.  The files live beside checkpoint_path when it is set
    and in a temporary directory otherwise, up to about 11 bytes per
    integer of the bound.  The segment length follows from the bound
    (_segment_length).  Results are identical across segment lengths and
    thread counts.
    """
    if config.k != 2:
        raise ValueError(f"search_pairs needs k=2, got k={config.k}")
    shift = 0 if config.kind == "amicable" else _code_shift(config.bound, _sigma_cap(config.bound))
    segs = _segments(config.bound)
    with _run_store(config) as store:
        _pass1(config, segs, shift, store, progress)
        if config.kind == "amicable":
            m_col, n_col = _resolve_amicable_queries(store, segs, config.threads, progress)
        else:
            m_col, n_col = _join(
                store, len(segs), config.bound, shift, config.equal_allowed, progress
            )
    return _emit_records(_candidate_tuples(m_col, n_col), config.kind, config.filters)


def _scaled_targets(small_sigma: np.ndarray, n_bound: int, shift: int) -> list[tuple[int, ...]]:
    """(code, m, 2^a) for each odd square m > 1 and a >= 1: the code of the
    reduced t * (2^(a+1) - 1) / 2^a, where t is m's complement
    (sigma(m) - m)/sigma(m).  An odd o matches it exactly when N = 2^a * o
    has N/sigma(N) = t.  A row whose reduced numerator exceeds n_bound / 2^a
    (every such o lies above it) or whose reduced denominator needs more
    than the shift's bits (no sigma that passes _check_packing matches it)
    is dropped."""
    rows = []
    for j in range(3, math.isqrt(small_sigma.size) + 1, 2):
        m = j * j
        s = int(small_sigma[m - 1])
        a = 1
        while 1 << a <= n_bound:
            t = Fraction((s - m) * ((2 << a) - 1), s << a)
            if t.numerator <= n_bound >> a and t.denominator < 1 << shift:
                rows.append(((t.numerator << shift) | t.denominator, m, 1 << a))
            a += 1
    return rows


def search_anarchy_pairs(
    m_bound: int,
    n_bound: int,
    *,
    threads: int = 0,
    progress: Progress | None = None,
) -> list[TupleRecord]:
    """Harmonious pairs with M <= m_bound, M <= N <= n_bound passing the
    anarchy test.

    The sweep reads sigma of the odd integers only.  Anarchy asks for
    gcd(N, M*sigma(M)) = gcd(M, N*sigma(N)) = 1, so an even N forces M and
    sigma(M) odd, which makes M an odd square (the parity rule): every
    anarchy pair has N odd or M an odd square.  Write N = 2^a * o with o
    odd; sigma(N) = (2^(a+1) - 1) * sigma(o), so N/sigma(N) = t exactly when
    o/sigma(o) = t * (2^(a+1) - 1) / 2^a.  The small side's targets are
    therefore every M's complement t with a = 0, plus the scaled
    complements of the odd-square M for each a >= 1 (_scaled_targets), as
    (code, M, 2^a) rows.  One streaming sweep over the odd o in
    [1, n_bound] probes them, and a match gives N = 2^a * o, kept when
    M <= N <= n_bound.  The candidates are the harmonious pairs with N odd
    or M an odd square; _emit_records drops those that fail anarchy.

    Before any exact key is built, each swept o's ratio o/sigma(o) is taken
    as a float64, and only the o whose double equals one of the targets'
    doubles go on to _ratio_keys and _probe.  That drops no match: integers
    below 2^53 convert to float64 exactly and their quotient is correctly
    rounded, so equal rationals give the same double.  bound < 2^30
    (enforced by _code_shift) keeps o and sigma(o) far below 2^53, and
    every target's reduced numerator (at most n_bound) and denominator
    (below 2^shift) too.  Equal doubles of unequal ratios fail the exact
    probe, and every record is re-validated by classify_all.
    """
    if not 2 <= m_bound <= n_bound:
        raise ValueError(f"need 2 <= m_bound <= n_bound, got ({m_bound}, {n_bound})")
    if threads < 0:
        raise ValueError("threads must be >= 0 (0 = auto)")
    shift = _code_shift(n_bound, _sigma_cap(n_bound))
    small_sigma = _sigma_full(m_bound, False, threads)
    _check_packing(small_sigma, shift)
    small_n = np.arange(1, m_bound + 1, dtype=np.int64)
    codes, owners = _complement_keys(small_n, small_sigma, shift, n_bound)
    scaled = np.array(_scaled_targets(small_sigma, n_bound, shift), dtype=np.int64).reshape(-1, 3)
    targets = _sorted_run(
        np.concatenate((codes, scaled[:, 0])),
        np.concatenate((owners, scaled[:, 1])),
        np.concatenate((np.ones_like(owners), scaled[:, 2])),
    )
    index = _key_index(targets[0])
    rows = np.arange(targets.shape[1])
    doubles = (targets[0] >> shift) / (targets[0] & ((1 << shift) - 1))
    # equal doubles have equal bits, so a table over the low mantissa bits
    # passes every o whose double is among them (and about 0.1% of the rest)
    marks = np.zeros(_MARK_SLOTS, dtype=bool)
    marks[doubles.view(np.int64) & (_MARK_SLOTS - 1)] = True

    segs = _segments(n_bound)

    def work(seg: tuple[int, int]) -> np.ndarray:
        lo_n, hi_n = seg
        sigma = sieve_tables(lo_n, hi_n, odd=True)
        _check_packing(sigma, shift)
        o = np.arange(lo_n | 1, hi_n + 1, 2, dtype=np.int64)
        ratio = o / sigma
        hit = np.flatnonzero(marks[ratio.view(np.int64) & (_MARK_SLOTS - 1)])
        hit = hit[np.isin(ratio[hit], doubles)]
        o_col, row = _probe(index, rows, _ratio_keys(o[hit], sigma[hit], shift), o[hit])
        m_col = targets[1, row]
        n_col = o_col * targets[2, row]
        keep = (n_col >= m_col) & (n_col <= n_bound)
        return np.stack((m_col[keep], n_col[keep]))

    parts = list(_each_segment(work, segs, threads, progress, "swept"))
    pairs = _candidate_tuples(*np.concatenate(parts, axis=1))
    return _emit_records(pairs, "harmonious", frozenset({"anarchy"}))


# --- triples -------------------------------------------------------------------


def _ratio_triples(config: SearchConfig) -> np.ndarray:
    """The ratio-kind triples, one per column of a 3-row array, members
    ascending down each column; a triple may appear more than once.

    With a triple's ratios r = n/sigma(n) sorted as r_a <= r_b <= r_c and
    summing to 1, r_a <= 1/3, so sigma(a) >= 3a, and r_a <= r_b <=
    (1 - r_a)/2, so sigma(b) >= 2b.  Each such anchor a takes the b of that
    window from the ratio-sorted n with sigma >= 2n and probes the exact
    residual 1 - r_a - r_b into the codes of every n.  The float64 window
    is widened by a relative slack; the probe alone decides."""
    bound = config.bound
    sigma = _sigma_full(bound, config.kind == "unitary_harmonious", config.threads)
    n = np.arange(1, bound + 1, dtype=np.int64)
    g = np.gcd(n, sigma)
    rn = n // g
    rd = sigma // g
    # every product below, such as (rd_a - rn_a) * rd_b, is under sigma_max^2
    sigma_max = int(sigma.max())
    if sigma_max * sigma_max >= 1 << 62:
        raise ValueError(f"sigma values up to {sigma_max} overflow the triple search")
    shift = _code_shift(bound, sigma_max)
    keys = _sorted_run((rn << shift) | rd, n)
    index = _key_index(keys[0])
    mid = np.flatnonzero(sigma >= 2 * n)
    mid = mid[np.argsort(n[mid] / sigma[mid])]
    mid_ratio = n[mid] / sigma[mid]
    # far wider than the few ulps by which the computed (1 - r)/2 can fall
    # below the double of an exactly equal ratio
    slack = 1e-9

    parts = [np.empty((3, 0), dtype=np.int64)]
    for a in np.flatnonzero(sigma >= 3 * n).tolist():
        r = (a + 1) / int(sigma[a])
        lo = np.searchsorted(mid_ratio, r * (1 - slack))
        hi = np.searchsorted(mid_ratio, (1 - r) / 2 * (1 + slack), side="right")
        b = mid[lo:hi]
        # 1 - r_a - r_b over the product of the reduced denominators
        tn = (rd[a] - rn[a]) * rd[b] - rn[b] * rd[a]
        td = rd[a] * rd[b]
        gg = np.gcd(tn, td)
        tn //= gg
        td //= gg
        fit = (tn >= 1) & (tn <= bound) & (td <= sigma_max)
        b_col, c_col = _probe(index, keys[1], (tn[fit] << shift) | td[fit], n[b[fit]])
        parts.append(np.stack((np.full_like(b_col, a + 1), b_col, c_col)))
    found = np.sort(np.concatenate(parts, axis=1), axis=0)
    if not config.equal_allowed:
        found = found[:, (found[0] < found[1]) & (found[1] < found[2])]
    return found


def _amicable_triples(config: SearchConfig) -> np.ndarray:
    bound = config.bound
    sigma = _sigma_full(bound, False, config.threads)
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
    and probe the exact residual 1 - r1 - r2 into the codes of every n
    (_ratio_triples).  Amicable triples instead group members by sigma and
    close each pair inside its class with a membership probe.  The bound is
    capped at TRIPLE_BOUND_CAP.
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
    ladder = [int(b) for b in bounds]
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
