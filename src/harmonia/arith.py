"""Exact arithmetic over factored integers.

Divisor sums (classical and unitary), segmented multiplicative sieves and
factorizations.  Everything that decides anything is exact Python int
arithmetic.  numpy int64 is used only inside sieve segments, with overflow
bounds stated where it matters.  One sieve call yields one divisor-sum
column, sigma or sigma*, over every n of the segment or, for the anarchy
sweep, over its odd n only.  It lays the primes up to 31, up to fixed
exponents, from precomputed periodic tiles with contiguous copies (the odd
column from each tile's odd residues), and strips every other prime power
through in-place strided views of its remainder and output arrays, one
view each per prime power; it builds no index arrays and tests no
remainders.  The odd column gives the prime 2 no pass and halves the
integers.  Every integer it holds is at most max(hi + 1, sigma(n)) < 6 * hi,
so it works in int32 lanes while 6 * hi < 2^31 (hi <= 357,913,941) and in
int64 lanes above, which MAX_SIEVE_BOUND keeps far below 2^63.

Every sieve call runs in a SieveLanes, the rem and out lanes.  It fills
rem block by block with the block's n and leaves sigma in out.  A
caller that sieves many segments owns one SieveLanes, passed as
lanes=... and reused by every call; such a call allocates no
segment-sized array and returns sigma as a view of the out lane in the
lane's dtype, valid until the next call through the same lanes.  Without
lanes, the call sieves into throwaway lanes and returns a fresh int64 copy.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod
from threading import Lock

import numpy as np

# ((prime, exponent), ...) sorted by prime; empty tuple represents n = 1
Factorization = tuple[tuple[int, int], ...]

# keeps every intermediate in the sieve's int64 lanes far below 2^63 (see sieve_tables)
MAX_SIEVE_BOUND = 1 << 40

# prime powers p^K that the sieve lays from periodic tiles, one tile per
# group; each tile's period, the product of its group's p^K, is below 2^19
_TILE_GROUPS = (
    ((2, 7), (3, 4), (5, 2)),
    ((7, 2), (11, 1), (13, 1), (17, 1)),
    ((19, 1), (23, 1), (29, 1), (31, 1)),
)
_TILED = {p: k for group in _TILE_GROUPS for p, k in group}
# the factor that p^v (v >= 1) contributes to each tile column
_TILE_FACTORS = {
    "part": lambda p, v: p**v,
    "sigma": lambda p, v: (p ** (v + 1) - 1) // (p - 1),
    "sigma_star": lambda p, v: p**v + 1,
}
_TILE_LOCK = Lock()
# entries per pass of a sieve into owned lanes (see sieve_tables)
_BLOCK = 1 << 16


def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division. Intended for 64-bit inputs."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n.bit_length() > 64:
        raise ValueError(f"factorize requires n < 2^64, got {n}")
    return _factorize_cached(n)


@lru_cache(maxsize=1 << 16)
def _factorize_cached(n: int) -> Factorization:
    out: list[tuple[int, int]] = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    p = 5
    while p * p <= m:
        for q in (p, p + 2):
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                out.append((q, e))
        p += 6
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def merge_factorizations(*factorizations: Factorization) -> Factorization:
    """Factorization of the product of the (not necessarily coprime) inputs."""
    acc: dict[int, int] = {}
    for f in factorizations:
        for p, e in f:
            acc[p] = acc.get(p, 0) + e
    return tuple(sorted(acc.items()))


def sigma_of(factorization: Factorization) -> int:
    """Sum of all divisors, from a factorization."""
    out = 1
    for p, e in factorization:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def sigma_star_of(factorization: Factorization) -> int:
    """Sum of unitary divisors: product of (1 + p^e)."""
    out = 1
    for p, e in factorization:
        out *= 1 + p**e
    return out


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (classic boolean sieve)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.nonzero(~composite)[0].astype(np.int64)


def _tile(group: tuple[tuple[int, int], ...], column: str, odd: bool) -> np.ndarray:
    """One column of a group's tile, built on first use: for each residue r
    modulo the period P, the p-part prod p^min(v_p(r), K) over the group's
    p^K ("part"), or that part's sigma or sigma* factor.  r = 0 stands for
    every multiple of P, so it takes each p^K.  int32 holds every entry:
    the largest is sigma's 255 * 121 * 31.  Under odd, the odd-residue tile
    T'[j] = tile[(2j + 1) mod P] instead, of period P / gcd(2, P)."""
    with _TILE_LOCK:
        return _build_odd_tile(group, column) if odd else _build_tile(group, column)


@lru_cache(maxsize=None)
def _build_tile(group: tuple[tuple[int, int], ...], column: str) -> np.ndarray:
    period = prod(p**k for p, k in group)
    tile = np.ones(period, dtype=np.int32)
    factor = np.empty(period, dtype=np.int32)
    for p, k in group:
        factor.fill(1)
        for v in range(1, k + 1):
            factor[:: p**v] = _TILE_FACTORS[column](p, v)
        tile *= factor
    return tile


@lru_cache(maxsize=None)
def _build_odd_tile(group: tuple[tuple[int, int], ...], column: str) -> np.ndarray:
    tile = _build_tile(group, column)
    period = tile.size // gcd(2, tile.size)
    return tile[(2 * np.arange(period) + 1) % tile.size]


def _lay_tiles(out: np.ndarray, column: str, origin: int, odd: bool) -> None:
    """out[i] = the product over the tiles of tile[(origin + i) mod P], or
    of T'[(origin + i) mod P'] under odd, written with contiguous slices
    that start at origin modulo the period and wrap there."""
    for g, group in enumerate(_TILE_GROUPS):
        tile = _tile(group, column, odd)
        at, start = 0, origin % tile.size
        while at < out.size:
            chunk = out[at : at + tile.size - start]
            if g:
                chunk *= tile[start : start + chunk.size]
            else:
                chunk[...] = tile[start : start + chunk.size]
            at += chunk.size
            start = 0


class SieveLanes:
    """The rem and out lanes of one caller of sieve_tables (lanes=...), for
    one thread: two arrays of `entries` entries in the lane dtype that the
    calls' hi asks for, allocated on the first call and again only when a
    call needs the other dtype.  Each call sieves into their first entries
    and overwrites the sigma that the previous call returned.  They are
    exactly as long as the caller asked, so the memory they hold is the
    memory they touch."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.rem: np.ndarray | None = None
        self.out: np.ndarray | None = None

    def take(self, length: int, lane: type) -> tuple[np.ndarray, np.ndarray]:
        """The first `length` entries of rem and out, in dtype lane."""
        if length > self.entries:
            raise ValueError(f"lanes of {self.entries} entries hold no {length}")
        if self.rem is None or self.rem.dtype != lane:
            self.rem, self.out = np.empty(self.entries, lane), np.empty(self.entries, lane)
        return self.rem[:length], self.out[:length]


def sieve_tables(
    lo: int,
    hi: int,
    *,
    star: bool = False,
    odd: bool = False,
    lanes: SieveLanes | None = None,
) -> np.ndarray:
    """sigma(n), or sigma*(n) when star, for n in [lo, hi] at index n - lo;
    under odd, for the odd n in [lo, hi] only, at index (n - lo') / 2 with
    lo' = lo | 1.

    A multiplicative sieve of the one divisor sum.  First the tiles.  Each
    tile column repeats with its period P, so the segment lays it from
    offset lo mod P with contiguous slice copies, and multiplies the later
    tiles in the same way.  The laid p-part, the product of p^min(v_p(n), K)
    over the tiled p^K, divides n out of the n-column in one pass; the
    output then starts as the laid factors of that part.

    Then each prime p <= sqrt(hi) is stripped through in-place strided
    views, with no index arrays and no remainder tests, from p^(K+1) on
    for a tiled p^K and from p on otherwise.  The multiples of p^k in the
    segment are the view rem[s::p^k] with s = -lo mod p^k: every
    p^(k-1)-th entry of the p-view, starting at its first multiple of p^k.
    Step k divides p out of that view once more and swaps its entries'
    factor f = sigma(p^(k-1)) for f*p + 1 = sigma(p^k) (1 + p^(k-1) for
    1 + p^k under star); the division is exact because the tile or step
    k-1 multiplied that factor in.  Whatever remains above 1 afterwards is
    a single prime factor with exponent 1.

    The odd column runs the same body over half the integers.  Entry i
    holds n = lo' + 2i, so each tile is read through its odd-residue tile
    T'[j] = tile[(2j + 1) mod P], of period P' = P / gcd(2, P), from offset
    ((lo' - 1) / 2) mod P'.  The prime 2 gets no pass.  An odd p^k has its
    first odd multiple at index s = -lo' * (p^k + 1) / 2 mod p^k, since
    (p^k + 1) / 2 inverts 2 modulo p^k, and the next ones follow every p^k
    entries.

    The lanes follow from hi alone: rem and out are int32 while
    6 * hi < 2^31 and int64 above.  Every laid product divides n or is a
    partial product of the output's factors, and so is every later
    intermediate: a remainder <= hi + 1, or a product of factors each at
    most the one that replaces it, so at most sigma(n) (sigma*(n) <=
    sigma(n)).  sigma(n) < 6n for every n below 130,429,015,516,800, the
    least n with sigma(n) >= 6n (OEIS A023199), far above
    MAX_SIEVE_BOUND; each factor applied is sigma(p^k) < 2 * p^k <= 2 * hi.
    So every intermediate is below 6 * hi, which fits the lane.  The
    p-part is laid into the output buffer before the factors overwrite
    it, so the tiles cost no segment-sized array; the tiles themselves
    are int32, are built once per process on first use, and only the
    requested column's.

    The call takes the first entries of its lanes in the lane dtype, fills
    rem a block at a time with the block's n, and folds the leftover
    primes into out a block at a time, so neither step makes a
    segment-sized temporary.  With lanes, a SieveLanes of at least as many
    entries as the column that the caller owns, it allocates no
    segment-sized array and returns that view of out, sigma in the lane's
    dtype; the next call through the same lanes overwrites it.  Without
    lanes, it sieves into a throwaway SieveLanes of the column's length
    and returns an int64 copy of out, so callers may multiply sigma by
    Python ints without an int32 overflow.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_SIEVE_BOUND:
        raise ValueError(f"sieve bound {hi} exceeds {MAX_SIEVE_BOUND}")
    first, step = (lo | 1, 2) if odd else (lo, 1)
    length = (hi - first) // step + 1
    lane = np.int32 if 6 * hi < 1 << 31 else np.int64
    fresh = lanes is None
    rem, out = (SieveLanes(length) if fresh else lanes).take(length, lane)
    for at in range(0, length, _BLOCK):
        block = rem[at : at + _BLOCK]
        block[...] = np.arange(first + step * at, first + step * (at + block.size), step, lane)
    origin = first // step
    _lay_tiles(out, "part", origin, odd)
    rem //= out
    _lay_tiles(out, "sigma_star" if star else "sigma", origin, odd)
    # the odd column skips the prime 2, the first prime
    for p in primes_upto(isqrt(hi)).tolist()[odd:]:
        # q = p^k, and the multiples of q carry the factor f of p^(k-1) so
        # far; a tiled p^K starts at k = K + 1
        K = _TILED.get(p, 0)
        q = p ** (K + 1)
        if star:
            f = q // p + 1 if K else 1
        else:
            f = (q - 1) // (p - 1)
        # the first multiple of q; (q + 1) / 2 inverts the odd column's step
        s = -first * ((q + 1) // 2 if odd else 1) % q
        while s < length:
            rem[s::q] //= p
            view = out[s::q]
            if f > 1:
                view //= f
            f = q + 1 if star else f * p + 1
            view *= f
            q *= p
            s = -first * ((q + 1) // 2 if odd else 1) % q
    # a leftover prime r > 1 contributes 1 + r, a leftover 1 contributes 1
    for at in range(0, length, _BLOCK):
        block = rem[at : at + _BLOCK]
        block += block > 1
        out[at : at + _BLOCK] *= block
    return out.astype(np.int64) if fresh else out
