"""Exact arithmetic over factored integers.

Divisor sums (classical and unitary), segmented multiplicative sieves and
factorizations.  Everything that decides anything is exact Python int
arithmetic.  numpy int64 is used only inside sieve segments, with overflow
bounds stated where it matters.  The sieve works on in-place strided views
of its segment arrays, one view per prime power, so it builds no index
arrays and tests no remainders; every int64 it holds is at most
max(hi, sigma(n)), which MAX_SIEVE_BOUND keeps far below 2^63.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

# ((prime, exponent), ...) sorted by prime; empty tuple represents n = 1
Factorization = tuple[tuple[int, int], ...]

# keeps every int64 intermediate in the sieve far below 2^63 (see sieve_tables)
MAX_SIEVE_BOUND = 1 << 40


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


@dataclass(frozen=True)
class ArithmeticProfile:
    """The divisor-sum facts about one integer."""

    n: int
    sigma: int
    sigma_star: int
    omega: int
    big_omega: int

    @property
    def factorization(self) -> Factorization:
        # recovered lazily; factorize() caches, so repeated access is cheap
        return factorize(self.n)

    @classmethod
    def of(cls, n: int) -> "ArithmeticProfile":
        f = factorize(n)
        return cls(
            n=n,
            sigma=sigma_of(f),
            sigma_star=sigma_star_of(f),
            omega=len(f),
            big_omega=sum(e for _, e in f),
        )


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


@dataclass
class SieveTables:
    """Per-integer tables over the inclusive range [lo, hi]; index n - lo."""

    lo: int
    hi: int
    sigma: np.ndarray
    sigma_star: np.ndarray | None = None

    def index(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise IndexError(f"{n} outside [{self.lo}, {self.hi}]")
        return n - self.lo


def sieve_tables(
    lo: int,
    hi: int,
    *,
    star: bool = False,
    primes: np.ndarray | None = None,
) -> SieveTables:
    """Multiplicative sieve of sigma (and optionally sigma*) over [lo, hi].

    Each prime p <= sqrt(hi) is stripped through in-place strided views,
    with no index arrays and no remainder tests.  The multiples of p^k in
    the segment are the view rem[s::p^k] with s = -lo mod p^k: every
    p^(k-1)-th entry of the p-view, starting at its first multiple of p^k.
    Step k divides p out of that view once more and swaps its entries'
    factor sigma(p^(k-1)) for sigma(p^k) (1 + p^(k-1) for 1 + p^k in
    sigma*); the division is exact because step k-1 multiplied that factor
    in.  Whatever remains above 1 afterwards is a single prime factor with
    exponent 1.  int64 stays safe: every intermediate is a remainder <= hi
    or a partial product of sigma(n)'s factors, so at most sigma(n) < 6n
    for hi <= MAX_SIEVE_BOUND.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_SIEVE_BOUND:
        raise ValueError(f"sieve bound {hi} exceeds {MAX_SIEVE_BOUND}")
    length = hi - lo + 1
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    sigma = np.ones(length, dtype=np.int64)
    sstar = np.ones(length, dtype=np.int64) if star else None
    if primes is None:
        primes = primes_upto(isqrt(hi))
    for p in primes.tolist():
        if p * p > hi:
            break
        # q = p^k, and the multiples of q carry the factors f = sigma(p^(k-1))
        # and f_star = sigma*(p^(k-1)) so far
        q, f, f_star = p, 1, 1
        s = -lo % q
        while s < length:
            rem[s::q] //= p
            view = sigma[s::q]
            if f > 1:
                view //= f
            f = f * p + 1
            view *= f
            if star:
                view = sstar[s::q]
                if f_star > 1:
                    view //= f_star
                f_star = q + 1
                view *= f_star
            q *= p
            s = -lo % q
    # a leftover prime r > 1 contributes 1 + r, a leftover 1 contributes 1
    tail = rem + (rem > 1)
    sigma *= tail
    if star:
        sstar *= tail
    return SieveTables(lo=lo, hi=hi, sigma=sigma, sigma_star=sstar)
