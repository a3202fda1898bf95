"""Tuple classification: harmonious, unitary harmonious, amicable, anarchy.

A tuple of positive integers is
  harmonious          when sum of M_i / sigma(M_i) is exactly 1,
  unitary harmonious  when the same holds with the unitary divisor sum,
  amicable            when every sigma(M_i) equals the member sum,
  anarchy             when the members are pairwise strangers: distinct and
                      gcd(M_i, M_j * sigma(M_j)) = 1 for all i != j.

classify_all is the one validator; classify(members) is its one-tuple case.
It classifies a whole batch in column passes:

  1. each distinct member is factored once, by trial division of all live
     members at a time over 2, 3 and 6j +- 1 in ascending blocks, with no
     sieve table behind it;
  2. sigma, sigma*, omega and Omega of each member are columns summed or
     multiplied over its prime rows, and its factorization is its rows;
  3. the six flags are decided per tuple length k as exact column
     operations on the members' columns;
  4. each record keeps its members' factorizations and reads K (distinct
     primes), L (all exponents) and L* (primes per member, summed) off
     them.

Every verdict is exact: columns are int64 only where a stated bound keeps
every intermediate below 2^63, and object arrays of Python ints otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable

import numpy as np

from harmonia.arith import Factorization

FLAG_NAMES = (
    "harmonious",
    "unitary_harmonious",
    "amicable",
    "pairwise_coprime",
    "anarchy",
    "sum_coprime",
)

# flags that make a tuple a member of one of the searched classes; the
# diagnostic flags (pairwise_coprime, sum_coprime) do not count
CLASS_FLAG_NAMES = ("harmonious", "unitary_harmonious", "amicable", "anarchy")

# (live member, trial divisor) cells of one trial-division block: a block
# takes this many cells over the members still live, so a lone member is
# done in a few blocks and a large batch in narrow ones
_BLOCK_CELLS = 1 << 16
# below this, sigma(n) <= n * (1 + ln n) < 2^62, so the profile columns and
# every partial divisor sum behind them fit int64
_INT64_MEMBERS = 1 << 56


@dataclass(frozen=True)
class TupleRecord:
    """Classification result for one tuple, members sorted ascending;
    sigma[i] and factorizations[i] belong to members[i]."""

    members: tuple[int, ...]
    sigma: tuple[int, ...]
    factorizations: tuple[Factorization, ...]
    flags: dict[str, bool]

    def _prime_counts(self) -> tuple[int, int, int]:
        """(K, L_omega, L_star) in one pass over the factorizations."""
        primes = set()
        exponents = count = 0
        for f in self.factorizations:
            count += len(f)
            for p, e in f:
                primes.add(p)
                exponents += e
        return len(primes), exponents, count

    @property
    def K(self) -> int:
        """omega(prod M_i): the distinct primes across the members."""
        return self._prime_counts()[0]

    @property
    def L_omega(self) -> int:
        """Omega(prod M_i): the sum of all exponents."""
        return self._prime_counts()[1]

    @property
    def L_star(self) -> int:
        """sum of omega(M_i): each member's primes, summed over the members."""
        return self._prime_counts()[2]

    @property
    def g1(self) -> int | None:
        """gcd(M, sigma(N)) of a pair (M, N); None for any other length."""
        return gcd(self.members[0], self.sigma[1]) if len(self.members) == 2 else None

    @property
    def g2(self) -> int | None:
        """gcd(sigma(M), N) of a pair (M, N); None for any other length."""
        return gcd(self.sigma[0], self.members[1]) if len(self.members) == 2 else None

    @property
    def product(self) -> int:
        out = 1
        for m in self.members:
            out *= m
        return out

    def to_json_dict(self) -> dict:
        k, l_omega, l_star = self._prime_counts()
        # fixed field order so that output files diff cleanly
        return {
            "members": list(self.members),
            "sigma": list(self.sigma),
            "flags": {name: self.flags[name] for name in FLAG_NAMES},
            "g1": self.g1,
            "g2": self.g2,
            "K": k,
            "L": l_omega,
            "L_star": l_star,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def ordered_members(members: Iterable[int]) -> tuple[int, ...]:
    """The members sorted ascending; ValueError unless there is at least one
    and each is an int in [1, 2^64); a bool is not a member."""
    members = tuple(members)
    for m in members:
        if type(m) is not int:
            raise ValueError(f"members must be positive integers, got {m!r}")
    ordered = tuple(sorted(members))
    if not ordered:
        raise ValueError("need at least one member")
    if ordered[0] < 1:
        raise ValueError(f"members must be positive integers, got {ordered[0]}")
    if ordered[-1] >> 64:
        first = next(m for m in ordered if m >> 64)
        raise ValueError(f"factorize requires n < 2^64, got {first}")
    return ordered


def classify(members: Iterable[int]) -> TupleRecord:
    """Full classification of a tuple.  Invariant under member permutation.

    Repeated members are not an error: the anarchy flag is simply false for
    them.
    """
    return classify_all([members])[0]


def classify_all(tuples: Iterable[Iterable[int]]) -> list[TupleRecord]:
    """classify of every tuple, in input order, with each distinct member
    factored once and every flag decided in column passes."""
    ordered = [ordered_members(t) for t in tuples]
    if not ordered:
        return []
    values, slot = _distinct(np.array([m for t in ordered for m in t], dtype=np.uint64))
    members = values.tolist()
    rows_m, rows_p, rows_e = _prime_rows(values)
    # rows by member, each member's primes ascending
    order = np.lexsort((rows_p, rows_m))
    rows_m, rows_p, rows_e = rows_m[order], rows_p[order], rows_e[order]
    n, sigma, sigma_star = _profile_columns(members, rows_m, rows_p, rows_e)
    omega = np.bincount(rows_m, minlength=len(members))

    sizes = [len(t) for t in ordered]
    lengths = np.array(sizes, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths

    flags = np.zeros((len(ordered), len(FLAG_NAMES)), dtype=bool)
    for k in sorted(set(sizes)):
        sel = np.flatnonzero(lengths == k)
        cols = slot[starts[sel][:, None] + np.arange(k)]
        flags[sel] = _flag_columns(n[cols], sigma[cols], sigma_star[cols])

    sigma_at = sigma[slot].tolist()
    factorizations = _factorizations(rows_p, rows_e, omega)
    factorization_at = [factorizations[u] for u in slot.tolist()]
    return [
        TupleRecord(
            t, tuple(sigma_at[s:e]), tuple(factorization_at[s:e]), dict(zip(FLAG_NAMES, f))
        )
        for t, s, e, f in zip(ordered, starts.tolist(), (starts + lengths).tolist(), flags.tolist())
    ]


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values ascending, and each value's index among them.
    np.unique would do, but its first call imports numpy.ma, which costs a
    one-tuple classify in a fresh process about 20 ms."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    new = np.ones(ranked.size, dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    index = np.empty(ranked.size, dtype=np.int64)
    index[order] = np.cumsum(new) - 1
    return ranked[new], index


# --- step 1: column trial division -----------------------------------------------


def _prime_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(member index, prime, exponent) rows of the factorizations of the
    uint64 values, by trial division of every live cofactor at once.

    Each block tries the next range of divisors, 2, 3 and 6j +- 1, on all
    live cofactors.  A hit that a divisor of the block up to its square
    root divides is composite and dropped; it would no longer divide the
    cofactor once its prime factors are divided out.  Each prime hit is
    divided out as often as it goes.  A member drops out
    once its cofactor is below the square of the next divisor to try: what
    is left is 1 or a prime."""
    cof = values.copy()
    live = np.flatnonzero(cof > 1)
    found_m, found_p, found_e = [], [], []
    lo = 2
    while True:
        c = cof[live]
        done = c < lo * lo if lo * lo < 1 << 64 else np.ones(live.size, dtype=bool)
        tail = done & (c > 1)
        found_m.append(live[tail])
        found_p.append(c[tail])
        found_e.append(np.ones(int(tail.sum()), dtype=np.int64))
        live, c = live[~done], c[~done]
        if not live.size:
            break
        # a third of the range [lo, hi) are divisors to try: 2, 3, 6k +- 1
        hi = min(isqrt(int(c.max())) + 1, lo + 3 * max(1, _BLOCK_CELLS // live.size))
        k = np.arange(lo // 6, hi // 6 + 1)
        d = np.concatenate(([2, 3], np.stack((6 * k - 1, 6 * k + 1), axis=1).ravel()))
        d = d[(d >= lo) & (d < hi)].astype(np.uint64)
        r, j = np.nonzero(c[:, None] % d == 0)
        m, p, q = live[r], d[j], c[r]
        # a composite hit has a prime factor q <= sqrt(hit), and q >= lo,
        # since smaller primes are out of the cofactor: q is in this block
        small = d[: np.searchsorted(d, isqrt(int(p.max(initial=0))), side="right")]
        prime = ~((p[:, None] % small == 0) & (small * small <= p[:, None])).any(axis=1)
        m, p, q = m[prime], p[prime], q[prime]
        e = np.zeros(m.size, dtype=np.int64)
        div = np.ones(m.size, dtype=bool)
        while div.any():
            e += div
            q = np.where(div, q // p, q)
            div = q % p == 0
        # q is the member's cofactor without p^e, so cofactor // q = p^e
        np.floor_divide.at(cof, m, cof[m] // q)
        found_m.append(m)
        found_p.append(p)
        found_e.append(e)
        lo = hi
    return np.concatenate(found_m), np.concatenate(found_p), np.concatenate(found_e)


# --- step 2: profile columns -----------------------------------------------------


def _profile_columns(
    members: list[int], rows_m: np.ndarray, rows_p: np.ndarray, rows_e: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n, sigma and sigma* columns: each row p^e contributes the factors
    1 + p + ... + p^e = p^e + (p^e - 1) / (p - 1) and 1 + p^e.  int64
    below _INT64_MEMBERS, where each factor is at most 2 p^e <= 2n and each
    partial product at most sigma(n); Python ints above it."""
    dtype = np.int64 if members[-1] < _INT64_MEMBERS else object
    p = rows_p.astype(dtype)
    power = p ** rows_e.astype(dtype)
    sigma = np.ones(len(members), dtype=dtype)
    sigma_star = np.ones(len(members), dtype=dtype)
    np.multiply.at(sigma, rows_m, power + (power - 1) // (p - 1))
    np.multiply.at(sigma_star, rows_m, power + 1)
    return np.array(members, dtype=dtype), sigma, sigma_star


def _factorizations(
    rows_p: np.ndarray, rows_e: np.ndarray, omega: np.ndarray
) -> list[Factorization]:
    """Each member's factorization from its rows, which come grouped by
    member with the primes ascending."""
    rows = list(zip(rows_p.tolist(), rows_e.tolist()))
    ends = np.cumsum(omega).tolist()
    return [tuple(rows[a:b]) for a, b in zip([0, *ends], ends)]


# --- step 3: flags ------------------------------------------------------------------


def _flag_columns(n: np.ndarray, sigma: np.ndarray, sigma_star: np.ndarray) -> np.ndarray:
    """FLAG_NAMES columns of tuples given as rows of k sorted members.

    Sum to one is decided as sum(n_i * (P / s_i)) == P with P the product
    of the s_i; each term is at most P <= s_max^k, so int64 holds the sum
    when k * s_max^k < 2^63, and object arrays take the rest.  Anarchy's
    gcd(M_i, M_j * sigma(M_j)) = 1 splits into gcd(M_i, M_j) = 1 and
    gcd(M_i, sigma(M_j)) = 1, so no product is formed."""
    k = n.shape[1]
    if n.dtype != object and k * int(sigma.max()) ** k >= 1 << 63:
        n, sigma, sigma_star = (x.astype(object) for x in (n, sigma, sigma_star))
    total = n.sum(axis=1)

    def sums_to_one(s: np.ndarray) -> np.ndarray:
        p = np.prod(s, axis=1)
        return (n * (p[:, None] // s)).sum(axis=1) == p

    def coprime(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.gcd(a, b) == 1

    pairwise = strangers = sum_coprime = np.ones(len(n), dtype=bool)
    for i in range(k):
        sum_coprime = sum_coprime & coprime(n[:, i], total)
        for j in range(k):
            if i < j:
                pairwise = pairwise & coprime(n[:, i], n[:, j])
            if i != j:
                strangers = strangers & coprime(n[:, i], sigma[:, j])
    distinct = (n[:, 1:] != n[:, :-1]).all(axis=1)
    return np.stack(
        (
            sums_to_one(sigma),
            sums_to_one(sigma_star),
            (sigma == total[:, None]).all(axis=1),
            pairwise,
            distinct & pairwise & strangers,
            sum_coprime,
        ),
        axis=1,
    )


def format_factorization(f: Factorization) -> str:
    """Render ((2,4),(7,1),(31,1)) as 2^4*7*31; the empty factorization is 1."""
    if not f:
        return "1"
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in f)
