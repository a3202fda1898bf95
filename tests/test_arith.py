"""Divisor-sum core: frozen values, independent oracles, sieve consistency."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from math import gcd, isqrt, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import Profile, profile_of

from harmonia.arith import (
    _TILE_GROUPS,
    MAX_SIEVE_BOUND,
    factorize,
    merge_factorizations,
    primes_upto,
    sieve_tables,
    sigma_of,
    sigma_star_of,
)

ORACLE_LIMIT = 10**6
SRC = Path(__file__).resolve().parents[1] / "src"


def oracle_sigma_table(limit: int) -> np.ndarray:
    """Divisor enumeration: add every d to all of its multiples.

    Independent of the multiplicative sieve under test (no factoring at all).
    Index n, entries valid for 1 <= n <= limit.
    """
    table = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        table[d::d] += d
    return table


def oracle_sigma_single(n: int) -> int:
    """Pure python divisor enumeration for one n."""
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d
            if d != n // d:
                total += n // d
    return total


def oracle_sigma_star_single(n: int) -> int:
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            e = n // d
            if gcd(d, e) == 1:
                total += d
                if d != e:
                    total += e
    return total


@pytest.fixture(scope="module")
def oracle_table() -> np.ndarray:
    return oracle_sigma_table(ORACLE_LIMIT)


@pytest.fixture(scope="module")
def sieved() -> tuple[np.ndarray, np.ndarray]:
    """(sigma, sigma*) over [1, ORACLE_LIMIT], n at index n - 1."""
    return sieve_tables(1, ORACLE_LIMIT), sieve_tables(1, ORACLE_LIMIT, star=True)


def test_sigma_frozen_values() -> None:
    assert sigma_of(factorize(64)) == 127
    assert sigma_of(factorize(220)) == 504
    assert sigma_of(factorize(284)) == 504
    assert sigma_star_of(factorize(12)) == 20
    assert sigma_of(factorize(1)) == 1
    assert sigma_star_of(factorize(1)) == 1


def test_factorize_frozen_values() -> None:
    assert factorize(173369889) == ((3, 4), (7, 2), (11, 2), (19, 2))
    assert factorize(3472) == ((2, 4), (7, 1), (31, 1))
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    # sigma of the big member, cross-checked by hand: 121*57*133*381
    assert sigma_of(factorize(173369889)) == 349491681
    assert 121 * 57 * 133 * 381 == 349491681


def test_factorize_round_trip() -> None:
    rng = random.Random(12345)
    samples = list(range(1, 2000)) + [rng.randrange(1, 10**9) for _ in range(200)]
    for n in samples:
        f = factorize(n)
        assert prod(p**e for p, e in f) == n
        assert all(e >= 1 for _, e in f)
        primes = [p for p, _ in f]
        assert primes == sorted(primes)
        assert len(set(primes)) == len(primes)


def test_factorize_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(1 << 70)


def test_merge_factorizations() -> None:
    f = merge_factorizations(factorize(64), factorize(173369889))
    assert f == ((2, 6), (3, 4), (7, 2), (11, 2), (19, 2))
    assert sigma_of(f) == 127 * 349491681


def test_sieve_sigma_against_divisor_enumeration(oracle_table, sieved) -> None:
    # full agreement on [1, 10^6] between the multiplicative sieve and the
    # divisor-enumeration oracle
    assert np.array_equal(sieved[0], oracle_table[1:])


def test_sieve_against_single_n_oracles(sieved) -> None:
    rng = random.Random(777)
    samples = list(range(1, 300)) + [rng.randrange(1, ORACLE_LIMIT) for _ in range(120)]
    sigma, star = sieved
    for n in samples:
        assert int(sigma[n - 1]) == oracle_sigma_single(n)
        assert int(star[n - 1]) == oracle_sigma_star_single(n)


def test_sigma_multiplicative_on_coprime_pairs(sieved) -> None:
    rng = random.Random(99)
    sigma, star = sieved
    checked = 0
    while checked < 400:
        a = rng.randrange(2, 10**4)
        b = rng.randrange(2, ORACLE_LIMIT // a)
        if gcd(a, b) != 1:
            continue
        ia, ib, iab = a - 1, b - 1, a * b - 1
        assert sigma[iab] == sigma[ia] * sigma[ib]
        assert star[iab] == star[ia] * star[ib]
        checked += 1


def test_sigma_star_le_sigma_equality_iff_squarefree(sieved) -> None:
    lim = 10**4
    sig, star = (column[:lim] for column in sieved)
    assert np.all(star <= sig)
    for n in range(1, lim + 1):
        squarefree = all(e == 1 for _, e in factorize(n))
        assert (sig[n - 1] == star[n - 1]) == squarefree


# the period of each pre-sieved tile, the product of its group's p^K
_TILE_PERIODS = [prod(p**k for p, k in group) for group in _TILE_GROUPS]


def test_segmented_sieve_matches_whole_range(oracle_table) -> None:
    # the whole range spans more than two periods of the longest tile; the
    # cuts fall on, just before and just after multiples of every period
    periods = sorted(_TILE_PERIODS)
    hi = 2 * periods[-1] + 5000
    whole, whole_star = sieve_tables(1, hi), sieve_tables(1, hi, star=True)
    assert np.array_equal(whole, oracle_table[1 : hi + 1])
    marks = {c * P + d for P in periods for c in (1, 2) for d in (-1, 0, 1)}
    cuts = sorted({1, 7, 4096, 9999, 10000, hi} | {c for c in marks if c < hi})
    for lo, end in zip(cuts, cuts[1:]):
        sl = slice(lo - 1, end)
        assert np.array_equal(sieve_tables(lo, end), whole[sl]), (lo, end)
        assert np.array_equal(sieve_tables(lo, end, star=True), whole_star[sl]), (lo, end)


def _odd_entries(column: np.ndarray, lo: int) -> np.ndarray:
    """The entries of a full column from lo that belong to odd n."""
    return column[(lo | 1) - lo :: 2]


def test_odd_column_is_the_full_columns_odd_entries() -> None:
    # the odd column reads tile T'[j] = tile[(2j + 1) mod P] of period
    # P' = P / gcd(2, P) and wraps at every odd n = 2cP' + 1; the spans start
    # at 1, on even and odd n, on both sides of the first two wraps of each
    # tile, and one covers every wrap of all three tiles
    odd_periods = [P // gcd(2, P) for P in _TILE_PERIODS]
    spans = [(1, 1), (2, 2), (2, 3), (1, 10), (2, 11), (1, 2 * max(odd_periods) + 5000)]
    for period in odd_periods:
        for c in (1, 2):
            for d in (-2, -1, 0, 1):
                wrap = 2 * c * period + d
                spans += [(wrap - 3000, wrap + 3000), (wrap, wrap + 999)]
    # a 2^20 span of the anarchy sweep's range, from an even and an odd lo
    spans += [(172_000_000, 172_000_000 + (1 << 20) - 1), (172_000_001, 172_000_001 + (1 << 20))]
    for lo, hi in spans:
        for star in (False, True):
            full = sieve_tables(lo, hi, star=star)
            odd = sieve_tables(lo, hi, star=star, odd=True)
            assert np.array_equal(odd, _odd_entries(full, lo)), (lo, hi, star)


def test_tiles_are_built_on_first_use() -> None:
    # importing the CLI builds no tile, and a sieve builds only the part
    # tile and its own column's: a plain sieve no sigma* tile, a star sieve
    # no sigma tile; one fresh process per order, so that no other test has
    # built them
    script = """
from harmonia import arith
import harmonia.cli
build = arith._build_tile
assert build.cache_info().currsize == 0
used = set()
def spy(group, column):
    used.add(column)
    return build(group, column)
arith._build_tile = spy
for star, want in %r:
    arith.sieve_tables(10**6, 2 * 10**6, star=star)
    assert sorted(used) == want, (star, sorted(used))
    assert build.cache_info().currsize == len(arith._TILE_GROUPS) * len(want)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for sieves in (
        [(False, ["part", "sigma"]), (True, ["part", "sigma", "sigma_star"])],
        [(True, ["part", "sigma_star"]), (False, ["part", "sigma", "sigma_star"])],
    ):
        subprocess.run([sys.executable, "-c", script % (sieves,)], check=True, env=env)


# prime powers up to the sieve envelope, small primes and large: every
# tiled prime (so p^(K+1), where its strided steps start), and the tile
# periods with their powers
_PRIME_POWERS = sorted(
    {
        p**k
        for p in (*(p for group in _TILE_GROUPS for p, _ in group), 1009, 65537, 1048573)
        for k in range(1, 41)
        if p**k <= MAX_SIEVE_BOUND
    }
    | {P**k for P in _TILE_PERIODS for k in (1, 2) if P**k <= MAX_SIEVE_BOUND}
)
_WIDTH = 4096


def _near_multiple(q: int, c: int, d: int) -> int:
    """c*q + d clipped to the window starts the property test may use."""
    return min(max(c * q + d, 1), MAX_SIEVE_BOUND - _WIDTH)


_WINDOW_STARTS = st.one_of(
    st.integers(1, MAX_SIEVE_BOUND - _WIDTH),
    # on a prime-power multiple, or just off it, where a start index slips
    st.builds(
        _near_multiple,
        st.sampled_from(_PRIME_POWERS),
        st.integers(1, 1 << 12),
        st.integers(-2, 2),
    ),
)


@settings(max_examples=100, deadline=None)
@given(lo=_WINDOW_STARTS, width=st.integers(0, _WIDTH), data=st.data())
def test_sieve_window_property(lo, width, data) -> None:
    # random windows anywhere up to the int64 envelope against factorize;
    # a segment cut, often on a prime-power multiple, must not change a value
    hi = lo + width
    whole, whole_star = sieve_tables(lo, hi), sieve_tables(lo, hi, star=True)
    q = data.draw(st.sampled_from(_PRIME_POWERS), label="q")
    first = -(-lo // q) * q
    cut = data.draw(
        st.one_of(
            st.integers(lo, hi),
            st.builds(lambda d: min(max(first + d, lo), hi), st.integers(-1, 1)),
        ),
        label="cut",
    )
    pieces = [(lo, cut)] + ([(cut + 1, hi)] if cut < hi else [])
    for star, column in ((False, whole), (True, whole_star)):
        parts = [sieve_tables(a, b, star=star) for a, b in pieces]
        assert np.array_equal(np.concatenate(parts), column)
        # the odd column is the odd n's entries of the full one
        odd = sieve_tables(lo, hi, star=star, odd=True)
        assert np.array_equal(odd, _odd_entries(column, lo))
    # the ends, both sides of the cut, the first multiple of q, the member
    # with the most factors 2, and a few random members
    deep = max(range(lo, hi + 1), key=lambda n: n & -n)
    sample = {lo, hi, cut, min(cut + 1, hi), min(first, hi), deep}
    sample |= set(data.draw(st.lists(st.integers(lo, hi), max_size=2), label="more"))
    for n in sorted(sample):
        f = factorize(n)
        assert int(whole[n - lo]) == sigma_of(f), n
        assert int(whole_star[n - lo]) == sigma_star_of(f), n


def test_profile_of_counts_prime_factors() -> None:
    # omega feeds classify's L_star; both counts against factorize
    assert profile_of(64) == Profile(64, 127, 65, 1, 6, ((2, 6),))
    assert profile_of(60).sigma == 168
    one = profile_of(1)
    assert (one.sigma, one.sigma_star, one.omega, one.big_omega) == (1, 1, 0, 0)
    assert one.factorization == ()
    for n in list(range(1, 500)) + [3472, 173369889, 2**40 - 1]:
        p = profile_of(n)
        f = factorize(n)
        assert (p.omega, p.big_omega) == (len(f), sum(e for _, e in f))


def test_profile_of_matches_sieve(sieved) -> None:
    sigma, star = sieved
    for n in (1, 2, 64, 135, 3472, 173369889 % ORACLE_LIMIT + 2):
        p = profile_of(n)
        assert (p.sigma, p.sigma_star) == (int(sigma[n - 1]), int(star[n - 1]))


def test_primes_upto() -> None:
    assert primes_upto(1).size == 0
    assert primes_upto(2).tolist() == [2]
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10**6)) == 78498
