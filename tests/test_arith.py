"""Divisor-sum core: frozen values, independent oracles, sieve consistency."""

from __future__ import annotations

import random
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonia.arith import (
    MAX_SIEVE_BOUND,
    ArithmeticProfile,
    factorize,
    merge_factorizations,
    primes_upto,
    product_of,
    sieve_tables,
    sigma_of,
    sigma_star_of,
)

ORACLE_LIMIT = 10**6


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
def sieved():
    return sieve_tables(1, ORACLE_LIMIT, star=True)


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
        assert product_of(f) == n
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
    assert np.array_equal(sieved.sigma, oracle_table[1:])


def test_sieve_against_single_n_oracles(sieved) -> None:
    rng = random.Random(777)
    samples = list(range(1, 300)) + [rng.randrange(1, ORACLE_LIMIT) for _ in range(120)]
    for n in samples:
        i = sieved.index(n)
        assert int(sieved.sigma[i]) == oracle_sigma_single(n)
        assert int(sieved.sigma_star[i]) == oracle_sigma_star_single(n)


def test_sigma_multiplicative_on_coprime_pairs(sieved) -> None:
    rng = random.Random(99)
    checked = 0
    while checked < 400:
        a = rng.randrange(2, 10**4)
        b = rng.randrange(2, ORACLE_LIMIT // a)
        if gcd(a, b) != 1:
            continue
        ia, ib, iab = sieved.index(a), sieved.index(b), sieved.index(a * b)
        assert sieved.sigma[iab] == sieved.sigma[ia] * sieved.sigma[ib]
        assert sieved.sigma_star[iab] == sieved.sigma_star[ia] * sieved.sigma_star[ib]
        checked += 1


def test_sigma_star_le_sigma_equality_iff_squarefree(sieved) -> None:
    lim = 10**4
    star = sieved.sigma_star[:lim]
    sig = sieved.sigma[:lim]
    assert np.all(star <= sig)
    for n in range(1, lim + 1):
        squarefree = all(e == 1 for _, e in factorize(n))
        assert (sig[n - 1] == star[n - 1]) == squarefree


def test_segmented_sieve_matches_whole_range() -> None:
    whole = sieve_tables(1, 30000, star=True)
    cuts = [1, 7, 4096, 9999, 10000, 25007, 30000]
    ps = primes_upto(isqrt(30000))
    for lo, hi in zip(cuts, cuts[1:]):
        seg = sieve_tables(lo, hi, star=True, primes=ps)
        sl = slice(lo - 1, hi)
        assert np.array_equal(seg.sigma, whole.sigma[sl])
        assert np.array_equal(seg.sigma_star, whole.sigma_star[sl])


# prime powers up to the sieve envelope, small primes and large
_PRIME_POWERS = [
    p**k
    for p in (2, 3, 5, 7, 11, 13, 1009, 65537, 1048573)
    for k in range(1, 41)
    if p**k <= MAX_SIEVE_BOUND
]
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
    whole = sieve_tables(lo, hi, star=True)
    q = data.draw(st.sampled_from(_PRIME_POWERS), label="q")
    first = -(-lo // q) * q
    cut = data.draw(
        st.one_of(
            st.integers(lo, hi),
            st.builds(lambda d: min(max(first + d, lo), hi), st.integers(-1, 1)),
        ),
        label="cut",
    )
    ps = primes_upto(isqrt(hi))
    parts = [sieve_tables(lo, cut, star=True, primes=ps)]
    if cut < hi:
        parts.append(sieve_tables(cut + 1, hi, star=True, primes=ps))
    assert np.array_equal(np.concatenate([t.sigma for t in parts]), whole.sigma)
    assert np.array_equal(np.concatenate([t.sigma_star for t in parts]), whole.sigma_star)
    # the ends, both sides of the cut, the first multiple of q, the member
    # with the most factors 2, and a few random members
    deep = max(range(lo, hi + 1), key=lambda n: n & -n)
    sample = {lo, hi, cut, min(cut + 1, hi), min(first, hi), deep}
    sample |= set(data.draw(st.lists(st.integers(lo, hi), max_size=2), label="more"))
    for n in sorted(sample):
        f = factorize(n)
        i = whole.index(n)
        assert int(whole.sigma[i]) == sigma_of(f), n
        assert int(whole.sigma_star[i]) == sigma_star_of(f), n


def test_profile_of_counts_prime_factors() -> None:
    # omega feeds classify's L_star; both counts against factorize
    assert ArithmeticProfile.of(64) == ArithmeticProfile(64, 127, 65, 1, 6)
    assert ArithmeticProfile.of(64).factorization == ((2, 6),)
    assert ArithmeticProfile.of(60).sigma == 168
    one = ArithmeticProfile.of(1)
    assert (one.sigma, one.sigma_star, one.omega, one.big_omega) == (1, 1, 0, 0)
    assert one.factorization == ()
    for n in list(range(1, 500)) + [3472, 173369889, 2**40 - 1]:
        p = ArithmeticProfile.of(n)
        f = factorize(n)
        assert (p.omega, p.big_omega) == (len(f), sum(e for _, e in f))


def test_profile_of_matches_sieve(sieved) -> None:
    for n in (1, 2, 64, 135, 3472, 173369889 % ORACLE_LIMIT + 2):
        p = ArithmeticProfile.of(n)
        i = sieved.index(n)
        assert (p.sigma, p.sigma_star) == (int(sieved.sigma[i]), int(sieved.sigma_star[i]))


def test_primes_upto() -> None:
    assert primes_upto(1).size == 0
    assert primes_upto(2).tolist() == [2]
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10**6)) == 78498
