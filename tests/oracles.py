"""Slow reference implementations that the tests hold the fast paths to.

Nothing in the library calls these; each one decides its question the
plain way, in exact arithmetic, so a test can compare it with the path the
library runs:

  borho_bound           the k^-k bound as an exact Fraction, against the
                        bounds.tower_holds(product * k**k, L, 2) test that
                        verify_bounds runs without building the tower;
  check_cook            one pair of sequences in Fractions, against the
                        int64 cross products of lemmas.scan_cook_grid;
  check_divisibility    one unitary split, validated per call through
                        classify_reference, its damped sum in Fractions,
                        against lemmas.scan_divisibility_grid, which
                        validates the members once and builds only valid
                        splits;
  enumerate_instances   every instance of a (k, R) stratum, validated, to
                        feed lemmas.check_hb one at a time against the
                        numpy kernel of lemmas.scan_hb_grid (check_hb
                        itself stays in the library: induction runs it);
  profile_of            one integer's profile by scalar trial division,
                        against the column factoring of classify_all;
  classify_reference    one tuple from profile_of's profiles and Python
                        sums, against the column passes of
                        classify.classify_all;
  counts_reference      one tuple's (K, L, L*) from a merged factorization
                        and the members' omega, against the counts that a
                        TupleRecord reads off its factorizations;
  scaled_targets_reference
                        every anarchy sweep target, one Fraction per m at
                        a = 0 and per (odd square, a) at a >= 1, against
                        the Python-int rows of search._anarchy_targets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterable, Iterator, Sequence

from harmonia.arith import (
    Factorization,
    factorize,
    merge_factorizations,
    sigma_of,
    sigma_star_of,
)
from harmonia.bounds import tower
from harmonia.classify import TupleRecord
from harmonia.lemmas import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DiophantineInstance,
    LemmaVerdict,
    instance_count,
)

BORHO_CAP = 32


def borho_bound(k: int, L: int) -> Fraction:
    """(2^(2^L) - 2^(2^(L-1))) / k^k as an exact rational (tower(L, 2) / k^k).

    Heavy near the cap: the numerator has 2^L bits.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if not 0 <= L <= BORHO_CAP:
        raise ValueError(f"k^-k bound needs 0 <= L <= {BORHO_CAP}, got {L}")
    return Fraction(tower(L, 2), k**k)


def check_cook(x: Sequence[Fraction | int], y: Sequence[Fraction | int]) -> LemmaVerdict:
    """Majorized-sequence product comparison.

    Hypothesis: prefix products of x never exceed those of y.  Conclusions:
    prod(1 - 1/x_i) <= prod(1 - 1/y_i), prod(1 + 1/x_i) >= prod(1 + 1/y_i),
    and equality in either happens only for identical sequences.
    """
    xs = [Fraction(v) for v in x]
    ys = [Fraction(v) for v in y]
    if len(xs) != len(ys) or not xs:
        raise ValueError("need two sequences of equal positive length")
    for seq in (xs, ys):
        if any(v <= 1 for v in seq):
            raise ValueError("entries must be > 1")
        if any(u > v for u, v in zip(seq, seq[1:])):
            raise ValueError("sequences must be nondecreasing")
    hyp = True
    px = py = Fraction(1)
    for u, v in zip(xs, ys):
        px *= u
        py *= v
        if px > py:
            hyp = False
            break
    minus_x = prod((1 - 1 / v for v in xs), start=Fraction(1))
    minus_y = prod((1 - 1 / v for v in ys), start=Fraction(1))
    plus_x = prod((1 + 1 / v for v in xs), start=Fraction(1))
    plus_y = prod((1 + 1 / v for v in ys), start=Fraction(1))
    concl = None
    if hyp:
        equal_ok = (minus_x != minus_y and plus_x != plus_y) or xs == ys
        concl = minus_x <= minus_y and plus_x >= plus_y and equal_ok
    return LemmaVerdict(
        hypotheses_hold=hyp,
        conclusion_holds=concl,
        witnesses={
            "minus_x": minus_x,
            "minus_y": minus_y,
            "plus_x": plus_x,
            "plus_y": plus_y,
        },
    )


def check_divisibility(
    members: Sequence[int],
    unitary_parts: Sequence[int],
    prime_set: Sequence[int],
) -> LemmaVerdict:
    """For an anarchy harmonious tuple split as M_i = U_i * V_i with U_i a
    unitary divisor and prod(U_i) > 1, the damped sum over the V_i never
    lands exactly on 1."""
    if len(unitary_parts) != len(members):
        raise ValueError("one unitary part per member")
    flags = classify_reference(members).flags
    if not (flags["harmonious"] and flags["anarchy"]):
        raise ValueError("members must form an anarchy harmonious tuple")
    u_product = 1
    for m, u in zip(members, unitary_parts):
        if u < 1 or m % u != 0 or gcd(u, m // u) != 1:
            raise ValueError(f"{u} is not a unitary divisor of {m}")
        u_product *= u
    if u_product <= 1:
        raise ValueError("need prod(U_i) > 1")
    u_primes = {p for p, _ in factorize(u_product)}
    if not set(prime_set) <= u_primes:
        raise ValueError("prime_set must consist of primes of prod(U_i)")
    total = Fraction(0)
    for m, u in zip(members, unitary_parts):
        damping = prod(Fraction(p - 1, p) for p in prime_set if u % p == 0)
        total += Fraction(m // u, sigma_of(factorize(m // u))) * damping
    return LemmaVerdict(
        hypotheses_hold=True,
        conclusion_holds=total != 1,
        witnesses={"sum": total},
    )


def _raw_instances(
    k: int, R: int, m_max: int, coef_max: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """(partition, m, a, b) tuples in lexicographic order, no validation."""
    partitions = list(itertools.product(range(k), repeat=R))
    m_seqs = list(itertools.combinations_with_replacement(range(2, m_max + 1), R))
    coefs = list(itertools.product(range(1, coef_max + 1), repeat=k))
    for partition in partitions:
        for m in m_seqs:
            for a in coefs:
                for b in coefs:
                    yield partition, m, a, b


def enumerate_instances(
    k: int,
    R: int,
    m_max: int,
    coef_max: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[DiophantineInstance]:
    """Every instance of the exact (k, R) stratum, lexicographic, validated."""
    if m_max < 2 or coef_max < 1:
        raise ValueError("need m_max >= 2 and coef_max >= 1")
    estimate = instance_count(k, R, m_max, coef_max)
    if estimate > budget:
        raise BudgetExceeded(
            f"stratum (k={k}, R={R}, m_max={m_max}, coef_max={coef_max}) has "
            f"{estimate} instances, over the budget of {budget}"
        )
    for partition, m, a, b in _raw_instances(k, R, m_max, coef_max):
        yield DiophantineInstance(m=m, partition=partition, a=a, b=b)


@dataclass(frozen=True)
class Profile:
    """The divisor-sum facts about one integer, with its factorization."""

    n: int
    sigma: int
    sigma_star: int
    omega: int
    big_omega: int
    factorization: Factorization


def profile_of(n: int) -> Profile:
    """The profile of n from factorize and the scalar divisor sums."""
    f = factorize(n)
    return Profile(
        n=n,
        sigma=sigma_of(f),
        sigma_star=sigma_star_of(f),
        omega=len(f),
        big_omega=sum(e for _, e in f),
        factorization=f,
    )


def _profiles_for(members: Iterable[int]) -> tuple[tuple[int, ...], tuple[Profile, ...]]:
    """The members sorted ascending and their profiles; ValueError on the
    members that classify rejects, with its messages."""
    members = tuple(members)
    for m in members:
        # bool is a subclass of int, but True is not a member
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"members must be positive integers, got {m!r}")
    ordered = tuple(sorted(members))
    if not ordered:
        raise ValueError("need at least one member")
    for m in ordered:
        if m < 1:
            raise ValueError(f"members must be positive integers, got {m!r}")
    return ordered, tuple(profile_of(m) for m in ordered)


def _sums_to_one(nums: Sequence[int], dens: Sequence[int]) -> bool:
    """Whether sum(n_i / d_i) is exactly 1, in integers: with P the product
    of the d_i, sum(n_i * (P / d_i)) == P."""
    p = prod(dens)
    return sum(n * (p // d) for n, d in zip(nums, dens)) == p


def _anarchy_of(profiles: Sequence[Profile]) -> bool:
    for i, a in enumerate(profiles):
        for j, b in enumerate(profiles):
            if i != j and gcd(a.n, b.n * b.sigma) != 1:
                return False
    return True


def classify_reference(members: Iterable[int]) -> TupleRecord:
    """Full classification of a tuple.  Invariant under member permutation.

    Repeated members are not an error: the anarchy flag is simply false for
    them.
    """
    ordered, profiles = _profiles_for(members)
    k = len(ordered)

    total = sum(ordered)
    product = prod(ordered)

    distinct = len(set(ordered)) == k
    pairwise_coprime = all(
        gcd(ordered[i], ordered[j]) == 1 for i in range(k) for j in range(i + 1, k)
    )
    flags = {
        "harmonious": _sums_to_one(ordered, [p.sigma for p in profiles]),
        "unitary_harmonious": _sums_to_one(ordered, [p.sigma_star for p in profiles]),
        "amicable": all(p.sigma == total for p in profiles),
        "pairwise_coprime": pairwise_coprime,
        "anarchy": distinct and _anarchy_of(profiles),
        "sum_coprime": gcd(product, total) == 1,
    }
    return TupleRecord(
        members=ordered,
        sigma=tuple(p.sigma for p in profiles),
        factorizations=tuple(p.factorization for p in profiles),
        flags=flags,
    )


def counts_reference(members: Iterable[int]) -> tuple[int, int, int]:
    """(K, L, L*) of a tuple: the distinct primes and the sum of exponents
    of the product's merged factorization, and the sum of omega(M_i)."""
    _, profiles = _profiles_for(members)
    merged = merge_factorizations(*(p.factorization for p in profiles))
    return len(merged), sum(e for _, e in merged), sum(p.omega for p in profiles)


def scaled_targets_reference(small_sigma, n_bound: int) -> list[tuple[Fraction, int, int]]:
    """(t * (2^(a+1) - 1) / 2^a, m, 2^a), the first as a Fraction, with
    t = (sigma(m) - m)/sigma(m), for every m (small_sigma[m - 1] its sigma)
    at a = 0 and for each odd square m > 1 at each a >= 1 with
    2^a <= n_bound.  No row is dropped."""
    rows = []
    for m, s in enumerate(map(int, small_sigma), 1):
        odd_square = m > 1 and m % 2 == 1 and isqrt(m) ** 2 == m
        for a in range(n_bound.bit_length() if odd_square else 1):
            rows.append((Fraction(s - m, s) * Fraction((2 << a) - 1, 1 << a), m, 1 << a))
    return rows
