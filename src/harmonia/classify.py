"""Tuple classification: harmonious, unitary harmonious, amicable, anarchy.

A tuple of positive integers is
  harmonious          when sum of M_i / sigma(M_i) is exactly 1,
  unitary harmonious  when the same holds with the unitary divisor sum,
  amicable            when every sigma(M_i) equals the member sum,
  anarchy             when the members are pairwise strangers: distinct and
                      gcd(M_i, M_j * sigma(M_j)) = 1 for all i != j.

All verdicts use exact integer and rational arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, Sequence

from harmonia.arith import ArithmeticProfile, Factorization, merge_factorizations

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


def _profiles_for(members: Sequence[int]) -> tuple[ArithmeticProfile, ...]:
    if not members:
        raise ValueError("need at least one member")
    for m in members:
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"members must be positive integers, got {m!r}")
    return tuple(ArithmeticProfile.of(m) for m in members)


def _sums_to_one(nums: Sequence[int], dens: Sequence[int]) -> bool:
    """Whether sum(n_i / d_i) is exactly 1, in integers: with P the product
    of the d_i, sum(n_i * (P / d_i)) == P."""
    p = prod(dens)
    return sum(n * (p // d) for n, d in zip(nums, dens)) == p


def _anarchy_of(profiles: Sequence[ArithmeticProfile]) -> bool:
    for i, a in enumerate(profiles):
        for j, b in enumerate(profiles):
            if i != j and gcd(a.n, b.n * b.sigma) != 1:
                return False
    return True


@dataclass(frozen=True)
class TupleRecord:
    """Classification result for one tuple, members sorted ascending."""

    members: tuple[int, ...]
    profiles: tuple[ArithmeticProfile, ...]
    flags: dict[str, bool]
    g1: int | None
    g2: int | None
    K: int
    L_omega: int
    L_star: int

    @property
    def product(self) -> int:
        out = 1
        for m in self.members:
            out *= m
        return out

    def to_json_dict(self) -> dict:
        # fixed field order so that output files diff cleanly
        return {
            "members": list(self.members),
            "sigma": [p.sigma for p in self.profiles],
            "flags": {name: self.flags[name] for name in FLAG_NAMES},
            "g1": self.g1,
            "g2": self.g2,
            "K": self.K,
            "L": self.L_omega,
            "L_star": self.L_star,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def classify(members: Iterable[int]) -> TupleRecord:
    """Full classification of a tuple.  Invariant under member permutation.

    Repeated members are not an error: the anarchy flag is simply false for
    them.
    """
    ordered = tuple(sorted(members))
    profiles = _profiles_for(ordered)
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

    g1 = g2 = None
    if k == 2:
        pm, pn = profiles
        g1, g2 = gcd(pm.n, pn.sigma), gcd(pm.sigma, pn.n)

    merged = merge_factorizations(*(p.factorization for p in profiles))
    return TupleRecord(
        members=ordered,
        profiles=profiles,
        flags=flags,
        g1=g1,
        g2=g2,
        K=len(merged),
        L_omega=sum(e for _, e in merged),
        L_star=sum(p.omega for p in profiles),
    )


def format_factorization(f: Factorization) -> str:
    """Render ((2,4),(7,1),(31,1)) as 2^4*7*31; the empty factorization is 1."""
    if not f:
        return "1"
    return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in f)

