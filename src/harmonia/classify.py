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
from fractions import Fraction
from math import gcd
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


def is_harmonious(members: Sequence[int]) -> tuple[bool, Fraction]:
    """Whether the ratio sum over sigma is exactly 1; returns the exact sum too."""
    profiles = _profiles_for(members)
    total = sum((Fraction(p.n, p.sigma) for p in profiles), Fraction(0))
    return total == 1, total


def is_unitary_harmonious(members: Sequence[int]) -> tuple[bool, Fraction]:
    """Same as is_harmonious but with the unitary divisor sum."""
    profiles = _profiles_for(members)
    total = sum((Fraction(p.n, p.sigma_star) for p in profiles), Fraction(0))
    return total == 1, total


def is_amicable(members: Sequence[int]) -> bool:
    """All sigma(M_i) equal and equal to the member sum."""
    profiles = _profiles_for(members)
    target = sum(p.n for p in profiles)
    return all(p.sigma == target for p in profiles)


def is_anarchy(members: Sequence[int]) -> bool:
    """Pairwise strangers check.  Raises ValueError on repeated members."""
    profiles = _profiles_for(members)
    if len(set(members)) != len(members):
        raise ValueError("anarchy is defined for distinct members only")
    return _anarchy_of(profiles)


def _anarchy_of(profiles: Sequence[ArithmeticProfile]) -> bool:
    for i, a in enumerate(profiles):
        for j, b in enumerate(profiles):
            if i != j and gcd(a.n, b.n * b.sigma) != 1:
                return False
    return True


def pair_diagnostics(m: int, n: int) -> tuple[int, int]:
    """(gcd(M, sigma(N)), gcd(sigma(M), N)) for a pair."""
    pm, pn = _profiles_for((m, n))
    return gcd(pm.n, pn.sigma), gcd(pm.sigma, pn.n)


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

    Unlike is_anarchy, repeated members are not an error here: the anarchy
    flag is simply false for them.
    """
    ordered = tuple(sorted(members))
    profiles = _profiles_for(ordered)
    k = len(ordered)

    hsum = sum((Fraction(p.n, p.sigma) for p in profiles), Fraction(0))
    usum = sum((Fraction(p.n, p.sigma_star) for p in profiles), Fraction(0))
    total = sum(ordered)
    product = 1
    for m in ordered:
        product *= m

    distinct = len(set(ordered)) == k
    pairwise_coprime = all(
        gcd(ordered[i], ordered[j]) == 1 for i in range(k) for j in range(i + 1, k)
    )
    flags = {
        "harmonious": hsum == 1,
        "unitary_harmonious": usum == 1,
        "amicable": all(p.sigma == total for p in profiles),
        "pairwise_coprime": pairwise_coprime,
        "anarchy": distinct and _anarchy_of(profiles),
        "sum_coprime": gcd(product, total) == 1,
    }

    g1 = g2 = None
    if k == 2:
        g1, g2 = pair_diagnostics(ordered[0], ordered[1])

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


def record_from_members(members: Sequence[int]) -> TupleRecord:
    """Rebuild a full record from member values alone (JSONL/CSV ingestion)."""
    return classify(members)
