"""Classification predicates: frozen examples, pairwise identities, JSON shape."""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

import pytest

from harmonia.classify import (
    classify,
    format_factorization,
    is_amicable,
    is_anarchy,
    is_harmonious,
    is_unitary_harmonious,
    pair_diagnostics,
    record_from_members,
)


def test_harmonious_examples() -> None:
    ok, total = is_harmonious((135, 3472))
    assert ok and total == 1
    ok, total = is_harmonious((6, 6))
    assert ok and total == 1
    ok, total = is_harmonious((2, 3))
    assert not ok and total == Fraction(17, 12)


def test_unitary_harmonious_examples() -> None:
    ok, total = is_unitary_harmonious((6, 6))
    assert ok and total == 1
    # (135, 3472) is harmonious but not unitary harmonious
    ok, _ = is_unitary_harmonious((135, 3472))
    assert not ok


def test_amicable_examples() -> None:
    assert is_amicable((220, 284))
    assert is_amicable((284, 220))
    assert is_amicable((6, 6))
    assert not is_amicable((135, 3472))
    # amicable implies harmonious
    for members in ((220, 284), (1184, 1210), (6, 6)):
        assert is_harmonious(members)[0]


def test_anarchy_examples() -> None:
    assert is_anarchy((64, 173369889))
    assert not is_anarchy((135, 3472))
    assert not is_anarchy((2, 3))
    with pytest.raises(ValueError):
        is_anarchy((6, 6))


def test_anarchy_pair_identity() -> None:
    # for pairs: anarchy <=> g1 = g2 = 1 and gcd(M, N) = 1
    cases = [(64, 173369889), (135, 3472), (3, 7), (2, 3), (220, 284), (9, 10)]
    for m, n in cases:
        g1, g2 = pair_diagnostics(m, n)
        expected = g1 == 1 and g2 == 1 and gcd(m, n) == 1
        assert is_anarchy((m, n)) == expected


def test_pair_diagnostics_frozen_rows() -> None:
    assert pair_diagnostics(135, 3472) == (1, 16)
    assert pair_diagnostics(345, 38192) == (3, 16)
    assert pair_diagnostics(62992, 63855) == (16, 1)
    assert pair_diagnostics(64, 173369889) == (1, 1)


def test_classify_record_fields() -> None:
    rec = classify((173369889, 64))
    assert rec.members == (64, 173369889)
    assert rec.flags["harmonious"]
    assert rec.flags["anarchy"]
    assert rec.flags["pairwise_coprime"]
    assert not rec.flags["amicable"]
    assert rec.K == 5
    assert rec.L_omega == 6 + 4 + 2 + 2 + 2
    assert rec.L_star == 1 + 4
    assert (rec.g1, rec.g2) == (1, 1)
    assert rec.product == 64 * 173369889


def test_classify_equal_members_not_anarchy() -> None:
    rec = classify((6, 6))
    assert rec.flags["harmonious"]
    assert rec.flags["amicable"]
    assert not rec.flags["anarchy"]
    assert not rec.flags["pairwise_coprime"]


def test_classify_permutation_invariant() -> None:
    a = classify((3472, 135))
    b = classify((135, 3472))
    assert a == b
    assert a.to_json() == b.to_json()


def test_classify_sum_coprime() -> None:
    # anarchy amicable would need gcd(product, sum) = 1; check flag wiring
    rec = classify((64, 173369889))
    assert rec.flags["sum_coprime"] == (gcd(64 * 173369889, 64 + 173369889) == 1)
    rec = classify((220, 284))
    assert not rec.flags["sum_coprime"]


def test_classify_triple_and_single() -> None:
    rec = classify((2, 3, 5))
    assert rec.g1 is None and rec.g2 is None
    assert rec.K == 3
    single = classify((1,))
    assert single.flags["harmonious"]  # 1/sigma(1) = 1
    assert single.K == 0


def test_json_shape_and_field_order() -> None:
    rec = classify((135, 3472))
    txt = rec.to_json()
    obj = json.loads(txt)
    assert list(obj.keys()) == ["members", "sigma", "flags", "g1", "g2", "K", "L", "L_star"]
    assert list(obj["flags"].keys()) == [
        "harmonious",
        "unitary_harmonious",
        "amicable",
        "pairwise_coprime",
        "anarchy",
        "sum_coprime",
    ]
    assert obj["members"] == [135, 3472]
    assert obj["sigma"] == [240, 7936]
    assert obj["g1"] == 1 and obj["g2"] == 16
    # round trip through members only
    back = record_from_members(obj["members"])
    assert back == rec


def test_format_factorization() -> None:
    from harmonia.arith import factorize

    assert format_factorization(factorize(3472)) == "2^4*7*31"
    assert format_factorization(factorize(64)) == "2^6"
    assert format_factorization(factorize(1)) == "1"
    assert format_factorization(factorize(135)) == "3^3*5"


def test_classify_rejects_bad_members() -> None:
    with pytest.raises(ValueError):
        classify(())
    with pytest.raises(ValueError):
        classify((0, 5))
