"""Classification predicates: frozen examples, pairwise identities, JSON shape."""

from __future__ import annotations

import json
from math import gcd

import pytest

from harmonia.classify import classify, format_factorization


def flags(members) -> dict[str, bool]:
    return classify(members).flags


def test_harmonious_examples() -> None:
    assert flags((135, 3472))["harmonious"]
    assert flags((6, 6))["harmonious"]
    # 2/3 + 3/4 = 17/12; the exact sum is checked in test_induction
    assert not flags((2, 3))["harmonious"]


def test_unitary_harmonious_examples() -> None:
    assert flags((6, 6))["unitary_harmonious"]
    # (135, 3472) is harmonious but not unitary harmonious
    assert not flags((135, 3472))["unitary_harmonious"]


def test_amicable_examples() -> None:
    assert flags((220, 284))["amicable"]
    assert flags((284, 220))["amicable"]
    assert flags((6, 6))["amicable"]
    assert not flags((135, 3472))["amicable"]
    # amicable implies harmonious
    for members in ((220, 284), (1184, 1210), (6, 6)):
        assert flags(members)["harmonious"]


def test_anarchy_examples() -> None:
    assert flags((64, 173369889))["anarchy"]
    assert not flags((135, 3472))["anarchy"]
    assert not flags((2, 3))["anarchy"]


def test_anarchy_pair_identity() -> None:
    # for pairs: anarchy <=> g1 = g2 = 1 and gcd(M, N) = 1
    cases = [(64, 173369889), (135, 3472), (3, 7), (2, 3), (220, 284), (9, 10)]
    for m, n in cases:
        rec = classify((m, n))
        g1, g2 = rec.g1, rec.g2
        expected = g1 == 1 and g2 == 1 and gcd(m, n) == 1
        assert rec.flags["anarchy"] == expected


def test_pair_diagnostics_frozen_rows() -> None:
    rows = {(135, 3472): (1, 16), (345, 38192): (3, 16), (62992, 63855): (16, 1),
            (64, 173369889): (1, 1)}
    for members, expected in rows.items():
        rec = classify(members)
        assert (rec.g1, rec.g2) == expected, members


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
    back = classify(obj["members"])
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
