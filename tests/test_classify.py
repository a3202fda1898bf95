"""Classification predicates: frozen examples, pairwise identities, JSON shape."""

from __future__ import annotations

import json
import random
from dataclasses import fields
from math import gcd

import numpy as np
import pytest
from oracles import classify_reference, counts_reference

from harmonia.arith import factorize, sigma_of, sigma_star_of
from harmonia.classify import (
    TupleRecord,
    _prime_rows,
    _profile_columns,
    classify,
    classify_all,
    format_factorization,
)
from harmonia.search import SearchConfig, search_pairs, search_triples


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


def test_pair_gcds_are_derived_not_stored() -> None:
    # g1 and g2 follow from members and sigma, and K, L and L* from the
    # factorizations; test_pair_diagnostics_frozen_rows and
    # test_derived_counts_frozen_cases check their values
    assert [f.name for f in fields(TupleRecord)] == [
        "members",
        "sigma",
        "factorizations",
        "flags",
    ]
    for name in ("g1", "g2", "K", "L_omega", "L_star", "product"):
        assert isinstance(getattr(TupleRecord, name), property), name


def test_derived_counts_frozen_cases() -> None:
    cases = {
        (220, 284): (4, 7, 5),  # 2^2*5*11 and 2^2*71 share the prime 2
        (6, 6): (2, 4, 4),  # a repeated member counts once in K only
        (1,): (0, 0, 0),
        # above 2^56 the profile columns are object arrays of Python ints
        (2**63, 2**64 - 1): (8, 70, 8),
        (6, 3 * 2**57): (2, 60, 4),
    }
    records = classify_all(cases)
    assert [(r.K, r.L_omega, r.L_star) for r in records] == list(cases.values())
    assert [counts_reference(t) for t in cases] == list(cases.values())


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


# --- classify_all against the per-tuple reference ------------------------------


def _assert_reference(records: list[TupleRecord], tuples) -> None:
    """The records equal classify_reference of the tuples, and the (K, L, L*)
    they read off their factorizations equal the oracle's own counts."""
    tuples = list(tuples)
    assert records == [classify_reference(t) for t in tuples]
    counts = [(r.K, r.L_omega, r.L_star) for r in records]
    assert counts == [counts_reference(t) for t in tuples]


def test_classify_is_the_one_tuple_case_of_classify_all() -> None:
    cases = [(135, 3472), (3472, 135), (6, 6), (1,), (2, 3, 5), (64, 173369889)]
    assert classify_all(cases) == [classify(c) for c in cases]
    assert classify_all([]) == []
    assert classify_all(iter([[220, 284]]))[0].members == (220, 284)


@pytest.mark.parametrize("kind", ["harmonious", "unitary_harmonious", "amicable"])
def test_classify_all_matches_reference_on_1e6_pairs(kind) -> None:
    records = search_pairs(SearchConfig(bound=10**6, kind=kind, threads=2))
    assert len(records) > 20
    members = [r.members for r in records]
    _assert_reference(records, members)
    _assert_reference(classify_all(members), members)


def test_classify_all_matches_reference_on_1e4_triples() -> None:
    records = search_triples(SearchConfig(bound=10**4, k=3, threads=2))
    assert len(records) == 2074
    _assert_reference(records, [r.members for r in records])


def test_classify_all_matches_reference_on_random_tuples() -> None:
    rng = random.Random(12)
    pools = [lambda: 1, lambda: rng.randint(1, 40), lambda: rng.randint(1, 10**6),
             lambda: rng.randint(1, 2**40)]
    tuples = []
    for _ in range(600):
        t = [rng.choice(pools)() for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            t.append(rng.choice(t))  # a repeated member
        tuples.append(t)
    assert any(len(set(t)) < len(t) for t in tuples)
    assert {len(t) for t in tuples} >= set(range(1, 7))
    _assert_reference(classify_all(tuples), tuples)


def test_classify_all_object_path_matches_reference() -> None:
    # k * sigma_max^k >= 2^63 sends these tuples through the object-array
    # expressions instead of int64; the multiperfect diagonals are
    # harmonious, so an int64 overflow would show as a false verdict
    big = [
        (30240, 30240, 30240, 30240),  # sigma(30240) = 4 * 30240
        (459818240, 459818240, 459818240),  # sigma(n) = 3n
        (137438691328, 137438691328),  # the perfect number 2^18 (2^19 - 1)
        (2**31 - 1, 2**31 - 1, 7),
        (2**40 - 87, 2**40 - 3),
        (1048573 * 1048583, 2**40 + 15),
        (3000017, 3000029, 4194304),
        (135, 3472, 2**22 + 1),
        (2**63, 2**64 - 1),
    ]
    for t in big:
        sigma_max = max(sigma_of(factorize(m)) for m in t)
        assert len(t) * sigma_max ** len(t) >= 1 << 63
    # alone, the members below 2^56 keep int64 profile columns
    for t in big:
        _assert_reference([classify(t)], [t])
    assert all(classify(t).flags["harmonious"] for t in big[:3])
    # a mixed batch: int64 and object groups in one call
    cases = big + [(135, 3472), (64, 173369889), (6, 6, 6, 6)]
    _assert_reference(classify_all(cases), cases)


# --- column factorization ---------------------------------------------------------


def _facts(n: int) -> tuple:
    """sigma, factorization, K, L and L* of the one-tuple (n,)."""
    f = factorize(n)
    return sigma_of(f), f, len(f), sum(e for _, e in f), len(f)


def _sigma_star_column(members: list[int]) -> list[int]:
    """classify_all's sigma* column of the ascending members."""
    rows = _prime_rows(np.array(members, dtype=np.uint64))
    return _profile_columns(members, *rows)[2].tolist()


def test_column_factorization_exact_up_to_1e5() -> None:
    members = list(range(1, 10**5 + 1))
    records = classify_all([(n,) for n in members])
    for n, rec in zip(members, records):
        assert rec.members == (n,)
        facts = (rec.sigma[0], rec.factorizations[0], rec.K, rec.L_omega, rec.L_star)
        assert facts == _facts(n), n
    assert _sigma_star_column(members) == [sigma_star_of(factorize(n)) for n in members]


def test_column_factorization_exact_on_large_members() -> None:
    semiprime = 1048573 * 1048583  # both prime, product near 2^40
    assert factorize(semiprime) == ((1048573, 1), (1048583, 1))
    large = [2**31 - 1, semiprime, 2**40 - 87, 2**63, 2**63 + 1, 2**64 - 1]
    for rec, n in zip(classify_all([(n,) for n in large]), large):
        facts = (rec.sigma[0], rec.factorizations[0], rec.K, rec.L_omega, rec.L_star)
        assert facts == _facts(n), n
    # above 2^56 the columns are object arrays of Python ints
    assert _sigma_star_column(large) == [sigma_star_of(factorize(n)) for n in large]


def test_classify_all_rejects_bad_members_with_the_old_messages() -> None:
    cases = [
        ((), "need at least one member"),
        ((0, 5), "members must be positive integers, got 0"),
        ((5, -3), "members must be positive integers, got -3"),
        ((2.5, 5), "members must be positive integers, got 2.5"),
        ((True, 5), "members must be positive integers, got True"),
        ((5, "7"), "members must be positive integers, got '7'"),
        ((5, 2**64), "factorize requires n < 2\\^64, got 18446744073709551616"),
        ((2**65, 2**64, 5), "factorize requires n < 2\\^64, got 18446744073709551616"),
    ]
    for members, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            classify(members)
        with pytest.raises(ValueError, match=f"^{message}$"):
            classify_all([(6, 6), members])
        with pytest.raises(ValueError, match=f"^{message}$"):
            classify_reference(members)
    assert classify((2**64 - 1,)).members == (2**64 - 1,)
