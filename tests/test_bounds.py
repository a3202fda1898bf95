"""Tower function laws, frozen bound values, and the dyadic pi^2/6 constant."""

from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

import pytest

import harmonia.bounds
from harmonia.bounds import (
    MAIN_CAP,
    ZETA2_NUM,
    ZETA2_SHIFT,
    BoundReport,
    main_bound,
    main_bound_log2,
    tower,
    tower_holds,
    verify_bounds,
)
from harmonia.classify import classify
from oracles import BORHO_CAP, borho_bound


def test_tower_frozen_values() -> None:
    assert tower(0, 5) == 4
    assert tower(1, 3) == 6
    assert tower(2, 2) == 12
    assert tower(1, 2) == 2
    assert tower(1, 7) == 42
    assert tower(10, 2) == 2**1024 - 2**512


def test_tower_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        tower(-1, 2)
    with pytest.raises(ValueError):
        tower(65, 2)
    with pytest.raises(ValueError):
        tower(3, 0)
    with pytest.raises(ValueError):
        tower(3, Fraction(1, 2))


def test_tower_factored_identity() -> None:
    # x^(2^r) - x^(2^(r-1)) = x^(2^(r-1)) * (x^(2^(r-1)) - 1)
    for r in range(1, 9):
        for x in (1, 2, 3, 10, 97, 1000, Fraction(3, 2), Fraction(22, 7)):
            half = x ** (1 << (r - 1))
            assert tower(r, x) == half * (half - 1)


def test_tower_monotone_in_x() -> None:
    xs = [1, Fraction(21, 20), 2, Fraction(5, 2), 3, 10, 97, 500, 1000]
    for r in range(0, 9):
        values = [tower(r, x) for x in xs]
        for a, b in zip(values, values[1:]):
            assert a < b


def test_tower_scaling_inequalities() -> None:
    # for alpha >= 1, x >= 1, r >= 1:
    #   tower(r, alpha*x) >= alpha^(2^(r-1)) * tower(r, x) >= alpha * tower(r, x)
    alphas = [1, Fraction(3, 2), 2, Fraction(7, 3), 5, 10]
    xs = [1, Fraction(4, 3), 2, 7, 50, 1000]
    for r in range(1, 9):
        for a in alphas:
            for x in xs:
                lifted = tower(r, a * x)
                mid = a ** (1 << (r - 1)) * tower(r, x)
                low = a * tower(r, x)
                assert lifted >= mid >= low


def test_tower_even_index_at_two() -> None:
    for K in range(1, 7):
        val = tower(2 * K, 2)
        assert val == 2 ** (4**K) - 2 ** (4**K // 2)
        assert val < 2 ** (4**K)


def test_main_bound_frozen_values() -> None:
    assert main_bound(1) == 2
    assert main_bound(2) == 422
    assert main_bound(5).bit_length() == 961
    assert main_bound_log2(5) == 4**5 - 2 * 2**5 == 960


def test_main_bound_caps() -> None:
    with pytest.raises(ValueError):
        main_bound(0)
    with pytest.raises(ValueError):
        main_bound(MAIN_CAP + 1)


def test_borho_bound_frozen_values() -> None:
    assert borho_bound(2, 2) == 3
    assert borho_bound(2, 1) == Fraction(1, 2)
    assert borho_bound(3, 3) == Fraction(240, 27)
    assert borho_bound(1, 0) == 1
    with pytest.raises(ValueError):
        borho_bound(0, 3)
    with pytest.raises(ValueError):
        borho_bound(2, BORHO_CAP + 1)


def _atan_inv_bracket(x: int, scale_bits: int) -> tuple[int, int]:
    """Integer bracketing of atan(1/x) * 2^scale_bits via the alternating series.

    Each term is floored, so after m+1 terms the accumulated floor error is
    at most m+1 and the tail is below the first omitted term; both are folded
    into the returned slack.
    """
    s = 1 << scale_bits
    total = 0
    k = 0
    sign = 1
    while True:
        denom = (2 * k + 1) * x ** (2 * k + 1)
        term = s // denom
        if term == 0:
            break
        total += sign * term
        sign = -sign
        k += 1
    slack = k + 2
    return total - slack, total + slack


def test_zeta2_constant_against_independent_pi() -> None:
    # pi = 16*atan(1/5) - 4*atan(1/239); bracket at 96 fractional bits, then
    # square and divide by 6 to box zeta(2)*2^64 between exact rationals
    bits = 96
    lo5, hi5 = _atan_inv_bracket(5, bits)
    lo239, hi239 = _atan_inv_bracket(239, bits)
    pi_lo = 16 * lo5 - 4 * hi239
    pi_hi = 16 * hi5 - 4 * lo239
    assert pi_lo < pi_hi
    # sanity: bracket lands inside a loose window around pi
    assert pi_lo / 2**bits < 3.1415926536
    assert pi_hi / 2**bits > 3.1415926535
    z_lo = Fraction(pi_lo * pi_lo, 6 * 2 ** (2 * bits - ZETA2_SHIFT))
    z_hi = Fraction(pi_hi * pi_hi, 6 * 2 ** (2 * bits - ZETA2_SHIFT))
    # ZETA2_NUM must be exactly ceil(zeta(2) * 2^64)
    assert z_hi <= ZETA2_NUM
    assert z_lo > ZETA2_NUM - 1


def test_verify_bounds_anarchy_pair() -> None:
    rep = verify_bounds(classify((64, 173369889)))
    obj = rep.to_json_dict()
    assert obj["main_applies"]
    assert rep.main_holds is True
    assert rep.borho_holds is True
    assert rep.borho_star_holds is None  # not unitary harmonious
    assert rep.record.K == 5
    assert obj["main_bound_log2"] == 960
    assert obj["main_bound"] == {"bits": 961}
    assert rep.record.product == 64 * 173369889
    assert rep.all_applicable_hold


def test_bound_report_holds_record_and_verdicts(monkeypatch) -> None:
    assert [f.name for f in fields(BoundReport)] == [
        "record",
        "main_holds",
        "borho_holds",
        "borho_star_holds",
    ]

    def refused(K):
        raise AssertionError("verify_bounds built a main bound")

    # the anarchy pair's product is 34 bits, far below the 960-bit octave
    monkeypatch.setattr(harmonia.bounds, "main_bound", refused)
    record = classify((64, 173369889))
    rep = verify_bounds(record)
    assert rep.record is record and rep.main_holds is True


@pytest.mark.parametrize("q", [5, 7, 13, 17, 19, 31])
def test_main_bound_gates_on_anarchy_not_coprimality(q: int) -> None:
    # 135/sigma(135) = 9/16 and N/sigma(N) = 7/16 for N = 7 * 2^(q-1) * (2^q - 1)
    # with 2^q - 1 prime: a pairwise coprime harmonious pair with K = 5 that
    # is no anarchy pair, since gcd(N, sigma(135)) = gcd(N, 240) > 1
    record = classify((135, 7 * 2 ** (q - 1) * (2**q - 1)))
    assert record.flags["harmonious"] and record.flags["pairwise_coprime"]
    assert not record.flags["anarchy"]
    assert record.K == 5
    rep = verify_bounds(record)
    assert rep.main_holds is None
    assert rep.borho_holds is True


def test_verify_bounds_amicable_pair() -> None:
    rep = verify_bounds(classify((220, 284)))
    assert not rep.to_json_dict()["main_applies"]  # not anarchy
    assert rep.main_holds is None
    assert rep.borho_holds is True
    assert rep.all_applicable_hold


def test_verify_bounds_perfect_pair() -> None:
    rep = verify_bounds(classify((6, 6)))
    assert rep.borho_holds is True
    assert rep.borho_star_holds is True  # (6,6) is unitary harmonious
    assert rep.record.L_omega == 4 and rep.record.L_star == 4
    # product 36, bound (2^16 - 2^8)/4 = 16320
    assert 36 * 4 <= 2**16 - 2**8


def test_verify_bounds_non_harmonious() -> None:
    rep = verify_bounds(classify((2, 3)))
    assert rep.borho_holds is None
    assert rep.main_holds is None
    assert rep.all_applicable_hold  # vacuous


def test_bit_rule_agrees_with_materialized_bounds() -> None:
    from harmonia.bounds import main_holds

    for K in range(1, 7):
        b = main_bound(K)
        E = main_bound_log2(K)
        probes = {1, 2, b - 1, b, b + 1, 2**E - 1, 2**E, 2 ** (E + 1)}
        for p in probes:
            if p < 1:
                continue
            assert main_holds(p, K) == (p < b), (K, p)
    for k in (1, 2, 3):
        for L in range(0, 8):
            bound = borho_bound(k, L)
            # the largest product under the bound, and the first one over it
            edge = tower(L, 2) // k**k
            for p in {1, 2, 35, 10**6, edge, edge + 1}:
                assert tower_holds(p * k**k, L, 2) == (p <= bound), (k, L, p)


def test_bound_report_json_rendering() -> None:
    rep = verify_bounds(classify((64, 173369889)))
    obj = rep.to_json_dict()
    assert obj["product"] == str(64 * 173369889)
    assert obj["main_bound"] == {"bits": 961}  # over the 256-bit print cap
    assert obj["main_applies"] is True
    assert list(obj.keys())[:5] == ["members", "K", "L", "L_star", "product"]
