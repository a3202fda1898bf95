"""Lemma oracle tests: frozen worked examples, enumeration counts, and
small exhaustive grids cross-checked against the per-instance verdicts."""

import re
import types
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest

import harmonia.lemmas
from harmonia.arith import factorize
from harmonia.bounds import tower
from harmonia.classify import classify
from harmonia.lemmas import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DiophantineInstance,
    check_hb,
    check_pre_cook,
    instance_count,
    rational_grid,
    scan_cook_grid,
    scan_divisibility_grid,
    scan_hb_grid,
    scan_pre_cook_grid,
)
from oracles import check_cook, check_divisibility, enumerate_instances

ANARCHY_PAIR = (64, 173369889)


def test_hb1_worked_example():
    inst = DiophantineInstance(m=(4,), partition=(1,), a=(2, 3), b=(1, 2))
    verdict = check_hb("hb1", inst)
    assert verdict.hypotheses_hold
    assert verdict.conclusion_holds
    assert verdict.witnesses["sum_full"] == 1
    assert verdict.witnesses["sum_partial"] == Fraction(7, 6)
    assert verdict.witnesses["lhs"] == 24
    assert verdict.witnesses["rhs"] == 42


def test_hb1_rejects_small_a():
    inst = DiophantineInstance(m=(4,), partition=(0,), a=(1, 3), b=(2, 2))
    verdict = check_hb("hb1", inst)
    assert not verdict.hypotheses_hold
    assert verdict.conclusion_holds is None
    assert "a_i >= b_i" in verdict.reason


def test_hb1_hypotheses_can_fail():
    # partial sum is exactly 1, not > 1
    inst = DiophantineInstance(m=(2,), partition=(0,), a=(2,), b=(2,))
    verdict = check_hb("hb1", inst)
    assert not verdict.hypotheses_hold
    # full sum above 1
    inst = DiophantineInstance(m=(5,), partition=(0,), a=(2,), b=(4,))
    assert not check_hb("hb1", inst).hypotheses_hold


def test_hb2_worked_example():
    inst = DiophantineInstance(m=(2,), partition=(0,), a=(2,), b=(1,))
    verdict = check_hb("hb2", inst)
    assert verdict.hypotheses_hold
    assert verdict.conclusion_holds
    assert verdict.witnesses["sum_full"] == 1
    assert verdict.witnesses["sum_partial"] == Fraction(1, 2)
    assert verdict.witnesses["lhs"] == 2
    assert verdict.witnesses["rhs"] == 2
    assert verdict.remark_holds


def test_hb_checks_build_tower_only_when_hypotheses_hold(monkeypatch):
    calls = []

    def counting_tower(r, x):
        calls.append((r, x))
        return tower(r, x)

    monkeypatch.setattr(harmonia.lemmas, "tower", counting_tower)
    # hb2: the partial sum 3/2 * 2^21 is not below 1; tower(22, 2) alone
    # would take about a second to build
    fails_hb2 = DiophantineInstance(m=(2,) * 22, partition=(0,) * 22, a=(2,), b=(3,))
    fails_hb1 = DiophantineInstance(m=(2,), partition=(0,), a=(2,), b=(2,))
    for lemma, inst in (("hb2", fails_hb2), ("hb1", fails_hb1)):
        verdict = check_hb(lemma, inst)
        assert not verdict.hypotheses_hold and verdict.conclusion_holds is None
        assert "lhs" not in verdict.witnesses and "rhs" not in verdict.witnesses
    assert calls == []
    hb1_worked = DiophantineInstance(m=(4,), partition=(1,), a=(2, 3), b=(1, 2))
    hb2_worked = DiophantineInstance(m=(2,), partition=(0,), a=(2,), b=(1,))
    assert check_hb("hb1", hb1_worked).conclusion_holds
    assert check_hb("hb2", hb2_worked).conclusion_holds
    assert calls == [(1, 7), (1, 2)]


def test_instance_counts_frozen():
    assert instance_count(1, 1, 3, 2) == 8
    assert instance_count(2, 2, 3, 2) == 192
    assert len(list(enumerate_instances(1, 1, 3, 2))) == 8
    assert len(list(enumerate_instances(2, 2, 3, 2))) == 192


def test_enumeration_order():
    insts = list(enumerate_instances(1, 1, 3, 2))
    first = insts[0]
    assert (first.partition, first.m, first.a, first.b) == ((0,), (2,), (1,), (1,))
    last = insts[-1]
    assert (last.partition, last.m, last.a, last.b) == ((0,), (3,), (2,), (2,))
    seen = [(i.partition, i.m, i.a, i.b) for i in insts]
    assert seen == sorted(seen)


def test_enumeration_budget_refusal():
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_instances(2, 3, 12, 6, budget=100))
    assert str(instance_count(2, 3, 12, 6)) in str(err.value)
    # the box over DEFAULT_BUDGET is refused before any work
    with pytest.raises(BudgetExceeded) as err:
        scan_hb_grid("hb1", 3, 3, 12, 6)
    assert "grid holds 392879916 instances" in str(err.value)


def test_cook_budget_refusal_enumerates_nothing(monkeypatch):
    # the benchmark's box runs; its count is the closed form over 30 values
    assert scan_cook_grid(2, value_max=6, den_max=4).instances == 30**2 + comb(31, 2) ** 2

    def refuse(*args):
        raise AssertionError("the cook scan enumerated sequences")

    monkeypatch.setattr(
        harmonia.lemmas, "itertools", types.SimpleNamespace(combinations_with_replacement=refuse)
    )
    # 132 grid values: sum over k <= 3 of C(131 + k, k)^2 instances
    want = sum(comb(131 + k, k) ** 2 for k in (1, 2, 3))
    assert want == 153806933764
    with pytest.raises(BudgetExceeded) as err:
        scan_cook_grid(3, value_max=12, den_max=6)
    assert f"grid holds {want} instances, over budget {DEFAULT_BUDGET}" in str(err.value)


def test_check_hb_refuses_an_unknown_lemma():
    inst = DiophantineInstance(m=(2,), partition=(0,), a=(2,), b=(1,))
    with pytest.raises(ValueError) as by_check:
        check_hb("hb3", inst)
    with pytest.raises(ValueError) as by_scan:
        scan_hb_grid("hb3", 1, 1, 2, 1)
    assert str(by_check.value) == str(by_scan.value) == "unknown sum-form lemma 'hb3'"


def test_instance_validation():
    # one refusal per rule; k = len(a) and R = len(m)
    refused = {
        "k >= 1 and R >= 1": dict(m=(), partition=(), a=(1,), b=(1,)),
        "partition must have the length of m": dict(m=(2,), partition=(0, 0), a=(1,), b=(1,)),
        "a and b must have equal length": dict(m=(2,), partition=(0,), a=(1, 1), b=(1,)),
        "m_j >= 2": dict(m=(1,), partition=(0,), a=(1,), b=(1,)),
        "nondecreasing": dict(m=(3, 2), partition=(0, 0), a=(1,), b=(1,)),
        "class indices below k": dict(m=(2,), partition=(1,), a=(1,), b=(1,)),
        "coefficients must be >= 1": dict(m=(2,), partition=(0,), a=(1,), b=(0,)),
    }
    for message, kwargs in refused.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            DiophantineInstance(**kwargs)
    inst = DiophantineInstance(m=(2, 3, 3), partition=(0, 1, 1), a=(1, 2), b=(1, 1))
    assert (inst.k, inst.R) == (2, 3)


def _oracle_scan(lemma, k_max, r_max, m_max, coef_max):
    """What scan_hb_grid must report, from the per-instance oracle: counts,
    equalities, remark violations, counterexamples and the ordered
    witness dicts."""
    total = equal = remark_bad = 0
    bad, witnesses = [], []
    for k in range(1, k_max + 1):
        for R in range(1, r_max + 1):
            for inst in enumerate_instances(k, R, m_max, coef_max):
                total += 1
                verdict = check_hb(lemma, inst)
                if not verdict.hypotheses_hold:
                    continue
                lhs, rhs = verdict.witnesses["lhs"], verdict.witnesses["rhs"]
                equal += lhs == rhs
                remark_bad += verdict.remark_holds is False
                if verdict.counterexample:
                    bad.append(inst)
                witnesses.append(
                    {"k": k, "R": R, "m": list(inst.m), "partition": list(inst.partition),
                     "a": list(inst.a), "b": list(inst.b), "lhs": lhs, "rhs": rhs}
                )
    return total, len(witnesses), equal, remark_bad, bad, witnesses


def _kernel_scan(lemma, *box):
    witnesses = []
    r = scan_hb_grid(lemma, *box, witness_sink=witnesses.append)
    return (
        r.instances, r.hypotheses_held, r.conclusion_equalities, r.remark_violations,
        r.counterexamples, witnesses,
    )


@pytest.mark.parametrize("lemma", ["hb1", "hb2"])
def test_hb_grid_matches_instance_checks(lemma):
    # every instance, witnesses compared in order; (3, 2, 5, 3) has 3 classes
    for box, instances in (((2, 2, 6, 4), 18240), ((3, 2, 5, 3), 78372)):
        got = _kernel_scan(lemma, *box)
        assert got == _oracle_scan(lemma, *box)
        assert got[0] == instances and got[1] > 0
        assert got[3] == 0 and not got[4]
        assert all(type(v) is int for w in got[5] for v in (w["lhs"], w["rhs"], *w["m"]))


@pytest.mark.parametrize(
    "box, wraps_from, instances, held",
    [((1, 32, 4, 2), 31, 26176, 4), ((1, 28, 5, 2), 27, 143836, 8)],
)
def test_hb2_grid_wrapping_strata_on_object_arrays(box, wraps_from, instances, held, monkeypatch):
    # k * coef_max^k * m_max^R reaches 2^63 at R = wraps_from, so those strata
    # run on Python ints.  Wrapped int64 sums there would pass instances whose
    # tower(R, x) runs to 2^R * log2(x) bits; every true survivor lies far
    # below (counts frozen from the per-instance loop)
    def guarded_tower(r, x):
        assert r < wraps_from, "survivor from a stratum past the int64 bound"
        return tower(r, x)

    monkeypatch.setattr(harmonia.lemmas, "tower", guarded_tower)
    report = scan_hb_grid("hb2", *box)
    assert (report.instances, report.hypotheses_held) == (instances, held)
    assert report.conclusion_equalities == 2 and report.clean


@pytest.mark.parametrize("lemma", ["hb1", "hb2"])
def test_hb_grid_chunk_edges(lemma, monkeypatch):
    want = _kernel_scan(lemma, 2, 3, 6, 3)
    monkeypatch.setattr(harmonia.lemmas, "_CHUNK", 7)
    assert _kernel_scan(lemma, 2, 3, 6, 3) == want


@pytest.mark.parametrize(
    "lemma, held, equalities", [("hb1", 93062, 0), ("hb2", 10043, 5)]
)
def test_hb_grid_k3_box(lemma, held, equalities):
    # frozen from the per-instance loop this kernel replaced
    report = scan_hb_grid(lemma, 3, 3, 12, 4)
    assert (report.instances, report.hypotheses_held) == (34862256, held)
    assert report.conclusion_equalities == equalities
    assert report.remark_violations == 0 and not report.counterexamples


def test_divisibility_grid_classifies_members_once(monkeypatch):
    calls = []

    def counting(members):
        calls.append(tuple(members))
        return classify(members)

    monkeypatch.setattr(harmonia.lemmas, "classify", counting)
    assert scan_divisibility_grid(ANARCHY_PAIR).instances == 242
    assert calls == [ANARCHY_PAIR]


def test_hb1_weaker_consequence():
    # hypotheses force sum(b_i/a_i) > 1, hence >= (a+1)/a over denominator a
    for k in (1, 2):
        for R in (1, 2):
            for inst in enumerate_instances(k, R, 6, 4):
                verdict = check_hb("hb1", inst)
                if not verdict.hypotheses_hold:
                    continue
                a = 1
                for x in inst.a:
                    a *= x
                ratio_sum = sum(Fraction(y, x) for x, y in zip(inst.a, inst.b))
                assert ratio_sum >= Fraction(a + 1, a)


def test_hb2_remark_forced():
    for k in (1, 2):
        for R in (1, 2):
            for inst in enumerate_instances(k, R, 6, 4):
                verdict = check_hb("hb2", inst)
                if verdict.hypotheses_hold:
                    assert verdict.remark_holds


def test_extremal_sequence_hits_ratio_exactly():
    # x_j = (a+1)^(2^(j-1)) + 1 below the top slot, x_R = (a+1)^(2^(R-1)):
    # the damped product collapses to a/(a+1)
    for a in range(1, 5):
        for R in range(1, 4):
            xs = [(a + 1) ** (1 << (j - 1)) + 1 for j in range(1, R)]
            xs.append((a + 1) ** (1 << (R - 1)))
            product = Fraction(1)
            for x in xs:
                product *= Fraction(x - 1, x)
            assert product == Fraction(a, a + 1)


def test_check_cook_frozen():
    verdict = check_cook([2], [3])
    assert verdict.hypotheses_hold and verdict.conclusion_holds
    assert verdict.witnesses["minus_x"] == Fraction(1, 2)
    assert verdict.witnesses["minus_y"] == Fraction(2, 3)
    assert verdict.witnesses["plus_x"] == Fraction(3, 2)
    assert verdict.witnesses["plus_y"] == Fraction(4, 3)

    same = check_cook([2, 5], [2, 5])
    assert same.hypotheses_hold and same.conclusion_holds

    swapped = check_cook([3], [2])
    assert not swapped.hypotheses_hold
    assert swapped.conclusion_holds is None


def test_check_cook_validation():
    with pytest.raises(ValueError):
        check_cook([2], [2, 3])
    with pytest.raises(ValueError):
        check_cook([], [])
    with pytest.raises(ValueError):
        check_cook([1], [2])
    with pytest.raises(ValueError):
        check_cook([3, 2], [2, 3])


def test_rational_grid():
    grid = rational_grid(3, 2)
    assert grid == [Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
    assert all(v > 1 for v in rational_grid(6, 4))
    assert len(rational_grid(6, 4)) == 30


def test_cook_grid_matches_fraction_path():
    report = scan_cook_grid(2, value_max=3, den_max=2)
    values = rational_grid(3, 2)
    seqs = []
    for k in (1, 2):
        for i in range(len(values)):
            if k == 1:
                seqs.append((values[i],))
            else:
                seqs.extend((values[i], values[j]) for j in range(i, len(values)))
    per_len = {1: [s for s in seqs if len(s) == 1], 2: [s for s in seqs if len(s) == 2]}
    total = held = bad = 0
    for k, group in per_len.items():
        total += len(group) ** 2
        for x in group:
            for y in group:
                verdict = check_cook(x, y)
                if verdict.hypotheses_hold:
                    held += 1
                    if not verdict.conclusion_holds:
                        bad += 1
    assert report.instances == total
    assert report.hypotheses_held == held
    assert len(report.counterexamples) == bad == 0


def test_cook_grid_acceptance_box_is_reasonable():
    # the 30 grid values to 6 with denominators to 4, sequences of length 1
    report = scan_cook_grid(1, value_max=6, den_max=4)
    assert report.instances == 30 * 30
    assert report.clean


def test_pre_cook_frozen():
    verdict = check_pre_cook(1, 1, Fraction(1, 2))
    assert verdict.conclusion_holds
    assert verdict.witnesses["minus_orig"] == 0
    assert verdict.witnesses["minus_spread"] == Fraction(-1, 2)
    assert verdict.witnesses["plus_orig"] == 4
    assert verdict.witnesses["plus_spread"] == Fraction(9, 2)
    with pytest.raises(ValueError):
        check_pre_cook(2, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        check_pre_cook(1, 2, Fraction(3, 2))
    with pytest.raises(ValueError):
        check_pre_cook(0, 2, Fraction(1, 2))


def test_pre_cook_default_grid():
    report = scan_pre_cook_grid()
    assert report.instances == 45
    assert report.hypotheses_held == 45
    assert report.clean


def test_divisibility_worked_example():
    verdict = check_divisibility(ANARCHY_PAIR, (64, 1), (2,))
    assert verdict.hypotheses_hold
    assert verdict.conclusion_holds
    expected = Fraction(1, 2) + Fraction(173369889, 349491681)
    assert verdict.witnesses["sum"] == expected
    assert expected != 1


def test_divisibility_validation():
    with pytest.raises(ValueError):
        check_divisibility(ANARCHY_PAIR, (2, 1), (2,))  # 2 not unitary in 64
    with pytest.raises(ValueError):
        check_divisibility(ANARCHY_PAIR, (1, 1), ())  # U product is 1
    with pytest.raises(ValueError):
        check_divisibility(ANARCHY_PAIR, (64, 1), (3,))  # 3 does not divide U
    with pytest.raises(ValueError):
        check_divisibility((220, 284), (4, 1), (2,))  # not an anarchy tuple
    with pytest.raises(ValueError):
        check_divisibility(ANARCHY_PAIR, (64,), (2,))


def test_divisibility_grid_on_anarchy_pair():
    report = scan_divisibility_grid(ANARCHY_PAIR)
    assert report.instances == 242
    assert report.clean


def _unitary_divisors(n):
    powers = [p**e for p, e in factorize(n)]
    return sorted(
        prod(chosen) for r in range(len(powers) + 1) for chosen in combinations(powers, r)
    )


def test_divisibility_grid_matches_the_oracle_split_by_split():
    # every unitary split times every subset of the U-primes, one oracle call each
    seen, ones = 0, []
    for parts in product(*(_unitary_divisors(m) for m in ANARCHY_PAIR)):
        if prod(parts) == 1:
            continue
        u_primes = [p for p, _ in factorize(prod(parts))]
        for r in range(len(u_primes) + 1):
            for subset in combinations(u_primes, r):
                verdict = check_divisibility(ANARCHY_PAIR, parts, subset)
                assert verdict.hypotheses_hold
                seen += 1
                if not verdict.conclusion_holds:
                    ones.append((parts, subset))
    report = scan_divisibility_grid(ANARCHY_PAIR)
    assert seen == report.instances == 242
    assert ones == report.counterexamples == []
