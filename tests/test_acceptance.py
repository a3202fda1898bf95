"""Acceptance gate: one test per shipping criterion.

Run with -v to get one pass/fail line per criterion.  Every expected value
here was produced by an independent oracle (brute force over Fractions or a
plain divisor double loop) or checked against the published tables before
being frozen.  Time budgets are part of the criteria and are asserted.
"""

import os
import time

from harmonia.arith import factorize
from harmonia.bounds import tower, verify_bounds
from harmonia.classify import classify
from harmonia.cli import main
from harmonia.induction import run_induction, theorem_trace
from harmonia.lemmas import (
    scan_cook_grid,
    scan_divisibility_grid,
    scan_hb_grid,
    scan_pre_cook_grid,
)
from harmonia.search import (
    SearchConfig,
    count_table,
    search_anarchy_pairs,
    search_pairs,
    search_triples,
)

from fractions import Fraction


SMALL_BOUNDS = (10, 100, 1000, 10**4, 10**5)
SMALL_COUNTS = (1, 10, 55, 252, 983)
SMALL_COPRIME = (0, 0, 0, 6, 30)


def elapsed_under(budget_s):
    start = time.perf_counter()

    def check():
        took = time.perf_counter() - start
        assert took < budget_s, f"took {took:.1f}s, budget {budget_s}s"

    return check


def test_criterion_1_pair_count_table_small() -> None:
    done = elapsed_under(5)
    rows = count_table(SMALL_BOUNDS)
    assert tuple(r.harmonious for r in rows) == SMALL_COUNTS
    assert tuple(r.coprime_harmonious for r in rows) == SMALL_COPRIME
    done()


def test_criterion_2_pair_count_table_medium() -> None:
    done = elapsed_under(30)
    (row,) = count_table((10**6,))
    assert (row.harmonious, row.coprime_harmonious) == (3666, 133)
    done()

    done = elapsed_under(300)
    (row,) = count_table((10**7,))
    assert (row.harmonious, row.coprime_harmonious) == (13602, 631)
    done()

    # stretch bounds are opt-in, not part of the default suite
    if os.environ.get("HARMONIA_STRETCH") == "1":
        (row,) = count_table((10**8,))
        assert (row.harmonious, row.coprime_harmonious) == (49929, 2566)
        (row,) = count_table((10**9,))
        assert (row.harmonious, row.coprime_harmonious) == (176453, 10013)


def test_criterion_3_coprime_pair_listing(tmp_path, capsys) -> None:
    done = elapsed_under(5)
    out = str(tmp_path / "coprime.csv")
    code = main(
        ["search", "harmonious", "--bound", "100000", "--coprime",
         "--format", "csv", "--out", out]
    )
    capsys.readouterr()
    assert code == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 31
    assert "135,3472,3^3*5,2^4*7*31,1,16" in lines
    assert "345,38192,3*5*23,2^4*7*11*31,3,16" in lines
    assert "62992,63855,2^4*31*127,3^3*5*11*43,16,1" in lines
    # factorization and gcd columns round-trip through exact classification
    for line in lines[1:]:
        m, n, _, _, g1, g2 = line.split(",")
        record = classify((int(m), int(n)))
        assert record.flags["harmonious"] and record.flags["pairwise_coprime"]
        assert (record.g1, record.g2) == (int(g1), int(g2))
    done()


def test_criterion_4_anarchy_pair_discovery() -> None:
    done = elapsed_under(120)
    records = search_anarchy_pairs(10**3, 2 * 10**8)
    assert [r.members for r in records] == [(64, 173369889)]
    record = records[0]
    assert record.sigma == (127, 349491681)
    assert factorize(349491681) == ((3, 2), (7, 1), (11, 2), (19, 2), (127, 1))
    done()


def test_criterion_5_amicable_against_divisor_double_loop() -> None:
    done = elapsed_under(5)
    bound = 10**4
    # independent oracle: aliquot sums by plain divisor accumulation
    aliquot = [0] * (bound + 1)
    for d in range(1, bound // 2 + 1):
        for multiple in range(2 * d, bound + 1, d):
            aliquot[multiple] += d
    expected = []
    for m in range(2, bound + 1):
        n = aliquot[m]
        if m < n <= bound and aliquot[n] == m:
            expected.append((m, n))

    records = search_pairs(SearchConfig(bound=bound, kind="amicable"))
    assert [r.members for r in records] == expected
    assert len(expected) == 5 and expected[0] == (220, 284)
    done()


def test_criterion_6_lemma_grids_exhaustive() -> None:
    done = elapsed_under(10)
    hb1 = scan_hb_grid("hb1", 2, 3, 12, 6)
    assert (hb1.instances, hb1.hypotheses_held) == (3348972, 65870)
    assert not hb1.counterexamples

    hb2 = scan_hb_grid("hb2", 2, 3, 12, 6)
    assert (hb2.instances, hb2.hypotheses_held) == (3348972, 22534)
    assert not hb2.counterexamples
    assert hb2.remark_violations == 0 and hb2.hypotheses_held > 0

    cook = scan_cook_grid(2)
    assert (cook.instances, cook.hypotheses_held) == (217125, 98357)
    assert not cook.counterexamples and cook.conclusion_equalities == 495

    precook = scan_pre_cook_grid()
    assert (precook.instances, precook.hypotheses_held) == (45, 45)
    assert not precook.counterexamples

    div = scan_divisibility_grid((64, 173369889))
    assert (div.instances, div.hypotheses_held) == (242, 242)
    assert not div.counterexamples
    done()


def test_criterion_7_induction_certificate() -> None:
    done = elapsed_under(10)
    trace = run_induction((64, 173369889))
    assert len(trace.steps) <= 5
    assert all(cert.all_hold for cert in trace.steps)
    assert trace.sum_v + trace.sum_w == 10
    assert trace.final_holds

    theorem = theorem_trace((64, 173369889))
    assert theorem.branch == "chen_tang"
    assert theorem.branch_inequality_holds
    assert theorem.combined_holds and theorem.identity_holds
    assert theorem.product_below_main_bound
    done()


def test_criterion_8_bound_suite() -> None:
    done = elapsed_under(60)
    # tower identities, monotonicity, scaling on exact rationals
    xs = [1, Fraction(21, 20), 2, Fraction(5, 2), 3, 10, 97, 500, 1000]
    alphas = [1, Fraction(3, 2), 2, Fraction(7, 3), 5, 10]
    for r in range(1, 9):
        for x in xs:
            half = x ** (1 << (r - 1))
            assert tower(r, x) == half * (half - 1)
            for a in alphas:
                lifted = tower(r, a * x)
                assert lifted >= a ** (1 << (r - 1)) * tower(r, x) >= a * tower(r, x)
        values = [tower(r, x) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))

    # every tuple every search emits passes its applicable bound checks
    batches = [
        search_pairs(SearchConfig(bound=10**4)),
        search_pairs(SearchConfig(bound=10**5, filters={"coprime"})),
        search_pairs(SearchConfig(bound=10**3, kind="unitary_harmonious")),
        search_pairs(SearchConfig(bound=10**4, kind="amicable")),
        search_anarchy_pairs(10**2, 10**6),
        search_triples(SearchConfig(bound=200, k=3)),
        search_triples(SearchConfig(bound=10**4, kind="amicable", k=3)),
    ]
    checked = 0
    for records in batches:
        for record in records:
            assert verify_bounds(record).all_applicable_hold, record.members
            checked += 1
    assert checked > 300
    done()


def test_criterion_9_thread_count_determinism(tmp_path, capsys) -> None:
    blobs = []
    for threads in (1, 2, 8):
        out = str(tmp_path / f"table-{threads}.csv")
        code = main(
            ["report", "table2", "--bounds", "10,100,1000,10000,100000",
             "--threads", str(threads), "--out", out]
        )
        capsys.readouterr()
        assert code == 0
        blobs.append(open(out, "rb").read())
    assert blobs[0] == blobs[1] == blobs[2]
    header = b"bound,harmonious_count,coprime_count"
    assert blobs[0].startswith(header)
