"""Induction engine tests: the worked pair, synthetic mid-states for every
phase branch, defensive error paths, and the aggregate case split."""

import sys
from dataclasses import fields
from fractions import Fraction

import pytest
from oracles import profile_of

import harmonia.induction
from harmonia.bounds import tower
from harmonia.induction import (
    DecompositionState,
    DivisibilityViolation,
    InductionTrace,
    InvariantViolation,
    StepCertificate,
    TheoremReport,
    induction_step,
    run_induction,
    theorem_trace,
)
from harmonia.lemmas import DiophantineInstance, check_hb

PAIR = (64, 173369889)
PAIR_PRIMES = (2, 3, 7, 11, 19)
SIGMA_SMALL = 127
SIGMA_LARGE = 349491681


def test_initial_state():
    state = DecompositionState(PAIR, PAIR)
    assert state.pending == PAIR
    assert state.settled == (1, 1)
    assert state.carry == frozenset()
    assert not state.done


def test_state_validation():
    # one refusal per rule
    with pytest.raises(ValueError, match="equal nonzero length"):
        DecompositionState(PAIR, (64,))
    with pytest.raises(ValueError, match="does not divide"):
        DecompositionState(PAIR, (3, 1))
    with pytest.raises(ValueError, match="share a factor"):
        DecompositionState((4,), (2,))
    with pytest.raises(ValueError, match="pairwise coprime"):
        DecompositionState((6, 10), (6, 10))
    with pytest.raises(ValueError, match="carry primes"):
        DecompositionState(PAIR, PAIR, frozenset({5}))


def test_results_store_inputs_and_verdicts_only():
    # everything else is read off these fields: the values of the derived
    # names are checked against the worked pair in the tests below
    stored = {
        StepCertificate: [
            "step", "damping", "absorbed", "carry_after", "entry_sum", "phase1_sums",
            "phase2_sums", "lhs", "entry_scale", "structure_ok", "bound_holds",
            "improved_holds",
        ],
        InductionTrace: ["members", "steps", "factorization", "final_holds", "chain_holds"],
        TheoremReport: [
            "trace", "branch_inequality_holds", "combined_holds", "identity_holds",
            "product_below_main_bound", "rhs",
        ],
        DecompositionState: ["members", "pending", "carry", "step"],
        DiophantineInstance: ["m", "partition", "a", "b"],
    }
    derived = {
        StepCertificate: ["v", "w", "bound", "improved_bound"],
        InductionTrace: [
            "radical", "phi", "sigma_product", "sum_v", "sum_w", "final_lhs",
            "final_rhs_bits",
        ],
        TheoremReport: ["branch"],
        DecompositionState: ["settled"],
        DiophantineInstance: ["k", "R"],
    }
    for cls, names in stored.items():
        assert [f.name for f in fields(cls)] == names, cls.__name__
        for name in derived[cls]:
            assert isinstance(getattr(cls, name), property), (cls.__name__, name)
    assert sum(len(names) for names in stored.values()) == 31


def test_worked_pair_first_step():
    state, cert = induction_step(DecompositionState(PAIR, PAIR))
    assert cert.damping == PAIR_PRIMES
    assert cert.w == 5
    assert cert.entry_sum == 2
    assert cert.phase1_sums == (
        Fraction(3, 2),
        Fraction(7, 6),
        Fraction(15, 14),
        Fraction(157, 154),
        Fraction(2903, 2926),
    )
    assert cert.absorbed == ((2, 6), (3, 4), (7, 2), (11, 2), (19, 2))
    assert cert.v == 5
    assert cert.exit_sum == 1
    assert all(s < 1 for s in cert.phase2_sums[:-1])
    assert list(cert.phase2_sums) == sorted(cert.phase2_sums)
    assert cert.carry_after == ()
    assert cert.structure_ok and cert.bound_holds
    assert cert.improved_holds is None

    psi = 1
    for p in PAIR_PRIMES:
        psi *= p * (p - 1)
    assert cert.lhs == SIGMA_SMALL * SIGMA_LARGE * psi
    assert cert.bound == tower(10, 2) == 2**1024 - 2**512
    assert state.done
    assert state.settled == PAIR


def test_worked_pair_trace():
    trace = run_induction(PAIR)
    assert len(trace.steps) == 1
    assert trace.primes == PAIR_PRIMES
    assert trace.distinct_primes == 5
    assert trace.sum_v == 5 and trace.sum_w == 5
    assert trace.final_rhs_bits == 1024
    assert trace.final_holds and trace.chain_holds and trace.all_hold

    phi = 1 * 2 * 6 * 10 * 18
    pi = 2 * 3 * 7 * 11 * 19
    assert trace.final_lhs == SIGMA_SMALL * SIGMA_LARGE * phi * pi


def test_trace_determinism():
    assert run_induction(PAIR) == run_induction(PAIR)
    assert run_induction((173369889, 64)).members == PAIR


def test_w0_branch_with_full_carry():
    state = DecompositionState(PAIR, PAIR, frozenset(PAIR_PRIMES))
    new_state, cert = induction_step(state)
    assert cert.w == 0 and cert.damping == ()
    assert cert.v == 5
    assert cert.entry_sum == Fraction(2903, 2926)
    assert new_state.done
    assert cert.improved_bound == tower(5, 8778)
    assert cert.improved_holds and cert.bound_holds
    assert cert.bound == tower(5, 8779)


def test_partial_carry_consistency_identity():
    state = DecompositionState(PAIR, PAIR, frozenset({2, 3}))
    _, cert = induction_step(state)
    assert cert.damping == (7, 11, 19)
    assert cert.w == 3 and cert.v == 5
    assert cert.carry_after == ()
    assert cert.w == cert.v + len(cert.carry_after) - 2


def test_steps_cross_check_their_phases_through_check_hb(monkeypatch):
    # the damping phase as an hb1 instance, the absorbing phase as hb2; a
    # step that starts below 1 damps nothing and feeds hb2 only
    seen = []

    def recording(lemma, inst):
        verdict = check_hb(lemma, inst)
        seen.append((lemma, inst.m, inst.partition, inst.a, inst.b, verdict.conclusion_holds))
        return verdict

    monkeypatch.setattr(harmonia.induction, "check_hb", recording)
    absorbing = ("hb2", (128, 243, 343, 1331, 6859), (0, 1, 1, 1, 1), (2, 4389), (1, 2160), True)
    induction_step(DecompositionState(PAIR, PAIR, frozenset({2, 3})))
    assert seen == [("hb1", (7, 11, 19), (1, 1, 1), (2, 3), (1, 2), True), absorbing]
    seen.clear()
    induction_step(DecompositionState(PAIR, PAIR, frozenset(PAIR_PRIMES)))
    assert seen == [absorbing]


def test_half_settled_state():
    state = DecompositionState(PAIR, (1, 173369889))
    new_state, cert = induction_step(state)
    assert cert.damping == (3, 7, 11, 19)
    assert cert.w == 4 and cert.v == 4
    assert cert.exit_sum == 1
    assert new_state.done


def test_step_on_finished_state():
    state = DecompositionState(PAIR, (1, 1), step=1)
    with pytest.raises(ValueError):
        induction_step(state)


def test_divisibility_violation_at_entry():
    # valid decomposition of a non-anarchy pair whose damped sum is exactly 1
    state = DecompositionState((4, 30), (4, 5), frozenset({2}))
    with pytest.raises(DivisibilityViolation):
        induction_step(state)


def test_divisibility_violation_with_pending_left():
    # extra 23^2 in the big member: absorption recreates the harmonious sum
    # of the original pair while 23^2 is still pending
    members = (64, 173369889 * 529)
    with pytest.raises(DivisibilityViolation):
        induction_step(DecompositionState(members, members))


def test_damping_exhausted():
    with pytest.raises(InvariantViolation):
        induction_step(DecompositionState((2, 3), (2, 3)))
    # carry covers all pending primes, sum still above 1
    state = DecompositionState((4, 9), (4, 9), frozenset({2, 3}))
    with pytest.raises(InvariantViolation):
        induction_step(state)


def test_absorption_exhausted():
    # deficient coprime pair: ratio sum 64/127 + 63/128 < 1
    with pytest.raises(InvariantViolation):
        induction_step(DecompositionState((64, 945), (64, 945)))


def test_run_induction_rejections():
    with pytest.raises(ValueError, match="anarchy"):
        run_induction((135, 3472))
    with pytest.raises(ValueError, match="harmonious"):
        run_induction((2, 3))
    with pytest.raises(ValueError, match="anarchy"):
        run_induction((6, 6))
    with pytest.raises(ValueError, match="prime"):
        run_induction((1,))
    for members in (("64", 173369889), (64, 173369889.0)):
        with pytest.raises(ValueError, match="^members must be positive integers, got "):
            run_induction(members)


def test_rejection_names_exact_ratio_sum():
    # 2/sigma(2) + 3/sigma(3) = 2/3 + 3/4
    with pytest.raises(ValueError, match="ratio sum is 17/12"):
        run_induction((2, 3))


def test_chen_tang_worked_pair():
    report = theorem_trace(PAIR)
    trace = report.trace
    assert trace.distinct_primes == 5
    assert trace.radical == 8778
    assert trace.phi == 2160
    assert report.rhs == 8778**32 - 8778**16

    sigma_product = profile_of(64).sigma * profile_of(173369889).sigma
    assert trace.sigma_product == sigma_product
    assert trace.final_lhs == sigma_product * 2160 * 8778

    kernel = report.to_json_dict()["kernel"]
    assert list(kernel) == [
        "members", "primes", "distinct_primes", "radical", "phi",
        "sigma_product", "lhs", "rhs", "holds",
    ]
    assert kernel["members"] == list(PAIR) and kernel["primes"] == list(PAIR_PRIMES)
    assert (kernel["distinct_primes"], kernel["radical"], kernel["phi"]) == (5, 8778, 2160)
    assert kernel["sigma_product"] == str(sigma_product)
    assert kernel["lhs"] == str(sigma_product * 2160 * 8778)
    assert kernel["rhs"] == {"bits": report.rhs.bit_length()}
    assert kernel["holds"] is True


def test_theorem_trace_worked_pair():
    report = theorem_trace(PAIR)
    assert report.branch == "chen_tang"
    assert report.trace.radical == 8778
    assert report.rhs is not None and report.trace == run_induction(PAIR)
    assert report.to_json_dict()["trace"] is None
    assert report.branch_inequality_holds
    assert report.combined_holds
    assert report.identity_holds
    assert report.trace.product == 64 * 173369889
    assert report.product_below_main_bound
    assert report.all_hold


def test_theorem_trace_induction_branch(monkeypatch):
    # no known tuple has a radical above 2^(2^K); with the threshold at 0
    # the worked pair (radical 8778) takes the induction branch
    monkeypatch.setattr(harmonia.induction, "_radical_threshold", lambda K: 0)
    report = theorem_trace(PAIR)
    trace = report.trace
    assert report.branch == "induction"
    assert report.rhs is None
    assert report.branch_inequality_holds == trace.final_holds
    assert report.all_hold
    payload = report.to_json_dict()
    assert payload["branch"] == "induction"
    assert payload["kernel"] is None
    assert payload["trace"] == trace.to_json_dict()


def test_theorem_trace_decides_the_main_bound_by_bit_length(monkeypatch):
    # 34 product bits against the exponent 4^5 - 2 * 2^5 = 960: the bit
    # length decides, so no main bound is ever built
    def refuse(K):
        raise AssertionError(f"main_bound({K}) was built")

    for name, module in list(sys.modules.items()):
        if (name == "harmonia" or name.startswith("harmonia.")) and hasattr(module, "main_bound"):
            monkeypatch.setattr(module, "main_bound", refuse)
    report = theorem_trace(PAIR)
    assert report.trace.product.bit_length() == 34
    assert report.product_below_main_bound and report.all_hold


def test_theorem_trace_rejections():
    with pytest.raises(ValueError):
        theorem_trace((220, 284))
    with pytest.raises(ValueError):
        theorem_trace((2, 3))


def test_trace_json_shape():
    payload = run_induction(PAIR).to_json_dict()
    assert payload["members"] == [64, 173369889]
    assert payload["sum_v"] == 5 and payload["sum_w"] == 5
    assert payload["final"]["rhs_bits"] == 1024
    assert payload["final"]["holds"] is True
    step = payload["steps"][0]
    assert step["damping"] == [2, 3, 7, 11, 19]
    assert step["absorbed"] == [[2, 6], [3, 4], [7, 2], [11, 2], [19, 2]]
    assert step["exit_sum"] == "1"
    assert isinstance(step["lhs"], str)
    assert step["bound"] == {"bits": 1024}


def test_tower_holds_matches_materialized():
    from harmonia.bounds import tower_holds

    for r in range(0, 7):
        for x in range(2, 8):
            f = tower(r, x)
            for value in (0, 1, f - 1, f, f + 1):
                if value < 0:
                    continue
                assert tower_holds(value, r, x) == (value <= f), (r, x, value)
    big = tower(16, 2)
    assert tower_holds(big, 16, 2)
    assert not tower_holds(big + 1, 16, 2)
    assert tower_holds(10**30, 40, 2)
