"""Constructive decomposition engine for anarchy harmonious tuples.

Each member is split as M_i = U_i * V_i with coprime halves: V_i is the part
already settled, U_i is still pending, and a carry set S of primes of the
pending parts keeps damping factors (1 - 1/p) alive between steps.  A step
runs two greedy phases on the exact sum of the damped settled ratios:

  phase 1 (damping)    while the sum exceeds 1, multiply in (1 - 1/p) for
                       the smallest pending primes outside S; the chosen
                       primes form T;
  phase 2 (absorbing)  the damped sum sits below 1; for p in S union T with
                       p^e exactly dividing the pending part, trade the
                       damping factor for the true ratio p^e/sigma(p^e) by
                       multiplying with (1 - 1/p^(e+1))^(-1), smallest
                       p^(e+1) first, until the sum first reaches 1.  The
                       absorbed primes P' move p^e from U_i into V_i.

Every step emits a certificate whose inequalities are verified in exact
arithmetic, and the two greedy phases are cross-checked against the
sum-form lemma oracles.  Landing exactly on 1 with pending parts left is
impossible for anarchy harmonious tuples, so it is reported as an error.

Each result type stores its inputs and verdicts and derives the rest: the
trace derives the product facts Pi(P), Phi(P) and sigma(prod M) from the
product's factorization, and theorem_trace's one TheoremReport adds only
what its case split decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from harmonia.arith import Factorization, factorize, merge_factorizations, sigma_of
from harmonia.bounds import MATERIALIZE_BITS, main_holds, render_big, tower, tower_holds
from harmonia.lemmas import DiophantineInstance, check_hb, divisibility_terms
from harmonia.lemmas import require_anarchy_harmonious

# F_{2K}(2) at 12 distinct primes is a 2^24-bit number; past that the
# certificates would stop being materializable
MAX_DISTINCT_PRIMES = 12


class DivisibilityViolation(ArithmeticError):
    """A damped ratio sum landed exactly on 1 with pending parts left."""


class InvariantViolation(RuntimeError):
    """A greedy phase or a certificate check contradicted the engine's
    guarantees; signals corrupt input or an implementation bug."""


def _materialized_tower(r: int, x: int) -> int | None:
    if x.bit_length() * (1 << r) > MATERIALIZE_BITS:
        return None
    return tower(r, x)


@dataclass(frozen=True)
class DecompositionState:
    """Snapshot between steps: members, pending halves U_i, carry set; the
    settled halves are V_i = M_i / U_i, and (members, members) starts a run."""

    members: tuple[int, ...]
    pending: tuple[int, ...]
    carry: frozenset[int] = frozenset()
    step: int = 0

    def __post_init__(self) -> None:
        if len(self.pending) != len(self.members) or not self.members:
            raise ValueError("members and pending must have equal nonzero length")
        for m, u in zip(self.members, self.pending):
            if not 0 < u <= m or m % u != 0:
                raise ValueError(f"pending {u} does not divide {m}")
            if gcd(u, m // u) != 1:
                raise ValueError(f"pending {u} and settled {m // u} share a factor")
        for i, u in enumerate(self.pending):
            for u2 in self.pending[i + 1 :]:
                if gcd(u, u2) != 1:
                    raise ValueError("pending parts must be pairwise coprime")
        if not self.carry <= {p for u in self.pending for p, _ in factorize(u)}:
            raise ValueError("carry primes must divide some pending part")

    @property
    def settled(self) -> tuple[int, ...]:
        return tuple(m // u for m, u in zip(self.members, self.pending))

    @property
    def done(self) -> bool:
        return all(u == 1 for u in self.pending)


@dataclass(frozen=True)
class StepCertificate:
    """One verified step: the greedy choices and the exact inequalities;
    the towers over entry_scale = prod(sigma(V_i)) * prod(S) are built when read."""

    step: int
    damping: tuple[int, ...]
    absorbed: tuple[tuple[int, int], ...]
    carry_after: tuple[int, ...]
    entry_sum: Fraction
    phase1_sums: tuple[Fraction, ...]
    phase2_sums: tuple[Fraction, ...]
    lhs: int
    entry_scale: int
    structure_ok: bool
    bound_holds: bool
    improved_holds: bool | None

    @property
    def v(self) -> int:
        return len(self.absorbed)

    @property
    def w(self) -> int:
        return len(self.damping)

    @property
    def bound(self) -> int | None:
        return _materialized_tower(self.v + self.w, self.entry_scale + 1)

    @property
    def improved_bound(self) -> int | None:
        return _materialized_tower(self.v, self.entry_scale) if self.w == 0 else None

    @property
    def damped_sum(self) -> Fraction:
        return self.phase1_sums[-1] if self.phase1_sums else self.entry_sum

    @property
    def exit_sum(self) -> Fraction:
        return self.phase2_sums[-1]

    @property
    def all_hold(self) -> bool:
        ok = self.structure_ok and self.bound_holds
        if self.improved_holds is not None:
            ok = ok and self.improved_holds
        return ok

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "damping": list(self.damping),
            "absorbed": [[p, e] for p, e in self.absorbed],
            "carry_after": list(self.carry_after),
            "v": self.v,
            "w": self.w,
            "entry_sum": str(self.entry_sum),
            "damped_sum": str(self.damped_sum),
            "exit_sum": str(self.exit_sum),
            "lhs": render_big(self.lhs),
            "bound": render_big(self.bound),
            "improved_bound": render_big(self.improved_bound),
            "structure_ok": self.structure_ok,
            "bound_holds": self.bound_holds,
            "improved_holds": self.improved_holds,
        }


def induction_step(
    state: DecompositionState,
) -> tuple[DecompositionState, StepCertificate]:
    """Run both greedy phases once and certify the outcome.

    Requires pending parts with prod > 1; the members are trusted to be
    anarchy harmonious (run_induction validates that once).
    """
    if state.done:
        raise ValueError("nothing pending; the decomposition is complete")
    members = state.members

    owner: dict[int, int] = {}
    exponent: dict[int, int] = {}
    for i, u in enumerate(state.pending):
        for p, e in factorize(u):
            owner[p] = i
            exponent[p] = e

    # the divisibility lemma's damped sum, with U_i the pending parts and
    # the carry primes as the damping set
    terms = divisibility_terms(members, state.pending, state.carry)
    entry_sum = sum(terms)

    if entry_sum == 1:
        raise DivisibilityViolation(
            f"damped sum is exactly 1 at step {state.step}; "
            "the input cannot be an anarchy harmonious tuple"
        )

    # phase 1: damp with the smallest new pending primes until the sum
    # first drops below 1
    damping: list[int] = []
    phase1_sums: list[Fraction] = []
    running = entry_sum
    if running > 1:
        for p in sorted(set(owner) - state.carry):
            i = owner[p]
            terms[i] *= Fraction(p - 1, p)
            damping.append(p)
            running = sum(terms)
            phase1_sums.append(running)
            if running <= 1:
                break
        if running > 1:
            raise InvariantViolation(
                f"damping exhausted above 1 at step {state.step} "
                f"(sum {running}); input is not harmonious"
            )
        if running == 1:
            raise DivisibilityViolation(
                f"damped sum landed exactly on 1 at step {state.step}; "
                "the input cannot be an anarchy harmonious tuple"
            )

    # phase 2: absorb full prime powers for carried or damped primes,
    # smallest p^(e+1) first, until the sum first reaches 1
    active = state.carry | set(damping)
    candidates = sorted((p ** (exponent[p] + 1), p) for p in active)
    absorbed: list[tuple[int, int]] = []
    phase2_sums: list[Fraction] = []
    for modulus, p in candidates:
        i = owner[p]
        terms[i] *= Fraction(modulus, modulus - 1)
        absorbed.append((p, exponent[p]))
        running = sum(terms)
        phase2_sums.append(running)
        if running >= 1:
            break
    else:
        raise InvariantViolation(
            f"absorption exhausted below 1 at step {state.step}"
        )

    absorbed_primes = {p for p, _ in absorbed}
    carry_after = frozenset(active - absorbed_primes)
    new_pending = list(state.pending)
    for p, e in absorbed:
        new_pending[owner[p]] //= p**e
    new_state = DecompositionState(members, tuple(new_pending), carry_after, state.step + 1)

    exit_sum = phase2_sums[-1]
    if exit_sum == 1 and not new_state.done:
        raise DivisibilityViolation(
            f"absorption landed exactly on 1 at step {state.step} with "
            "pending parts left; the input cannot be anarchy harmonious"
        )
    if new_state.done and exit_sum != 1:
        raise InvariantViolation(
            f"decomposition finished with ratio sum {exit_sum}, not 1; "
            "input is not harmonious"
        )

    v = len(absorbed)
    w = len(damping)
    sigma_settled = [sigma_of(factorize(x)) for x in state.settled]
    entry_scale = prod(sigma_settled) * prod(state.carry)
    lhs = (
        prod(sigma_of(factorize(x)) for x in new_state.settled)
        * prod(carry_after)
        * prod(p * (p - 1) for p, _ in absorbed)
    )
    bound_holds = tower_holds(lhs, v + w, entry_scale + 1)
    improved_holds = tower_holds(lhs, v, entry_scale) if w == 0 else None
    structure_ok = (
        v >= 1
        and not (set(damping) & state.carry)
        and absorbed_primes <= active
        and carry_after == active - absorbed_primes
        and w == v + len(carry_after) - len(state.carry)
    )

    certificate = StepCertificate(
        step=state.step + 1,
        damping=tuple(damping),
        absorbed=tuple(absorbed),
        carry_after=tuple(sorted(carry_after)),
        entry_sum=entry_sum,
        phase1_sums=tuple(phase1_sums),
        phase2_sums=tuple(phase2_sums),
        lhs=lhs,
        entry_scale=entry_scale,
        structure_ok=structure_ok,
        bound_holds=bound_holds,
        improved_holds=improved_holds,
    )
    if not certificate.all_hold:
        raise InvariantViolation(
            f"certificate inequalities failed at step {state.step + 1}"
        )
    _cross_check_step(state, sigma_settled, owner, certificate)
    return new_state, certificate


def _cross_check_step(
    state: DecompositionState,
    sigma_settled: list[int],
    owner: dict[int, int],
    cert: StepCertificate,
) -> None:
    """Feed both greedy phases back through the sum-form lemmas: damping as
    an hb1 instance whose coefficients carry the carry primes, absorbing as
    an hb2 instance whose coefficients carry the carry and damped primes."""
    phases = (
        ("damping", "hb1", state.carry, [(p, p) for p in cert.damping]),
        (
            "absorbing",
            "hb2",
            state.carry | set(cert.damping),
            [(p ** (e + 1), p) for p, e in cert.absorbed],
        ),
    )
    for phase, lemma, primes, slots in phases:
        if not slots:
            continue  # a step that starts below 1 damps nothing
        a, b = list(sigma_settled), list(state.settled)
        for p in primes:
            a[owner[p]] *= p
            b[owner[p]] *= p - 1
        inst = DiophantineInstance(
            tuple(m for m, _ in slots), tuple(owner[p] for _, p in slots), tuple(a), tuple(b)
        )
        verdict = check_hb(lemma, inst)
        if not (verdict.hypotheses_hold and verdict.conclusion_holds):
            raise InvariantViolation(
                f"{phase} phase of step {cert.step} failed the sum-form "
                f"lemma cross-check: {verdict}"
            )


def _final_lhs(factorization: Factorization) -> int:
    """sigma(prod M) * Phi(P) * Pi(P) from the product's factorization."""
    return sigma_of(factorization) * prod(p * (p - 1) for p, _ in factorization)


@dataclass(frozen=True)
class InductionTrace:
    """Full run: step certificates and the verdicts of the chain and the
    aggregate inequality; the product facts Pi(P), Phi(P) and sigma(prod M)
    are read off the factorization."""

    members: tuple[int, ...]
    steps: tuple[StepCertificate, ...]
    factorization: Factorization  # of the product of the members
    final_holds: bool
    chain_holds: bool

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factorization)

    @property
    def distinct_primes(self) -> int:
        return len(self.factorization)

    @property
    def product(self) -> int:
        return prod(self.members)

    @property
    def radical(self) -> int:
        return prod(self.primes)

    @property
    def phi(self) -> int:
        return prod(p - 1 for p in self.primes)

    @property
    def sigma_product(self) -> int:
        # anarchy members are pairwise coprime, so sigma(prod M) = prod sigma(M_i)
        return sigma_of(self.factorization)

    @property
    def sum_v(self) -> int:
        return sum(cert.v for cert in self.steps)

    @property
    def sum_w(self) -> int:
        return sum(cert.w for cert in self.steps)

    @property
    def final_lhs(self) -> int:
        return _final_lhs(self.factorization)

    @property
    def final_rhs_bits(self) -> int:
        return 1 << (2 * self.distinct_primes)

    @property
    def all_hold(self) -> bool:
        return (
            self.final_holds
            and self.chain_holds
            and all(cert.all_hold for cert in self.steps)
        )

    def to_json_dict(self) -> dict:
        return {
            "members": list(self.members),
            "distinct_primes": self.distinct_primes,
            "steps": [cert.to_json_dict() for cert in self.steps],
            "primes": list(self.primes),
            "sum_v": self.sum_v,
            "sum_w": self.sum_w,
            "final": {
                "lhs": render_big(self.final_lhs),
                "rhs_bits": self.final_rhs_bits,
                "holds": self.final_holds,
                "chain_holds": self.chain_holds,
            },
        }


def _validated_members(members) -> tuple[tuple[int, ...], Factorization]:
    """Sorted members and the factorization of their product."""
    record = require_anarchy_harmonious(members)
    merged = merge_factorizations(*record.factorizations)
    if len(merged) == 0:
        raise ValueError("trivial tuple with no prime factors")
    if len(merged) > MAX_DISTINCT_PRIMES:
        raise ValueError(
            f"product has {len(merged)} distinct primes; "
            f"certificates are limited to {MAX_DISTINCT_PRIMES}"
        )
    return record.members, merged


def run_induction(members) -> InductionTrace:
    """Decompose an anarchy harmonious tuple step by step, verifying every
    certificate, the accumulated chain and the aggregate inequality."""
    members, merged = _validated_members(members)
    K = len(merged)

    state = DecompositionState(members, members)
    certs: list[StepCertificate] = []
    while not state.done:
        if state.step >= K:
            raise InvariantViolation(f"trace exceeded {K} steps")
        prev_settled = state.settled
        state, cert = induction_step(state)
        certs.append(cert)
        for old, new in zip(prev_settled, state.settled):
            if new % old != 0 or gcd(old, new // old) != 1:
                raise InvariantViolation("settled parts must grow by coprime factors")

    # accumulated chain: after step s the settled/carry scale times all
    # absorbed psi factors stays below the tower of 2 with the spent slots;
    # that is the step's own lhs times the psi factors of the earlier steps
    chain_holds = True
    earlier_psi = 1
    spent = 0
    for cert in certs:
        spent += cert.v + cert.w
        if not tower_holds(cert.lhs * earlier_psi, spent, 2):
            chain_holds = False
        earlier_psi *= prod(p * (p - 1) for p, _ in cert.absorbed)

    final_holds = tower_holds(_final_lhs(merged), 2 * K, 2)
    trace = InductionTrace(members, tuple(certs), merged, final_holds, chain_holds)

    # accounting: every prime is damped exactly once and absorbed exactly once
    if sorted(p for cert in certs for p, _ in cert.absorbed) != list(trace.primes):
        raise InvariantViolation("absorbed primes do not cover the product")
    if trace.sum_v != K or trace.sum_v + trace.sum_w != 2 * K:
        raise InvariantViolation("step counts do not add up to 2K")
    return trace


def _radical_threshold(K: int) -> int:
    """2^(2^K): a radical above it takes the induction branch."""
    return 1 << (1 << K)


@dataclass(frozen=True)
class TheoremReport:
    """Concrete replay of the case split behind the product bound, on top of
    the trace; rhs is the kernel's tower(K, Pi(P)), None on the induction branch."""

    trace: InductionTrace
    branch_inequality_holds: bool
    combined_holds: bool
    identity_holds: bool
    product_below_main_bound: bool
    rhs: int | None

    @property
    def branch(self) -> str:
        return "induction" if self.rhs is None else "chen_tang"

    @property
    def all_hold(self) -> bool:
        return (
            self.branch_inequality_holds
            and self.combined_holds
            and self.identity_holds
            and self.product_below_main_bound
        )

    def to_json_dict(self) -> dict:
        t = self.trace
        kernel = None
        if self.rhs is not None:
            kernel = {
                "members": list(t.members),
                "primes": list(t.primes),
                "distinct_primes": t.distinct_primes,
                "radical": t.radical,
                "phi": t.phi,
                "sigma_product": render_big(t.sigma_product),
                "lhs": render_big(t.final_lhs),
                "rhs": render_big(self.rhs),
                "holds": t.final_lhs <= self.rhs,
            }
        return {
            "members": list(t.members),
            "distinct_primes": t.distinct_primes,
            "radical": t.radical,
            "branch": self.branch,
            "branch_inequality_holds": self.branch_inequality_holds,
            "combined_holds": self.combined_holds,
            "identity_holds": self.identity_holds,
            "product": render_big(t.product),
            "product_below_main_bound": self.product_below_main_bound,
            # the chain runs on both branches, but only the induction branch
            # rests on it, so only that branch reports it
            "trace": t.to_json_dict() if self.branch == "induction" else None,
            "kernel": kernel,
        }


def theorem_trace(members) -> TheoremReport:
    """Case split on the radical: the step chain runs on both branches;
    large radicals take its final inequality, small ones check
    sigma(prod M) * Phi(P) * Pi(P) <= rhs = tower(K, Pi(P)) instead.  Both
    land on the same combined bound, which is then checked against the
    product bound.  The product facts are read from the trace."""
    trace = run_induction(members)
    K, pi = trace.distinct_primes, trace.radical

    big_tower = tower(2 * K, 2)
    scale = 1 << (2 * (1 << K))  # 2^(2*2^K)

    rhs = None
    if pi > _radical_threshold(K):
        branch_ok = trace.final_holds
    else:
        rhs = tower(K, pi)
        branch_ok = trace.final_lhs <= rhs and rhs * scale <= big_tower * pi * pi

    combined = trace.sigma_product * trace.phi * scale <= big_tower * pi

    # sigma(prod M) * Phi(P) / Pi(P) == prod(M) * prod(1 - 1/p^(e+1)),
    # cross-multiplied to integers on both sides
    rhs_num, rhs_den = trace.product, 1
    for p, e in trace.factorization:
        q = p ** (e + 1)
        rhs_num *= q - 1
        rhs_den *= q
    identity = trace.sigma_product * trace.phi * rhs_den == rhs_num * pi

    return TheoremReport(
        trace=trace,
        branch_inequality_holds=branch_ok,
        combined_holds=combined,
        identity_holds=identity,
        product_below_main_bound=main_holds(trace.product, K),
        rhs=rhs,
    )
