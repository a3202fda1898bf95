"""Exact deciders for the Diophantine lemmas behind the tuple bounds.

The grid scanners enumerate every instance inside small parameter boxes and
confirm that no instance satisfies the hypotheses while violating the
conclusion; the CLI's `lemmas check` runs them.

The two sum-form lemmas (CLI names hb1 and hb2) share their shape: k summands
b_i/a_i, each damped by a subset of R factors derived from a nondecreasing
sequence m_1 <= ... <= m_R, with the hypothesis pair "full sum on one side of
1, sum without the last factor on the other side".  hb1 uses factors
(1 - 1/m_j) and bounds a * prod(m_j); hb2 uses the reciprocal factors and
bounds a * prod(m_j - 1).  _hb_hypotheses and _hb_conclusion state these
once; check_hb and scan_hb_grid both decide with them.

scan_hb_grid decides the hypotheses of a whole box with an exact numpy
kernel, one (k, R) stratum at a time: every (partition, m) row against every
(a, b) coefficient pair, in bounded chunks, in int64 when the stratum's
bound k * coef_max^k * m_max^R is below 2^63 and on Python-int object arrays
otherwise.  Only the survivors reach the per-instance conclusion with tower.
The hb and the cook grids both refuse a box of more than DEFAULT_BUDGET
(10^8) instances, counted in closed form, before any work.

Two per-instance deciders stay here because the library runs them:
check_hb, through which induction feeds both greedy phases of every step,
and check_pre_cook, which scan_pre_cook_grid calls.  divisibility_terms is
the divisibility lemma's damped sum, term by term: scan_divisibility_grid
sums it and every induction step enters with it.  The slow references the
tests compare the scanners against (check_cook, check_divisibility,
enumerate_instances) live in tests/oracles.py.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from harmonia.arith import Factorization, factorize, sigma_of
from harmonia.bounds import tower
from harmonia.classify import TupleRecord, classify

DEFAULT_BUDGET = 10**8


class BudgetExceeded(ValueError):
    """Instance enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class DiophantineInstance:
    """One explicit instance: k classes, R factor slots, coefficients a, b.

    partition[j] is the 0-based class that factor slot j+1 belongs to; empty
    classes are allowed.
    """

    k: int
    R: int
    m: tuple[int, ...]
    partition: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1 or self.R < 1:
            raise ValueError("need k >= 1 and R >= 1")
        if len(self.m) != self.R or len(self.partition) != self.R:
            raise ValueError("m and partition must have length R")
        if len(self.a) != self.k or len(self.b) != self.k:
            raise ValueError("a and b must have length k")
        if any(m < 2 for m in self.m):
            raise ValueError("need m_j >= 2")
        if any(x > y for x, y in zip(self.m, self.m[1:])):
            raise ValueError("m must be nondecreasing")
        if any(c < 0 or c >= self.k for c in self.partition):
            raise ValueError("partition entries must be class indices below k")
        if any(x < 1 for x in self.a) or any(x < 1 for x in self.b):
            raise ValueError("coefficients must be >= 1")


@dataclass
class LemmaVerdict:
    """hypotheses_hold and, when they do, whether the conclusion held too."""

    hypotheses_hold: bool
    conclusion_holds: bool | None
    witnesses: dict[str, Fraction | int] = field(default_factory=dict)
    reason: str | None = None
    remark_holds: bool | None = None

    @property
    def counterexample(self) -> bool:
        return self.hypotheses_hold and self.conclusion_holds is False


def _sum_with_factors(
    inst_m: Sequence[int],
    partition: Sequence[int],
    a: Sequence[int],
    b: Sequence[int],
    upto: int,
    reciprocal: bool,
) -> tuple[int, int]:
    """Exact (num, den) of sum_i (b_i/a_i) * prod of factors for slots <= upto.

    Direct factors are (m_j - 1)/m_j, reciprocal ones m_j/(m_j - 1).
    """
    k = len(a)
    t_num = list(b)
    t_den = list(a)
    for j in range(upto):
        i = partition[j]
        if reciprocal:
            t_num[i] *= inst_m[j]
            t_den[i] *= inst_m[j] - 1
        else:
            t_num[i] *= inst_m[j] - 1
            t_den[i] *= inst_m[j]
    num, den = 0, 1
    for i in range(k):
        num = num * t_den[i] + t_num[i] * den
        den *= t_den[i]
    return num, den


def _reciprocal(lemma: str) -> bool:
    """hb2 damps with the reciprocal factors, hb1 with the direct ones."""
    if lemma not in ("hb1", "hb2"):
        raise ValueError(f"unknown sum-form lemma {lemma!r}")
    return lemma == "hb2"


def _hb_hypotheses(reciprocal: bool, full: tuple, partial: tuple):
    """The sum-form hypothesis pair on exact (num, den) sums, for ints or
    numpy arrays alike: hb1 needs full sum <= 1 < partial sum, hb2 the
    reverse, full sum >= 1 > partial sum.  hb1's a_i >= b_i is tested apart."""
    (fn, fd), (pn, pd) = full, partial
    if reciprocal:
        return (fn >= fd) & (pn < pd)
    return (fn <= fd) & (pn > pd)


def _hb_conclusion(reciprocal: bool, m: Sequence[int], a: Sequence[int]) -> tuple[int, int]:
    """(lhs, x) of the conclusion lhs <= tower(R, x), with a = prod(a_i):
    a * prod(m_j) against x = a + 1 for hb1, a * prod(m_j - 1) against
    x = a for hb2."""
    a_prod = prod(a)
    if reciprocal:
        return a_prod * prod(v - 1 for v in m), a_prod
    return a_prod * prod(m), a_prod + 1


def check_hb(lemma: str, inst: DiophantineInstance) -> LemmaVerdict:
    """Decide one instance of sum-form lemma hb1 or hb2.

    hb1 also requires a_i >= b_i; the hb2 verdict records whether a_i > b_i
    held for every class (the hypotheses force it).  The tower and the
    lhs/rhs witnesses are built only when the hypotheses hold.
    """
    reciprocal = _reciprocal(lemma)
    if not reciprocal and any(x < y for x, y in zip(inst.a, inst.b)):
        return LemmaVerdict(False, None, reason="requires a_i >= b_i for every class")
    full = _sum_with_factors(inst.m, inst.partition, inst.a, inst.b, inst.R, reciprocal)
    partial = _sum_with_factors(inst.m, inst.partition, inst.a, inst.b, inst.R - 1, reciprocal)
    sums = {"sum_full": Fraction(*full), "sum_partial": Fraction(*partial)}
    remark = all(x > y for x, y in zip(inst.a, inst.b)) if reciprocal else None
    if not _hb_hypotheses(reciprocal, full, partial):
        return LemmaVerdict(False, None, sums, remark_holds=remark)
    lhs, x = _hb_conclusion(reciprocal, inst.m, inst.a)
    rhs = tower(inst.R, x)
    return LemmaVerdict(
        True, lhs <= rhs, {**sums, "lhs": lhs, "rhs": rhs}, remark_holds=remark
    )


def check_pre_cook(
    x1: Fraction | int, x2: Fraction | int, alpha: Fraction
) -> LemmaVerdict:
    """Two-point spreading: replacing (x1, x2) by (x1*alpha, x2/alpha) with
    0 < alpha < 1 strictly lowers the (1 - 1/.) product and strictly raises
    the (1 + 1/.) product."""
    x1 = Fraction(x1)
    x2 = Fraction(x2)
    alpha = Fraction(alpha)
    if not 0 < x1 <= x2:
        raise ValueError("need 0 < x1 <= x2")
    if not 0 < alpha < 1:
        raise ValueError("need 0 < alpha < 1")
    minus_orig = (1 - 1 / x1) * (1 - 1 / x2)
    minus_spread = (1 - 1 / (x1 * alpha)) * (1 - 1 / (x2 / alpha))
    plus_orig = (1 + 1 / x1) * (1 + 1 / x2)
    plus_spread = (1 + 1 / (x1 * alpha)) * (1 + 1 / (x2 / alpha))
    return LemmaVerdict(
        hypotheses_hold=True,
        conclusion_holds=minus_orig > minus_spread and plus_orig < plus_spread,
        witnesses={
            "minus_orig": minus_orig,
            "minus_spread": minus_spread,
            "plus_orig": plus_orig,
            "plus_spread": plus_spread,
        },
    )


def _unitary_divisors(factorization: Factorization) -> list[int]:
    out = [1]
    for p, e in factorization:
        q = p**e
        out += [d * q for d in out]
    return sorted(out)


def _require_anarchy_harmonious(members: Sequence[int]) -> TupleRecord:
    """The classify record of an anarchy harmonious tuple: the one input
    check of the induction and the div grid."""
    record = classify(members)
    if not record.flags["harmonious"]:
        total = sum(map(Fraction, record.members, record.sigma), Fraction(0))
        raise ValueError(f"not a harmonious tuple: ratio sum is {total}")
    if not record.flags["anarchy"]:
        raise ValueError("not an anarchy tuple: a cross gcd exceeds 1")
    return record


def divisibility_terms(
    members: Sequence[int], unitary_parts: Sequence[int], prime_set: Iterable[int]
) -> list[Fraction]:
    """Per member, V_i/sigma(V_i) * prod((p - 1)/p for p in prime_set
    dividing U_i), with V_i = M_i / U_i: the terms of the damped sum that the
    divisibility lemma keeps off 1 and that every induction step enters with."""
    terms = []
    for m, u in zip(members, unitary_parts):
        v = m // u
        term = Fraction(v, sigma_of(factorize(v)))
        for p in prime_set:
            if u % p == 0:
                term *= Fraction(p - 1, p)
        terms.append(term)
    return terms


# --- exhaustive enumeration -------------------------------------------------


def instance_count(k: int, R: int, m_max: int, coef_max: int) -> int:
    """Closed-form size of the (k, R) instance stratum."""
    m_choices = comb(m_max - 2 + R, R)  # nondecreasing length-R over {2..m_max}
    return k**R * m_choices * coef_max ** (2 * k)


_CHUNK = 1 << 13  # hb kernel chunk: 64 KB per int64 array, so a chunk stays in cache


def _class_factors(block, k: int, R: int, reciprocal: bool, dtype) -> tuple[list, list]:
    """Per class, the (num, den) slot-factor products of every (partition, m)
    row of block, once over the first R - 1 slots and once over all R."""
    part = block[:, :R]
    ms = block[:, R:].astype(dtype)
    up, down = (ms, ms - 1) if reciprocal else (ms - 1, ms)
    partial, full = [], []
    for i in range(k):
        sel = part == i
        pn = np.where(sel[:, :-1], up[:, :-1], 1).prod(axis=1)
        pd = np.where(sel[:, :-1], down[:, :-1], 1).prod(axis=1)
        partial.append((pn, pd))
        last = sel[:, -1]
        full.append((pn * np.where(last, up[:, -1], 1), pd * np.where(last, down[:, -1], 1)))
    return partial, full


def _damped_sum(factors: list, row, a, b) -> tuple:
    """(num, den) of sum_i (b_i/a_i) * factor_i over a chunk of (row, a)
    pairs against every b: the class factors are gathered by row, a holds
    one (n, 1) column per class and b one (1, C) row per class.  den never
    depends on b, so only num is a full (n, C) array."""
    num, den = 0, 1
    for (tn, td), a_i, b_i in zip(factors, a, b):
        term_num = tn[row, None] * b_i
        term_den = td[row, None] * a_i
        num = num * term_den + term_num * den
        den = den * term_den
    return num, den


def _hb_survivors(
    reciprocal: bool, k: int, R: int, m_max: int, coef_max: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """(partition, m, a, b) of every instance of stratum (k, R) whose hb1
    (hb2 if reciprocal) hypotheses hold, in lexicographic order.

    The stratum is the C-ordered array of (partition, m) rows, a rows and b
    columns.  Its rows come in blocks; the flat (row, a) index of a block is
    walked in chunks that divmod unravels, each chunk tested against every b
    at once, so a chunk holds at most _CHUNK instances whenever
    coef_max^k <= _CHUNK.  Each row's class factors are taken once; each
    damped sum is an exact (num, den) pair compared with 1 as num against
    den.  Every number built is at most k * coef_max^k * m_max^R, so the
    stratum runs in int64 when that bound is below 2^63 and otherwise runs
    the same expressions on dtype=object arrays of Python ints."""
    coefs = list(itertools.product(range(1, coef_max + 1), repeat=k))
    C = len(coefs)
    coef_arr = np.array(coefs, dtype=np.int64)
    a_ge_b = (coef_arr[:, None, :] >= coef_arr[None, :, :]).all(axis=2)
    dtype = np.int64 if k * coef_max**k * m_max**R < 1 << 63 else object
    cols = coef_arr.T.astype(dtype)
    b = cols[:, None, :]
    rows = itertools.chain.from_iterable(
        p + m
        for p in itertools.product(range(k), repeat=R)
        for m in itertools.combinations_with_replacement(range(2, m_max + 1), R)
    )
    per_block = max(1, _CHUNK // max(C * C, 2 * R))
    step = max(1, _CHUNK // C)
    while len(
        block := np.fromiter(itertools.islice(rows, 2 * R * per_block), np.int64).reshape(
            -1, 2 * R
        )
    ):
        partial, full = _class_factors(block, k, R, reciprocal, dtype)
        for lo in range(0, len(block) * C, step):
            row, a_idx = np.divmod(np.arange(lo, min(lo + step, len(block) * C)), C)
            a = cols[:, a_idx, None]
            fn, fd = _damped_sum(full, row, a, b)
            pn, pd = _damped_sum(partial, row, a, b)
            hyp = _hb_hypotheses(reciprocal, (fn, fd), (pn, pd))
            if not reciprocal:
                hyp &= a_ge_b[a_idx]
            hit_ra, hit_b = np.nonzero(hyp)
            for r, ai, bi in zip(row[hit_ra].tolist(), a_idx[hit_ra].tolist(), hit_b.tolist()):
                cells = block[r].tolist()
                yield tuple(cells[:R]), tuple(cells[R:]), coefs[ai], coefs[bi]


@dataclass
class GridReport:
    """Outcome of an exhaustive scan over a parameter box."""

    lemma: str
    instances: int
    hypotheses_held: int
    counterexamples: list
    conclusion_equalities: int = 0
    remark_violations: int = 0

    @property
    def clean(self) -> bool:
        return not self.counterexamples and self.remark_violations == 0


def scan_hb_grid(
    lemma: str,
    k_max: int,
    R_max: int,
    m_max: int,
    coef_max: int,
    *,
    witness_sink: Callable[[dict], None] | None = None,
) -> GridReport:
    """Exhaustive scan of one sum-form lemma over all strata k <= k_max,
    R <= R_max, in lexicographic (k, R, partition, m, a, b) order; a box of
    more than DEFAULT_BUDGET instances is refused before any work.

    The hypotheses run as the exact numpy kernel of _hb_survivors, one
    (k, R) stratum at a time in chunks of _CHUNK instances: in int64 when
    k * coef_max^k * m_max^R < 2^63, on object arrays of Python ints
    otherwise.  Each survivor then meets the conclusion that check_hb
    decides, with tower built once per distinct (R, x)."""
    reciprocal = _reciprocal(lemma)
    if k_max < 1 or R_max < 1 or m_max < 2 or coef_max < 1:
        raise ValueError("need k_max >= 1, R_max >= 1, m_max >= 2 and coef_max >= 1")
    total = 0
    for k in range(1, k_max + 1):
        for R in range(1, R_max + 1):
            total += instance_count(k, R, m_max, coef_max)
    if total > DEFAULT_BUDGET:
        raise BudgetExceeded(f"grid holds {total} instances, over budget {DEFAULT_BUDGET}")

    held = 0
    equalities = 0
    remark_bad = 0
    bad: list = []
    towers: dict[tuple[int, int], int] = {}
    for k in range(1, k_max + 1):
        for R in range(1, R_max + 1):
            for partition, m, a, b in _hb_survivors(reciprocal, k, R, m_max, coef_max):
                held += 1
                lhs, x = _hb_conclusion(reciprocal, m, a)
                if reciprocal and not all(ai > bi for ai, bi in zip(a, b)):
                    remark_bad += 1
                if (R, x) not in towers:
                    towers[R, x] = tower(R, x)
                rhs = towers[R, x]
                if lhs == rhs:
                    equalities += 1
                if lhs > rhs:
                    bad.append(DiophantineInstance(k, R, m, partition, a, b))
                if witness_sink is not None:
                    witness_sink(
                        {
                            "k": k,
                            "R": R,
                            "m": list(m),
                            "partition": list(partition),
                            "a": list(a),
                            "b": list(b),
                            "lhs": lhs,
                            "rhs": rhs,
                        }
                    )
    return GridReport(
        lemma=lemma,
        instances=total,
        hypotheses_held=held,
        counterexamples=bad,
        conclusion_equalities=equalities,
        remark_violations=remark_bad,
    )


def rational_grid(value_max: int, den_max: int) -> list[Fraction]:
    """All reduced rationals in (1, value_max] with denominator <= den_max."""
    vals = {
        Fraction(n, d)
        for d in range(1, den_max + 1)
        for n in range(d + 1, value_max * d + 1)
    }
    return sorted(v for v in vals if v > 1)


def scan_cook_grid(k_max: int, value_max: int = 6, den_max: int = 4) -> GridReport:
    """All pairs of nondecreasing sequences (length <= k_max) over the
    rational grid; vectorized over int64 cross products.  A box of more
    than DEFAULT_BUDGET instances is refused before any sequence is built.

    Bounds: values <= value_max <= 6 with den <= 4 keep every numerator and
    denominator product below 24^3, so the int64 cross multiplications stay
    far from overflow.
    """
    if k_max < 1 or value_max < 2 or den_max < 1:
        raise ValueError("need k_max >= 1, value_max >= 2 and den_max >= 1")
    # every factor of any product below is at most (value_max + 1) * den_max
    # in absolute value, and cross multiplication pairs two k-fold products
    per_factor = (value_max + 1) * den_max
    if per_factor ** (2 * k_max) >= 1 << 62:
        raise ValueError("grid values too large for the int64 fast path")
    values = rational_grid(value_max, den_max)
    # S_k = C(n + k - 1, k) nondecreasing sequences of length k, S_k^2 pairs
    total = sum(comb(len(values) + k - 1, k) ** 2 for k in range(1, k_max + 1))
    if total > DEFAULT_BUDGET:
        raise BudgetExceeded(f"grid holds {total} instances, over budget {DEFAULT_BUDGET}")
    nums = np.array([v.numerator for v in values], dtype=np.int64)
    dens = np.array([v.denominator for v in values], dtype=np.int64)

    held = 0
    equalities = 0
    bad: list = []
    for k in range(1, k_max + 1):
        seqs = list(itertools.combinations_with_replacement(range(len(values)), k))
        S = len(seqs)
        index = np.array(seqs, dtype=np.intp).reshape(S, k)
        seq_n = nums[index]
        seq_d = dens[index]
        pref_n = np.cumprod(seq_n, axis=1)
        pref_d = np.cumprod(seq_d, axis=1)
        minus_n = np.prod(seq_n - seq_d, axis=1)
        minus_d = pref_n[:, -1]
        plus_n = np.prod(seq_n + seq_d, axis=1)
        plus_d = minus_d

        for sx in range(S):
            # hypothesis: every prefix product of x is <= that of y
            ok = np.ones(S, dtype=bool)
            for pos in range(k):
                ok &= pref_n[sx, pos] * pref_d[:, pos] <= pref_n[:, pos] * pref_d[sx, pos]
            idx = np.nonzero(ok)[0]
            held += len(idx)
            # conclusions, cross-multiplied
            m_lhs = minus_n[sx] * minus_d[idx]
            m_rhs = minus_n[idx] * minus_d[sx]
            p_lhs = plus_n[sx] * plus_d[idx]
            p_rhs = plus_n[idx] * plus_d[sx]
            minus_le = m_lhs <= m_rhs
            plus_ge = p_lhs >= p_rhs
            eq_somewhere = (m_lhs == m_rhs) | (p_lhs == p_rhs)
            identical = idx == sx
            equalities += int(np.count_nonzero(eq_somewhere & identical))
            violation = ~minus_le | ~plus_ge | (eq_somewhere & ~identical)
            for sy in idx[np.nonzero(violation)[0]]:
                bad.append(
                    (
                        tuple(values[i] for i in seqs[sx]),
                        tuple(values[i] for i in seqs[int(sy)]),
                    )
                )
    return GridReport(
        lemma="cook",
        instances=total,
        hypotheses_held=held,
        counterexamples=bad,
        conclusion_equalities=equalities,
    )


def scan_pre_cook_grid() -> GridReport:
    """Strict spreading inequalities over a small rational box."""
    values = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    alphas = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    seen = 0
    bad: list = []
    for i, x1 in enumerate(values):
        for x2 in values[i:]:
            for alpha in alphas:
                seen += 1
                verdict = check_pre_cook(x1, x2, alpha)
                if verdict.counterexample:
                    bad.append((x1, x2, alpha))
    return GridReport(
        lemma="precook",
        instances=seen,
        hypotheses_held=seen,
        counterexamples=bad,
    )


def scan_divisibility_grid(members: Sequence[int]) -> GridReport:
    """Every unitary split of every member times every subset of the primes
    of the removed part.  The members are validated once, not per split:
    every split built here is unitary with prod(U_i) > 1 by construction."""
    record = _require_anarchy_harmonious(members)
    # the record sorts its members; the splits keep the caller's order
    by_member = dict(zip(record.members, record.factorizations))
    facts = [by_member[m] for m in members]
    seen = 0
    bad: list = []
    for parts in itertools.product(*map(_unitary_divisors, facts)):
        if prod(parts) <= 1:
            continue
        u_primes = sorted(p for f, u in zip(facts, parts) for p, _ in f if u % p == 0)
        for mask in range(1 << len(u_primes)):
            subset = [p for i, p in enumerate(u_primes) if mask >> i & 1]
            seen += 1
            if sum(divisibility_terms(members, parts, subset)) == 1:
                bad.append((parts, tuple(subset)))
    return GridReport(
        lemma="div",
        instances=seen,
        hypotheses_held=seen,
        counterexamples=bad,
    )
