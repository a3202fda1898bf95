"""Explicit upper bounds on tuple products, verified exactly.

Two bound families are checked against found tuples:

  main bound   product < ceil(z * 2^(4^K - 2*2^K)) for anarchy harmonious
               tuples, K the number of distinct primes of the product, z a
               certified dyadic upper bound of pi^2/6;
  k^-k bound   product <= (2^(2^L) - 2^(2^(L-1))) / k^k, with L the prime
               multiplicity count of the product for harmonious tuples and
               the sum of distinct-prime counts for unitary harmonious ones.

Every verdict is exact and always decided.  The bit length of the product
settles the main bound outside the single octave that holds the bound; inside
it the bound is at most twice the product and is built and compared.  The
k^-k bound is tested by tower_holds on product * k^k, which never builds an
integer much larger than the square of that value.

verify_bounds returns a BoundReport that holds the classified record and the
three verdicts, nothing else: members, K, L, L* and the product are read from
the record, and the displayed main bound and its exponent are built only when
the report is rendered as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from harmonia.classify import TupleRecord

# ceil(zeta(2) * 2^64): certified dyadic upper bound of pi^2/6 = 1.6449340668...
# frozen as a literal; tests re-derive it from an integer Machin bracketing of pi
ZETA2_NUM = 30343677749275472433
ZETA2_SHIFT = 64

TOWER_CAP = 64
MAIN_CAP = 16
# bounds are materialized for display only up to this many bits
MATERIALIZE_BITS = 1 << 25


def tower(r: int, x: int | Fraction) -> int | Fraction:
    """x**(2**r) - x**(2**(r-1)); for r = 0 it degenerates to x - 1.

    Strictly increasing in x on x >= 1 for every r.
    """
    if not 0 <= r <= TOWER_CAP:
        raise ValueError(f"tower index must be in [0, {TOWER_CAP}], got {r}")
    if x < 1:
        raise ValueError(f"tower argument must be >= 1, got {x}")
    if r == 0:
        return x - 1
    half = x ** (1 << (r - 1))
    return half * half - half


def main_bound(K: int) -> int:
    """ceil of the dyadic pi^2/6 upper bound times 2^(4^K - 2*2^K)."""
    if not 1 <= K <= MAIN_CAP:
        raise ValueError(f"main bound needs 1 <= K <= {MAIN_CAP}, got {K}")
    exponent = main_bound_log2(K)
    if exponent >= ZETA2_SHIFT:
        # exact: the dyadic constant times a power of two is an integer
        return ZETA2_NUM << (exponent - ZETA2_SHIFT)
    shift = ZETA2_SHIFT - exponent
    return (ZETA2_NUM + (1 << shift) - 1) >> shift


def main_bound_log2(K: int) -> int:
    """The exponent 4^K - 2*2^K; integer log2 surrogate for the main bound."""
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    return 4**K - 2 * 2**K


def tower_holds(value: int, r: int, x: int) -> bool:
    """Exact test value <= tower(r, x) for integer x >= 1; builds no integer
    larger than value squared."""
    if value < 0:
        raise ValueError("value must be nonnegative")
    if r == 0:
        return value <= x - 1
    if x == 1:
        return value <= 0
    h = x
    for _ in range(r - 1):
        if h > value:
            # h only grows from here, and tower = h'(h'-1) >= h' >= h
            return True
        h = h * h
    return value <= h * h - h


def main_holds(product: int, K: int) -> bool:
    """Is product < main_bound(K)?

    The bound lies in [2^E, 2^(E+1)] with E = main_bound_log2(K), so the bit
    length decides outside that octave; inside it the bound is at most
    2 * product and cheap to build.
    """
    exponent = main_bound_log2(K)
    if product.bit_length() != exponent + 1:
        return product.bit_length() <= exponent
    return product < main_bound(K)


@dataclass(frozen=True)
class BoundReport:
    """The three bound verdicts for one classified record, each None where
    its hypothesis fails; what the report shows of the tuple is read from
    the record, and the main bound itself is built only to render it."""

    record: TupleRecord
    main_holds: bool | None
    borho_holds: bool | None
    borho_star_holds: bool | None

    @property
    def all_applicable_hold(self) -> bool:
        return False not in (self.main_holds, self.borho_holds, self.borho_star_holds)

    def to_json_dict(self) -> dict:
        record = self.record
        main_applies = self.main_holds is not None
        log2 = main_bound_log2(record.K) if main_applies else None
        bound = main_bound(record.K) if main_applies and log2 <= MATERIALIZE_BITS else None
        return {
            "members": list(record.members),
            "K": record.K,
            "L": record.L_omega,
            "L_star": record.L_star,
            "product": render_big(record.product),
            "main_applies": main_applies,
            "main_holds": self.main_holds,
            "main_bound_log2": log2,
            "main_bound": render_big(bound),
            "borho_holds": self.borho_holds,
            "borho_star_holds": self.borho_star_holds,
        }


def render_big(x: int | None):
    # decimal strings up to 256 bits, size-only beyond; keeps JSON diffable
    # without ever emitting hundred-megabyte digit strings
    if x is None:
        return None
    if x.bit_length() <= 256:
        return str(x)
    return {"bits": x.bit_length()}


def verify_bounds(record: TupleRecord) -> BoundReport:
    """Check every bound whose hypothesis the record satisfies.

    The main bound applies to anarchy harmonious tuples (K >= 1, which only
    excludes the degenerate all-ones tuple); the k^-k bound applies to
    harmonious tuples via L_omega and to unitary harmonious tuples via
    L_star.  A verdict is None when its hypothesis does not hold.
    """
    product_kk = record.product * len(record.members) ** len(record.members)
    harmonious = record.flags["harmonious"]
    return BoundReport(
        record=record,
        main_holds=(
            main_holds(record.product, record.K)
            if record.flags["anarchy"] and harmonious and record.K >= 1
            else None
        ),
        borho_holds=tower_holds(product_kk, record.L_omega, 2) if harmonious else None,
        borho_star_holds=(
            tower_holds(product_kk, record.L_star, 2)
            if record.flags["unitary_harmonious"]
            else None
        ),
    )
