"""
Explicit product bounds on classified tuples
============================================

verify_bounds checks two bounds on the product M_1*...*M_k, each only where
its hypothesis holds.  With F_r(x) = x^(2^r) - x^(2^(r-1)):

  main bound   an anarchy harmonious tuple whose product has K distinct
               primes satisfies M_1*...*M_k < (pi^2/6) * 2^(4^K - 2*2^K);
  k^-k bound   a harmonious tuple satisfies M_1*...*M_k <= F_L(2) / k^k with
               L the prime factors of the product counted with multiplicity,
               and a unitary harmonious one the same with L_star, the sum of
               the members' distinct-prime counts.

Every verdict is decided in exact integers; numbers past 256 bits are
reported by bit length only.

CLI equivalent:
    harmonia search harmonious --bound 1000 --out pairs.jsonl
    harmonia bounds verify --input pairs.jsonl
"""

import json

from harmonia.bounds import tower, verify_bounds
from harmonia.classify import classify

# the tower function that powers every bound
for r in range(0, 7):
    print(f"F_{r}(2) = {tower(r, 2)}")

print()
for members in [(6, 6), (220, 284), (135, 3472), (64, 173369889)]:
    record = classify(members)
    report = verify_bounds(record)
    print(f"{members}: K={report.K} product={report.product}")
    print("  " + json.dumps(report.to_json_dict()))
    assert report.all_applicable_hold
