"""
Explicit product bounds on classified tuples
============================================

Every harmonious tuple with K distinct primes across its members satisfies
M_1*...*M_k < F_{2K}(2) where F_r(x) = x^(2^r) - x^(2^(r-1)), and amicable
pairs satisfy the sharper (k*L)^(2^L) style bounds.  The checks run on exact
integers; numbers past 256 bits are reported by bit length only.

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
