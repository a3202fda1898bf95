"""
Hunting the anarchy pair
========================

An anarchy pair is harmonious with gcd(M, N*sigma(N)) = gcd(N, M*sigma(M)) = 1.
The smallest one has M = 64 and a nine-digit partner.  The asymmetric sweep
below keeps M small and pushes N to 2*10^8; expect 15-20 seconds of
sieving on two cores.

CLI equivalent:
    harmonia search anarchy --m-bound 1000 --n-bound 200000000
"""

import sys
import time

from harmonia.classify import format_factorization
from harmonia.search import search_anarchy_pairs

start = time.time()
records = search_anarchy_pairs(
    10**3, 2 * 10**8,
    progress=lambda message: print(f"  {message}", file=sys.stderr),
)
print(f"swept M <= 10^3, N <= 2*10^8 in {time.time() - start:.0f}s")

for record in records:
    m, n = record.members
    sm, sn = (p.sigma for p in record.profiles)
    print(f"found ({m}, {n})")
    print(f"  {m} = {format_factorization(record.profiles[0].factorization)},"
          f"  sigma = {sm}")
    print(f"  {n} = {format_factorization(record.profiles[1].factorization)},"
          f"  sigma = {sn}")
    # the harmonious identity, cross-multiplied to stay in integers
    assert m * sn + n * sm == sm * sn
    print(f"  {m}*{sn} + {n}*{sm} == {sm}*{sn}")
    print(f"  anarchy: {record.flags['anarchy']}")
