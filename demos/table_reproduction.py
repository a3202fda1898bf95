"""
Reproducing the pair-count table and the coprime pair listing
=============================================================

Counts harmonious pairs (M, N) with N/sigma(N) + M/sigma(M) = 1 below a
ladder of bounds, then lists the 30 pairwise-coprime pairs below 10^5
with their factorizations and the gcd columns.

CLI equivalents:
    harmonia report table2 --bounds 10,100,1000,10000,100000
    harmonia search harmonious --bound 100000 --coprime --format csv
"""

from harmonia.classify import format_factorization
from harmonia.search import SearchConfig, count_table, search_pairs

# one sieve pass at the largest bound serves every smaller bound
print("bound      pairs  coprime")
for row in count_table((10, 100, 1000, 10**4, 10**5)):
    print(f"{row.bound:<9}  {row.harmonious:<5}  {row.coprime_harmonious}")

print()
print("pairwise-coprime pairs below 10^5:")
records = search_pairs(SearchConfig(bound=10**5, filters={"coprime"}))
for record in records:
    m, n = record.members
    fm, fn = (format_factorization(f) for f in record.factorizations)
    print(f"  {m:>6} = {fm:<14} {n:>6} = {fn:<16} "
          f"gcd(M,sN)={record.g1:<3} gcd(sM,N)={record.g2}")
print(f"{len(records)} pairs")
