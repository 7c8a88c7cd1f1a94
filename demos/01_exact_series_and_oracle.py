"""Exact q-series against brute-force enumeration.

Walks the foundation of the package: the overpartition counting series,
the rank/crank statistic tables built by listing actual overpartitions,
and the moment generating series that must reproduce those tables
coefficient for coefficient.
"""

from overmoments import (
    build_table,
    enumerate_overpartitions,
    moment_series,
    overpartition_gf,
    rank,
    residual_crank_weights,
)

# --- counting overpartitions ---------------------------------------------

print("overpartition counts:", overpartition_gf(10))

print("\nthe 8 overpartitions of 3 (overline written as ~):")
for op in enumerate_overpartitions(3):
    print(f"  {op}   rank {rank(op):+d}   crank weights {residual_crank_weights(op)}")

# --- statistic tables ------------------------------------------------------

rank_table = build_table("rank", 8)
crank_table = build_table("crank", 8)
print("\nrank column at n=3 :", rank_table.column(3))
print("crank column at n=3:", crank_table.column(3))
print("crank column at n=1:", crank_table.column(1), " (the weighted value at 1)")

# --- moment generating series ----------------------------------------------

print("\nsymmetrized rank series, order 3:", moment_series("symmetrized", "rank", 3, 10))
print("symmetrized crank series, order 3:", moment_series("symmetrized", "crank", 3, 10))

# the two quoted sample expansions and their resolved identities
print("\nquoted expansion 2q^3+8q^4+...  = rank series r=3:",
      moment_series("symmetrized", "rank", 3, 7)[3:])
print("quoted expansion q^2+6q^3+...   = crank series r=4 with shift 2:",
      moment_series("symmetrized", "crank", 4, 7, shift=2)[2:])
