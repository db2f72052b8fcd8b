"""
Published reference values that the pipeline is checked against, kept in
one place together with the known discrepancies.

Three spots in the source tables are flagged rather than asserted:

  * the degree-4 cell of the 6-strand near-full-twist row prints 1 955
    where every computational path yields 1 956;
  * one row label prints braid index 4 but sits among the 5-strand rows
    and carries 5-strand values (read here as n = 5);
  * the displayed 5x5 partition matrix orders its two middle partitions
    the other way around from the enumeration rule that the displayed 3x3
    and 7x7 matrices follow; its entries are checked under that relabeling.
"""
from __future__ import annotations

PAPER_DISCREPANCY = "paper-discrepancy"

# Normality matrices over the canonical enumeration, n = 1, 2, 3.
M1 = ((1,),)
M2 = (
    (1, 0),
    (1, 1),
)
M3 = (
    (1, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 1, 0),
    (1, 0, 1, 1, 0, 0),
    (1, 1, 0, 0, 1, 0),
    (1, 0, 1, 1, 0, 0),
    (1, 1, 1, 1, 1, 1),
)

# Subset-indexed matrix for n = 3, subsets in binary order {}, {1}, {2}, {1,2}.
MPRIME3 = (
    (1, 0, 0, 0),
    (2, 1, 1, 0),
    (2, 1, 1, 0),
    (1, 1, 1, 1),
)

# Partition-indexed matrices.  Labels record the row and column order the
# source displays them in; for n = 4 that order disagrees with the
# first-occurrence enumeration (see the module docstring).
MBAR3_LABELS = ((1, 1, 1), (2, 1), (3,))
MBAR3 = (
    (1, 0, 0),
    (4, 2, 0),
    (1, 1, 1),
)

MBAR4_LABELS = ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,))
MBAR4 = (
    (1, 0, 0, 0, 0),
    (11, 4, 1, 0, 0),
    (5, 3, 2, 1, 0),
    (6, 4, 2, 2, 0),
    (1, 1, 1, 1, 1),
)

MBAR5_LABELS = (
    (1, 1, 1, 1, 1),
    (2, 1, 1, 1),
    (3, 1, 1),
    (2, 2, 1),
    (4, 1),
    (3, 2),
    (5,),
)
MBAR5 = (
    (1, 0, 0, 0, 0, 0, 0),
    (26, 8, 0, 2, 0, 0, 0),
    (23, 12, 4, 5, 0, 1, 0),
    (43, 21, 5, 10, 0, 2, 0),
    (8, 6, 4, 4, 2, 2, 0),
    (18, 12, 6, 8, 2, 4, 0),
    (1, 1, 1, 1, 1, 1, 1),
)

# Reference grid of b(n, d, half twist on rho strands), d = 1..6.
# Keys are (n, rho); rho = 1 is the trivial-braid column.
TABLE1: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 1): (1, 2, 3, 4, 5, 6),
    (3, 1): (1, 6, 19, 48, 109, 234),
    (3, 2): (1, 3, 7, 15, 31, 63),
    (4, 1): (1, 24, 211, 1380, 8077, 45252),
    (4, 2): (1, 12, 83, 492, 2765, 15240),
    (4, 3): (1, 4, 15, 64, 309, 1600),
    (5, 1): (1, 120, 3651, 79140, 1548701, 29375460),
    (5, 2): (1, 60, 1501, 30540, 585811, 11044080),
    (5, 3): (1, 20, 311, 5260, 94881, 1755360),
    (5, 4): (1, 5, 31, 325, 4931, 86565),
    (6, 1): (1, 720, 90921, 7952040, 634472921, 49477263360),
    (6, 2): (1, 360, 38559, 3228300, 254718389, 19808530620),
    (6, 3): (1, 120, 8727, 649260, 49654757, 3831626580),
    (6, 4): (1, 30, 1075, 61620, 4387195, 332578230),
    (6, 5): (1, 6, 63, 1955, 116423, 8448606),
}

# (n, rho, d) -> note; cells where the printed value is not what the
# pipeline and the oracles compute.
TABLE1_FLAGGED_CELLS: dict[tuple[int, int, int], str] = {
    (6, 5, 4): "printed 1955; pipeline and oracle both give 1956",
}

# (n, rho) -> note on the printed row label.
TABLE1_ROW_NOTES: dict[tuple[int, int], str] = {
    (5, 4): "row is printed with braid index 4 but carries the 5-strand values",
}

# New factor of the partition-matrix characteristic polynomial at each n,
# constant term first; the full polynomial is the product of these up to n
# starting from (x - 1) at n = 1.
CHARPOLY_NEW_FACTORS: dict[int, tuple[int, ...]] = {
    1: (-1, 1),
    2: (-1, 1),
    3: (-2, 1),
    4: (3, -6, 1),
    5: (24, -20, 1),
    6: (60, -260, 359, -82, 1),
    7: (8640, -13680, 6024, -390, 1),
    8: (-226800, 1341900, -3305160, 3780975, -1321214, 139976, -2134, 1),
}

# Dominant eigenvalue of the counting matrices, truncated to three decimals
# (floor(1000 rho) / 1000, so 18.7178 appears as 18.717), and the ratio row
# rho(n) / (n * rho(n-1)), rounded to three decimals.
RHO: dict[int, float] = {
    1: 1.0,
    2: 1.0,
    3: 2.0,
    4: 5.449,
    5: 18.717,
    6: 77.405,
    7: 373.990,
    8: 2066.575,
}
RHO_RATIO: dict[int, float] = {
    2: 0.5,
    3: 0.667,
    4: 0.681,
    5: 0.687,
    6: 0.689,
    7: 0.690,
    8: 0.691,
}

# Number of partitions of n, used for degree bookkeeping.
PARTITION_COUNTS: dict[int, int] = {
    1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42,
}
