"""The determinant through a fresh column HNF, kept as the oracle for the
lattice index that ``torus`` reads off the pivots of a basis already in
Hermite form, and for the unimodular checks of the integer tests."""

from qsolv.intlinalg import column_hnf


def abs_det(rows):
    """|det A| of a square integer matrix, via HNF pivots."""
    n = len(rows)
    if n == 0:
        return 1
    hcols, _, pivots = column_hnf(rows, n, n)
    if len(pivots) < n:
        return 0
    d = 1
    for row, col in pivots:
        d *= hcols[col][row]
    return abs(d)
