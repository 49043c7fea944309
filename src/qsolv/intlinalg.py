"""Exact linear algebra over the integers.

Small dense matrices only (a handful of rows and columns), so everything
uses naive pivoting on Python ints; no modular tricks, no floating point.
Matrices are lists of rows; basis collections are lists of column vectors.
"""

from .errors import LatticeError


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _columns(rows, m, n):
    return [[rows[r][c] for r in range(m)] for c in range(n)]


def column_hnf(rows, m, n):
    """Column-style Hermite normal form.

    Returns (hcols, ucols, pivots) where hcols = A*U as columns, U is
    unimodular (as columns), and pivots lists (row, col) positions of the
    echelon pivots.  Pivots are positive; entries in a pivot row to the
    left of the pivot are reduced into [0, pivot).
    """
    cols = _columns(rows, m, n)
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    pivots = []
    pc = 0
    for row in range(m):
        j0 = None
        for j in range(pc, n):
            if cols[j][row]:
                j0 = j
                break
        if j0 is None:
            continue
        cols[pc], cols[j0] = cols[j0], cols[pc]
        ucols[pc], ucols[j0] = ucols[j0], ucols[pc]
        for j in range(pc + 1, n):
            while cols[j][row]:
                a, b = cols[pc][row], cols[j][row]
                g, x, y = xgcd(a, b)
                u, v = -(b // g), a // g
                new_p = [x * cols[pc][r] + y * cols[j][r] for r in range(m)]
                new_j = [u * cols[pc][r] + v * cols[j][r] for r in range(m)]
                cols[pc], cols[j] = new_p, new_j
                new_pu = [x * ucols[pc][r] + y * ucols[j][r] for r in range(n)]
                new_ju = [u * ucols[pc][r] + v * ucols[j][r] for r in range(n)]
                ucols[pc], ucols[j] = new_pu, new_ju
        if cols[pc][row] < 0:
            cols[pc] = [-v for v in cols[pc]]
            ucols[pc] = [-v for v in ucols[pc]]
        piv = cols[pc][row]
        for j in range(pc):
            q = cols[j][row] // piv
            if q:
                cols[j] = [cols[j][r] - q * cols[pc][r] for r in range(m)]
                ucols[j] = [ucols[j][r] - q * ucols[pc][r] for r in range(n)]
        pivots.append((row, pc))
        pc += 1
    return cols, ucols, pivots


def kernel_basis(rows):
    """Basis (list of column vectors) of {v : A v = 0} over the integers.

    The kernel of an integer matrix is always a direct summand, so this
    basis is saturated.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    _, ucols, pivots = column_hnf(rows, m, n)
    rank = len(pivots)
    return [ucols[j] for j in range(rank, n)]


def hnf_columns(dim, vectors):
    """Canonical HNF basis of the lattice spanned by the given vectors.

    Returns a tuple of nonzero column tuples; equal lattices yield equal
    results.
    """
    vecs = [list(v) for v in vectors if any(v)]
    if not vecs:
        return ()
    rows = [[vec[r] for vec in vecs] for r in range(dim)]
    hcols, _, pivots = column_hnf(rows, dim, len(vecs))
    return tuple(tuple(hcols[j]) for _, j in sorted(pivots, key=lambda t: t[1]))


def hnf_contains(dim, basis_cols, v):
    """Decide membership of v in the lattice spanned by an HNF basis."""
    rem = list(v)
    for col in basis_cols:
        row = next(r for r in range(dim) if col[r])
        if rem[row] % col[row]:
            return False
        q = rem[row] // col[row]
        if q:
            rem = [rem[r] - q * col[r] for r in range(dim)]
    return not any(rem)


def complete_to_unimodular(dim, basis_cols):
    """Extend independent columns spanning a direct summand to a basis of Z^dim.

    Returns a list of dim column vectors forming a unimodular matrix whose
    first len(basis_cols) columns span the same lattice as basis_cols.
    Raises LatticeError if the subgroup is not a direct summand.
    """
    r = len(basis_cols)
    if r == 0:
        return [[1 if i == j else 0 for i in range(dim)] for j in range(dim)]
    # Invariant: basis matrix == Minv * work with Minv unimodular.  Row
    # operations on work are mirrored by inverse column operations on Minv;
    # once work is upper triangular with unit diagonal, its columns span
    # Z^r x 0 and the first r columns of Minv span the input lattice.
    work = [list(col) for col in basis_cols]  # columns
    minv = [[1 if i == j else 0 for i in range(dim)] for j in range(dim)]  # cols

    def row_swap(i, j):
        for col in work:
            col[i], col[j] = col[j], col[i]
        minv[i], minv[j] = minv[j], minv[i]

    def row_addmul(i, j, t):
        # row_i += t * row_j on work; Minv column_j -= t * column_i
        for col in work:
            col[i] += t * col[j]
        minv[j] = [minv[j][k] - t * minv[i][k] for k in range(dim)]

    for c in range(r):
        while True:
            nz = [i for i in range(c, dim) if work[c][i]]
            if not nz:
                raise LatticeError("dependent columns passed to completion")
            pick = min(nz, key=lambda i: abs(work[c][i]))
            if pick != c:
                row_swap(c, pick)
            done = True
            for i in range(c + 1, dim):
                if work[c][i]:
                    row_addmul(i, c, -(work[c][i] // work[c][c]))
                    if work[c][i]:
                        done = False
            if done:
                break
        if abs(work[c][c]) != 1:
            raise LatticeError("subgroup is not a direct summand")
    return [list(col) for col in minv]
