"""The quantum matrix builder and the dense commutation table as they
stood before presentations were built in exponent space, kept as the
oracle for ``presentation.quantum_matrices`` and ``Presentation._cu``.

``quantum_matrices_data`` is the former builder, unit products and
inversions included, returning its pieces instead of a presentation so
that none of them passes through the code under test.
``reference_dense_table`` fills both orientations of the commutation
table with ``UnitMonomial.inverse``.
"""

from qsolv import FamilyError, UnitMonomial


def quantum_matrices_data(n):
    """(name, params, gens, npoly, qmat, tails, qskew, hweights) of the
    generic n x n quantum matrix algebra."""
    n = int(n)
    if not 1 <= n <= 9:
        raise FamilyError("quantum_matrices size must be between 1 and 9")
    params = ("h",) + tuple(f"q{i}{j}" for i in range(1, n + 1)
                            for j in range(i + 1, n + 1))
    slot = {name: idx for idx, name in enumerate(params)}
    width = len(params)

    def unit(h=0, **qs):
        exps = [0] * width
        exps[0] = h
        for name, e in qs.items():
            exps[slot[name]] += e
        return UnitMonomial(params, 1, tuple(exps))

    def q(a, b):
        # the scalar q_ab, with q_ba = q_ab^(-1)
        if a < b:
            return unit(**{f"q{a}{b}": 1})
        return unit(**{f"q{b}{a}": -1})

    def p_inv(t, s):
        # p_ts^(-1) = h^(-2) q_ts for t < s
        return unit(h=-2) * q(t, s)

    def pos(t, i):
        return (t - 1) * n + (i - 1)

    gens = tuple(f"a{t}{i}" for t in range(1, n + 1) for i in range(1, n + 1))
    total = n * n
    qmat = {}
    tails = {}
    for t in range(1, n + 1):
        for i in range(1, n + 1):
            for s in range(t, n + 1):
                for j in range(1, n + 1):
                    if pos(s, j) <= pos(t, i):
                        continue
                    a, b = pos(t, i), pos(s, j)
                    if t == s:
                        qmat[(a, b)] = q(i, j).inverse()
                    elif i == j:
                        qmat[(a, b)] = p_inv(t, s)
                    elif i < j:
                        qmat[(a, b)] = q(t, s) * q(i, j).inverse()
                        coef = (q(i, j).inverse() - unit(h=2) * q(t, s).inverse())
                        key = [0] * total
                        key[pos(t, j)] += 1
                        key[pos(s, i)] += 1
                        if not coef.is_zero():
                            tails[(a, b)] = {tuple(key): coef}
                    else:
                        qmat[(a, b)] = p_inv(t, s) * q(j, i)

    qskew = [
        unit(h=2) if (t < n and i < n) else unit()
        for t in range(1, n + 1) for i in range(1, n + 1)
    ]

    def row_factor(t, s):
        if t < s:
            return unit(h=-1) * q(t, s)
        if t == s:
            return unit(h=-1)
        return unit(h=-1) * q(s, t).inverse()

    def col_factor(i, j):
        if i < j:
            return unit(h=1) * q(i, j).inverse()
        if i == j:
            return unit(h=-1)
        return unit(h=-1) * q(j, i)

    hweights = [
        [row_factor(t, s) * col_factor(i, j)
         for s in range(1, n + 1) for j in range(1, n + 1)]
        for t in range(1, n + 1) for i in range(1, n + 1)
    ]
    return (f"quantum_matrices{n}", params, gens, total,
            qmat, tails, qskew, hweights)


def reference_dense_table(pres):
    """cu[a][b], the scalar in g_a g_b = cu * g_b g_a, from the stored
    pairs a < b and their inverses."""
    total = len(pres.gens)
    cu = [[UnitMonomial.one(pres.params)] * total for _ in range(total)]
    for (a, b), u in pres.qmat.items():
        cu[a][b] = u
        cu[b][a] = u.inverse()
    return cu


def reference_weight_rows(pres, hweights=None):
    """The weight table the constructor fills when no full table is
    given: commutation rows with qskew_i^-1 on the diagonal, then the
    given (i, j) entries."""
    rows = [list(row) for row in reference_dense_table(pres)[:pres.n]]
    for i in range(pres.n):
        rows[i][i] = pres.qskew[i].inverse()
    for (i, j), u in (hweights or {}).items():
        rows[i][j] = u
    return tuple(tuple(r) for r in rows)
