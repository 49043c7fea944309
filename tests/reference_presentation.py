"""The quantum matrix and quantum Weyl builders and the dense
commutation table as they stood before presentations were built in
exponent space, kept as the oracle for ``presentation.quantum_matrices``,
``presentation.quantum_weyl`` and ``Presentation._cu``.

``quantum_matrices_data`` and ``quantum_weyl_data`` are the former
builders, unit products, inversions and Laurent arithmetic included,
returning their pieces instead of a presentation so that none of them
passes through the code under test.
``reference_dense_table`` fills both orientations of the commutation
table with ``UnitMonomial.inverse``.
"""

from qsolv import FamilyError, LaurentPoly, UnitMonomial


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


def quantum_weyl_data(n):
    """(name, params, gens, npoly, qmat, tails, qskew, hweights) of the
    quantum Weyl algebra on pairs y_i, x_i.

    PBW order is y_1..y_n, x_n..x_1; the only tails sit on the (y_i, x_i)
    pairs: y_i x_i = c^(-1) x_i y_i + 1 + (c^(-1)-1) * sum of x_a y_a over
    a > i, stored here in normal form.  Scalars use the parameter c and,
    for n > 1, the pair parameters r_ij with the companion family
    p_ij = c * r_ij^(-1).
    """
    n = int(n)
    if n < 1:
        raise FamilyError("quantum_weyl needs at least one pair")
    params = ("c",) + tuple(f"r{i}{j}" for i in range(1, n + 1)
                            for j in range(i + 1, n + 1))
    slot = {name: idx for idx, name in enumerate(params)}
    width = len(params)

    def unit(c=0, **rs):
        exps = [0] * width
        exps[0] = c
        for name, e in rs.items():
            exps[slot[name]] += e
        return UnitMonomial(params, 1, tuple(exps))

    def r(a, b, power=0):
        # c^power * r_ab, with r_ba = r_ab^(-1)
        lo, hi = min(a, b), max(a, b)
        return unit(power, **{f"r{lo}{hi}": 1 if a < b else -1})

    def p(a, b):
        # p_ab = c * r_ab^(-1) for a < b, and p_ba = p_ab^(-1)
        return r(b, a, 1 if a < b else -1)

    if n == 1:
        gens = ("y", "x")
    else:
        gens = tuple(f"y{i}" for i in range(1, n + 1)) + tuple(
            f"x{i}" for i in range(n, 0, -1))
    total = 2 * n

    def ypos(i):
        return i - 1

    def xpos(i):
        return 2 * n - i

    qmat = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            qmat[(ypos(i), ypos(j))] = p(i, j)
            qmat[(xpos(j), xpos(i))] = r(i, j)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j:
                qmat[(ypos(i), xpos(j))] = p(j, i)
            elif i > j:
                qmat[(ypos(i), xpos(j))] = r(i, j)
            else:
                qmat[(ypos(i), xpos(i))] = unit(c=-1)

    one_poly = LaurentPoly.one(params)
    c_poly = unit(c=1).as_poly()
    cinv_minus_one = unit(c=-1).as_poly() - one_poly

    # normal forms of the sums T_i = x_(i+1) y_(i+1) + ... + x_n y_n,
    # built downward so each reordering may use the later sums
    tsum = {n: {}}
    for a in range(n, 0, -1):
        key = [0] * total
        key[ypos(a)] = 1
        key[xpos(a)] = 1
        flipped = {tuple(key): c_poly, (0,) * total: -c_poly}
        for k, coef in tsum[a].items():
            extra = (c_poly - one_poly) * coef
            flipped[k] = flipped.get(k, LaurentPoly.zero(params)) + extra
        prev = {k: c for k, c in flipped.items() if not c.is_zero()}
        merged = dict(tsum[a])
        for k, coef in prev.items():
            merged[k] = merged.get(k, LaurentPoly.zero(params)) + coef
        tsum[a - 1] = {k: c for k, c in merged.items() if not c.is_zero()}

    tails = {}
    for i in range(1, n + 1):
        body = {(0,) * total: one_poly}
        for k, coef in tsum[i].items():
            body[k] = body.get(k, LaurentPoly.zero(params)) + cinv_minus_one * coef
        tails[(ypos(i), xpos(i))] = {k: c for k, c in body.items() if not c.is_zero()}

    qskew = [unit(c=-1)] * n + [unit()] * n

    hweights = [[None] * total for _ in range(total)]
    for i in range(1, n + 1):
        row = hweights[ypos(i)]
        for j in range(1, n + 1):
            if i < j:
                row[ypos(j)] = p(i, j)
                row[xpos(j)] = p(j, i)
            elif i > j:
                row[ypos(j)] = r(j, i)
                row[xpos(j)] = r(i, j)
            else:
                row[ypos(i)] = unit(c=1)
                row[xpos(i)] = unit(c=-1)
    for j in range(1, n + 1):
        row = hweights[xpos(j)]
        for a in range(1, n + 1):
            if a == j:
                row[ypos(a)] = unit()
                row[xpos(a)] = unit()
            else:
                row[xpos(a)] = r(a, j)
                row[ypos(a)] = r(j, a)

    name = "quantum_weyl" if n == 1 else f"quantum_weyl{n}"
    return name, params, gens, total, qmat, tails, qskew, hweights


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
