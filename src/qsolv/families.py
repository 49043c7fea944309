"""Builders of the standard families of presentations.

Each builder returns a ``Presentation`` written down in closed form:
the quantum plane and quantum affine spaces, the generic quantum matrix
algebras, the quantum Weyl algebras and the rank-2 family
x*y = q*y*x + f(q).  Sizes and exponents are read as integers, never
truncated (``params._as_exponent``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import FamilyError
from .params import LaurentPoly, UnitMonomial, _as_exponent
from .presentation import Presentation


def quantum_plane():
    """Two generators with x y = q y x and no tail."""
    params = ("q",)
    return Presentation(
        "quantum_plane", params, ("x", "y"), 2,
        qmat={(0, 1): UnitMonomial.var(params, "q")},
    )


def quantum_affine(n, exponents=None):
    """Affine space on n generators, x_i x_j = q^(e_ij) x_j x_i.

    By default every e_ij with i < j is 1; an explicit antisymmetric
    integer matrix may be supplied instead.
    """
    n = _as_exponent(n)
    if n < 1:
        raise FamilyError("quantum_affine needs at least one generator")
    if exponents is None:
        exponents = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                exponents[i][j] = 1
                exponents[j][i] = -1
    exponents = [[_as_exponent(v) for v in row] for row in exponents]
    if len(exponents) != n or any(len(r) != n for r in exponents):
        raise FamilyError("exponent matrix shape mismatch")
    for i in range(n):
        for j in range(n):
            if exponents[i][j] != -exponents[j][i]:
                raise FamilyError("exponent matrix must be antisymmetric")
    params = ("q",)
    qmat = {
        (i, j): UnitMonomial._make(params, 1, (exponents[i][j],))
        for i in range(n) for j in range(i + 1, n)
        if exponents[i][j]
    }
    gens = tuple(f"x{i + 1}" for i in range(n))
    return Presentation(f"quantum_affine{n}", params, gens, n, qmat=qmat)


def quantum_matrices(n):
    """Generic n x n quantum matrix algebra.

    Parameters are h and q_ij for i < j, with the usual pairing constant
    c = h^2; the second scalar family is p_ij = c * q_ij^(-1).  Entries
    a_ti are ordered row by row, tails follow the 2x2 minor rule.

    Every scalar is built from integer exponent vectors: tau_(t,i) acts
    on a_sj by h^-1 q_ts * h^(+-1) q_ji, and the scalar of a relation is
    the weight of its first generator on the second one.  The vectors are
    ints by construction, so the units go through UnitMonomial._make.
    """
    n = _as_exponent(n)
    if not 1 <= n <= 9:
        raise FamilyError("quantum_matrices size must be between 1 and 9")
    params = ("h",) + tuple(f"q{i}{j}" for i in range(1, n + 1)
                            for j in range(i + 1, n + 1))
    zero = (0,) * len(params)
    # exponents of q_ab, with q_ba = q_ab^(-1) and q_aa = 1
    q = {(a, a): zero for a in range(1, n + 1)}
    for k, name in enumerate(params[1:], 1):
        a, b = int(name[1]), int(name[2])
        q[a, b] = zero[:k] + (1,) + zero[k + 1:]
        q[b, a] = zero[:k] + (-1,) + zero[k + 1:]

    def hq(e, a, b):
        # exponents of h^e * q_ab
        return (e,) + q[a, b][1:]

    idx = range(1, n + 1)
    cells = [(t, i) for t in idx for i in idx]
    rows = {(t, s): hq(-1, t, s) for t in idx for s in idx}
    cols = {(i, j): hq(1 if i < j else -1, j, i) for i in idx for j in idx}
    hweights = [
        [UnitMonomial._make(params, 1, tuple(map(add, rows[t, s], cols[i, j])))
         for s, j in cells]
        for t, i in cells
    ]
    total = n * n
    qmat = {}
    tails = {}
    for a, (t, i) in enumerate(cells):
        for b in range(a + 1, total):
            qmat[a, b] = hweights[a][b]
            s, j = cells[b]
            if t < s and i < j:
                # the tail (q_ij^-1 - h^2 q_ts^-1) a_tj a_si
                key = [0] * total
                key[(t - 1) * n + j - 1] = key[(s - 1) * n + i - 1] = 1
                tails[a, b] = {tuple(key): LaurentPoly._make(
                    params, {q[j, i]: 1, hq(2, s, t): -1})}
    one, c = UnitMonomial._make(params, 1, zero), UnitMonomial._make(params, 1, hq(2, 1, 1))
    return Presentation(
        f"quantum_matrices{n}", params, tuple(f"a{t}{i}" for t, i in cells), total,
        qmat=qmat, tails=tails, hweights=hweights,
        qskew=[c if t < n and i < n else one for t, i in cells],
    )


def _weyl_pair_names(n, pairs):
    """Names of the parameters r_ij of quantum_weyl(n).  From n = 10 on
    the indices are separated: run together, r_(1,112) and r_(11,12)
    would both be r1112."""
    sep = "_" if n >= 10 else ""
    return tuple(f"r{i}{sep}{j}" for i, j in pairs)


def quantum_weyl(n):
    """Quantum Weyl algebra on pairs y_i, x_i.

    PBW order is y_1..y_n, x_n..x_1.  The parameters are c and, for
    n > 1, r_ij for i < j, named r{i}{j} below n = 10 and r{i}_{j} from
    n = 10 on.  With r_ji = r_ij^(-1) and r_ii = 1, every weight follows
    one of four rules,

        tau_(y_i)(y_j) = c^[i<=j] r_ji      tau_(y_i)(x_j) = c^-[i<=j] r_ij
        tau_(x_i)(y_j) = r_ij               tau_(x_i)(x_j) = r_ji

    and the scalar of a relation is the weight of its first generator on
    the second one.  The only tails sit on the (y_i, x_i) pairs, in
    normal form: y_i x_i = c^(-1) x_i y_i + c^(n-i) plus the terms
    (c^(a-i-1) - c^(a-i)) y_a x_a over a > i.
    """
    n = _as_exponent(n)
    if n < 1:
        raise FamilyError("quantum_weyl needs at least one pair")
    idx = range(1, n + 1)
    pairs = [(i, j) for i in idx for j in idx if i < j]
    params = ("c",) + _weyl_pair_names(n, pairs)
    # exponents of r_ab after the c slot, with r_ba = r_ab^(-1) and r_aa = 1
    rest = (0,) * len(pairs)
    r = {(a, a): rest for a in idx}
    for k, (a, b) in enumerate(pairs):
        r[a, b] = rest[:k] + (1,) + rest[k + 1:]
        r[b, a] = rest[:k] + (-1,) + rest[k + 1:]
    rules = {
        ("y", "y"): lambda i, j: (int(i <= j),) + r[j, i],
        ("y", "x"): lambda i, j: (-int(i <= j),) + r[i, j],
        ("x", "y"): lambda i, j: (0,) + r[i, j],
        ("x", "x"): lambda i, j: (0,) + r[j, i],
    }
    cells = [("y", i) for i in idx] + [("x", i) for i in reversed(idx)]
    hweights = [[UnitMonomial._make(params, 1, rules[s, t](i, j)) for t, j in cells]
                for s, i in cells]
    total = 2 * n
    qmat = {(a, b): hweights[a][b] for a in range(total) for b in range(a + 1, total)}
    tails = {}
    for i in idx:
        body = {(0,) * total: LaurentPoly._make(params, {(n - i,) + rest: 1})}
        for a in range(n, i, -1):
            key = [0] * total
            key[a - 1] = key[total - a] = 1
            body[tuple(key)] = LaurentPoly._make(
                params, {(a - i - 1,) + rest: 1, (a - i,) + rest: -1})
        tails[i - 1, total - i] = body
    name, gens = ("quantum_weyl", ("y", "x")) if n == 1 else (
        f"quantum_weyl{n}", tuple(f"{s}{i}" for s, i in cells))
    return Presentation(
        name, params, gens, total,
        qmat=qmat, tails=tails, hweights=hweights,
        qskew=[UnitMonomial._make(params, 1, (-int(s == "y"),) + rest) for s, _ in cells],
    )


def rank2(f):
    """The two-generator family x y = q y x + f(q) over the q line."""
    params = ("q",)
    if isinstance(f, LaurentPoly):
        if f.params != params:
            raise FamilyError("f must be a Laurent polynomial in q alone")
    elif isinstance(f, dict):
        f = LaurentPoly(params, {(_as_exponent(e),): v for e, v in f.items()})
    elif isinstance(f, (int, Fraction)):
        f = LaurentPoly.const(params, f)
    else:
        raise FamilyError(f"cannot use {f!r} as the relation constant")
    q = UnitMonomial.var(params, "q")
    tails = {(0, 1): {(0, 0): f}} if not f.is_zero() else {}
    qskew = (q, UnitMonomial.one(params)) if not f.is_zero() else None
    hweights = None
    if not f.is_zero():
        one = UnitMonomial.one(params)
        hweights = [[q.inverse(), q], [one, one]]
    return Presentation(
        "rank2", params, ("x", "y"), 2,
        qmat={(0, 1): q}, tails=tails, qskew=qskew, hweights=hweights,
    )


_FAMILIES = {
    "quantum_plane": quantum_plane,
    "quantum_affine": quantum_affine,
    "quantum_matrices": quantum_matrices,
    "quantum_weyl": quantum_weyl,
    "rank2": rank2,
}


def builtin_presentation(family, *args, **kwargs):
    """Dispatch on a family tag: quantum_plane, quantum_affine,
    quantum_matrices, quantum_weyl or rank2."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise FamilyError(f"unknown family {family!r}") from None
    return builder(*args, **kwargs)
