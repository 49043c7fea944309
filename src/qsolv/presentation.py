"""Presentations of quantum solvable algebras.

A presentation lists ordered generators (polynomial ones first, then
invertible ones), the commutation scalars u in a*b = u*b*a for a
declared before b, the relation tails r for polynomial pairs, the skew
constants q_i, and a table of diagonal weights for the automorphisms
tau_1..tau_n.  Builders for the standard families and the condition
checks (well-formedness, the q-skew identity, torsion-freeness of the
unit group, diagonal stability of all relations) live here too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .errors import FamilyError, PresentationError
from .normalform import NFElement
from .params import (
    Frozen,
    FrozenRecord,
    LaurentPoly,
    UnitMonomial,
    _as_exponent,
    _set_field,
    gamma_torsionfree,
    unit_product,
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _coerce_unit(params, value, where):
    if isinstance(value, UnitMonomial):
        if value.params != params:
            raise PresentationError(f"{where}: unit over foreign parameters")
        return value
    if value == 1:
        return UnitMonomial.one(params)
    if value == -1:
        return UnitMonomial(params, -1, (0,) * len(params))
    raise PresentationError(f"{where}: expected a unit monomial, got {value!r}")


class Presentation(Frozen):
    """Generators, commutation scalars, tails and weight data.

    Immutable; mutating helpers return fresh instances.  Two memo dicts
    are filled in place by the product engine: ``_tailcache`` holds the
    tails in the form its fills read (see normalform._tail_terms), and
    ``_rtable`` the right products M * g_a that nf_mul calls share (see
    normalform._RightTable).  Copies and pickles start them empty.
    ``_tailed_after[a]`` lists the later polynomial letters c whose
    relation with g_a has a tail; every other letter q-commutes with g_a.
    """

    __slots__ = ("name", "params", "gens", "n", "m", "_index", "qmat", "_cu",
                 "tails", "_tailed_after", "qskew", "hweights", "_tailcache", "_rtable")
    _memos = ("_tailcache", "_rtable")

    def __init__(self, name, params, gens, npoly, *, qmat=None, tails=None,
                 qskew=None, hweights=None):
        name, params, gens, n = str(name), tuple(params), tuple(gens), int(npoly)
        if not _NAME_RE.match(name):
            raise PresentationError(f"bad algebra name {name!r}")
        for p in params:
            if not _NAME_RE.match(p):
                raise PresentationError(f"bad parameter name {p!r}")
        if len(set(params)) != len(params):
            raise PresentationError("duplicate parameter names")
        for g in gens:
            if not _NAME_RE.match(g):
                raise PresentationError(f"bad generator name {g!r}")
        if len(set(gens)) != len(gens):
            raise PresentationError("duplicate generator names")
        if set(gens) & set(params):
            raise PresentationError("generator and parameter names overlap")
        if not 0 <= n <= len(gens):
            raise PresentationError("polynomial generator count out of range")
        total = len(gens)

        one = UnitMonomial.one(params)
        stored = {}
        for (a, b), value in (qmat or {}).items():
            a, b = int(a), int(b)
            if not 0 <= a < b < total:
                raise PresentationError(f"commutation pair ({a},{b}) out of order")
            stored[(a, b)] = _coerce_unit(params, value, f"commute {gens[a]} {gens[b]}")
        # dense lookup: cu[a][b] is the scalar in g_a g_b = cu * g_b g_a
        cu = [[one] * total for _ in range(total)]
        for (a, b), u in stored.items():
            cu[a][b] = u
            cu[b][a] = u.inverse()

        clean_tails = {}
        for (i, j), terms in (tails or {}).items():
            i, j = int(i), int(j)
            if not 0 <= i < j < n:
                raise PresentationError(
                    f"tail pair ({i},{j}) must name two polynomial generators in order"
                )
            body = {}
            for key, coef in terms.items():
                key = tuple(map(int, key))
                if len(key) != total:
                    raise PresentationError("tail monomial width mismatch")
                if min(key[:n], default=0) < 0:
                    raise PresentationError("negative exponent in tail monomial")
                if isinstance(coef, UnitMonomial):
                    coef = coef.as_poly()
                elif not isinstance(coef, LaurentPoly):
                    coef = LaurentPoly.const(params, coef)
                elif coef.params != params:
                    raise PresentationError("tail coefficient over foreign parameters")
                if not coef.is_zero():
                    body[key] = body[key] + coef if key in body else coef
            body = {k: c for k, c in body.items() if not c.is_zero()}
            if body:
                clean_tails[(i, j)] = body

        if qskew is None:
            qskew = [one] * n
        qskew = list(qskew)
        if len(qskew) != n:
            raise PresentationError("qskew must list one unit per polynomial generator")
        qskew = tuple(_coerce_unit(params, u, f"qskew {i + 1}") for i, u in enumerate(qskew))

        if hweights is not None and not isinstance(hweights, dict):
            hweights = [list(r) for r in hweights]
            if len(hweights) != n or any(len(r) != total for r in hweights):
                raise PresentationError("weight table shape mismatch")
            rows = [
                [_coerce_unit(params, u, f"weight {i + 1} {gens[j]}")
                 for j, u in enumerate(row)]
                for i, row in enumerate(hweights)
            ]
        else:
            rows = [list(cu[i]) for i in range(n)]
            for i in range(n):
                rows[i][i] = qskew[i].inverse()
            for (i, j), u in (hweights or {}).items():
                i, j = int(i), int(j)
                if not (0 <= i < n and 0 <= j < total):
                    raise PresentationError(f"weight index ({i},{j}) out of range")
                rows[i][j] = _coerce_unit(params, u, f"weight {i + 1} {gens[j]}")
        _set_field(self, "name", name)
        _set_field(self, "params", params)
        _set_field(self, "gens", gens)
        _set_field(self, "n", n)
        _set_field(self, "m", total - n)
        _set_field(self, "_index", {g: pos for pos, g in enumerate(gens)})
        _set_field(self, "qmat", stored)
        _set_field(self, "_cu", cu)
        _set_field(self, "tails", clean_tails)
        _set_field(self, "_tailed_after", tuple(
            tuple(c for c in range(a + 1, n) if (a, c) in clean_tails) for a in range(n)))
        _set_field(self, "qskew", qskew)
        _set_field(self, "hweights", tuple(tuple(r) for r in rows))
        _set_field(self, "_tailcache", {})
        _set_field(self, "_rtable", {})

    # -- lookups ---------------------------------------------------------

    def position(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise PresentationError(f"unknown generator {name!r}") from None

    def commutation_unit(self, a, b):
        """Scalar u with g_a g_b = u * g_b g_a (any order of a, b)."""
        return self._cu[a][b]

    def hweight(self, i, g):
        return self.hweights[i][g]

    def key_weight(self, i, key):
        """Eigenvalue of tau_i on the PBW monomial with this exponent key."""
        return self.sparse_weight(i, [(g, e) for g, e in enumerate(key) if e])

    def sparse_weight(self, i, terms):
        """Eigenvalue of tau_i on the exponent vector given by its nonzero
        (generator, exponent) entries; exponents may be negative."""
        row = self.hweights[i]
        return unit_product(((row[g], e) for g, e in terms), self.params)

    # -- element constructors ---------------------------------------------

    def element(self, terms):
        return NFElement(self, terms)

    def zero(self):
        return NFElement(self, {})

    def one(self):
        return NFElement(self, {(0,) * len(self.gens): Fraction(1)})

    def scalar(self, value):
        return NFElement(self, {(0,) * len(self.gens): value})

    def monomial(self, key, coef=1):
        return NFElement(self, {tuple(key): coef})

    def gen(self, pos):
        return self.gen_power(pos, 1)

    def generator(self, name):
        return self.gen(self.position(name))

    def gen_power(self, pos, power):
        if not 0 <= pos < len(self.gens):
            raise PresentationError(
                f"generator position {pos} is outside 0..{len(self.gens) - 1}"
            )
        power = _as_exponent(power)
        if power < 0 and pos < self.n:
            raise PresentationError(
                f"{self.gens[pos]} is a polynomial generator; negative powers need localization"
            )
        key = [0] * len(self.gens)
        key[pos] = power
        return NFElement(self, {tuple(key): Fraction(1)})

    def tail_element(self, i, j):
        return NFElement(self, self.tails.get((i, j), {}))

    @property
    def has_tails(self):
        return bool(self.tails)

    # -- derived presentations --------------------------------------------

    def replace_tail(self, i, j, terms):
        """New presentation with the (i, j) tail swapped out; used for
        mutation tests and never validated here."""
        tails = {k: dict(v) for k, v in self.tails.items()}
        if terms:
            tails[(i, j)] = dict(terms)
        else:
            tails.pop((i, j), None)
        return Presentation(
            self.name, self.params, self.gens, self.n,
            qmat=self.qmat, tails=tails, qskew=self.qskew, hweights=self.hweights,
        )

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.params == other.params
            and self.gens == other.gens
            and self.n == other.n
            and self._cu == other._cu
            and self.tails == other.tails
            and self.qskew == other.qskew
            and self.hweights == other.hweights
        )

    __hash__ = None

    def __repr__(self):
        kinds = f"{self.n} polynomial, {self.m} invertible"
        return f"Presentation({self.name}: {kinds}, params {', '.join(self.params) or '-'})"


# -- validation -----------------------------------------------------------


class Finding(FrozenRecord):
    _fields = ("condition", "location", "message", "severity")

    def __init__(self, condition, location, message, severity="error"):
        # condition is WF, Q1, Q2 or Q3
        self._init(condition, location, message, severity)


class ValidationReport(FrozenRecord):
    _fields = ("passed", "findings")

    def __init__(self, passed, findings):
        self._init(passed, findings)


def relation_findings(p, value, tails):
    """WF, Q1 and Q3 findings of the relations with these tails.

    ``value`` maps a unit monomial to what gets compared: the identity
    for the symbolic checks, evaluation at a target after
    specialization.  It must be multiplicative, as both are, since each
    check compares the value of a quotient of units with value(1).
    ``tails`` maps a generator pair to the monomial keys
    of its tail (any mapping keyed by exponent keys).  WF covers tail
    placement and the forced weight entries; Q1 and Q3 run only when it
    holds.
    """
    findings = []
    tails = sorted(tails.items())
    for (i, j), body in tails:
        for key in sorted(body):
            bad = [p.gens[g] for g in range(i + 1) if key[g]]
            if bad:
                findings.append(Finding(
                    "WF", f"tail {p.gens[i]} {p.gens[j]}",
                    f"monomial uses {', '.join(bad)}, not after {p.gens[i]}",
                ))
    for i in range(p.n):
        for j in range(i + 1, len(p.gens)):
            if value(p.hweight(i, j)) != value(p.commutation_unit(i, j)):
                findings.append(Finding(
                    "WF", f"weight {i + 1} {p.gens[j]}",
                    "weight disagrees with the commutation scalar of the relation",
                ))
    if findings:
        return findings

    # tau_h multiplies the relation x_i x_j = u x_j x_i + tail by
    # w_h(e_i + e_j), so each tail key K is tested through its weight
    # difference D = K - e_i - e_j: Q3 asks w_h(D) = 1 for every h, and Q1
    # asks w_i(K) = qskew_i^-1 w_i(e_j), that is w_i(D) = (qskew_i w_i(e_i))^-1.
    # A D whose weights are all 1 takes value(1) without a unit being built.
    def difference(key, i, j):
        d = list(key)
        d[i] -= 1
        d[j] -= 1
        return tuple((g, e) for g, e in enumerate(d) if e)

    diffs = {(i, j): [difference(key, i, j) for key in body] for (i, j), body in tails}
    trivial = _trivial_weights(p, {d for ds in diffs.values() for d in ds})
    one = value(UnitMonomial.one(p.params))

    def differs(h, pair, target):
        return any(
            (one if trivial[d] else value(p.sparse_weight(h, d))) != target
            for d in diffs[pair]
        )

    for (i, j), _ in tails:
        if differs(i, (i, j), value((p.qskew[i] * p.hweight(i, i)).inverse())):
            findings.append(Finding(
                "Q1", f"tail {p.gens[i]} {p.gens[j]}",
                "tail is not a tau eigenvector with eigenvalue "
                f"{p.qskew[i].inverse()}*{p.hweight(i, j)}",
            ))
    # a pair whose differences all have weight 1 passes Q3 for every h
    moving = [pair for pair, ds in diffs.items() if not all(map(trivial.get, ds))]
    for h in range(p.n):
        for i, j in moving:
            if differs(h, (i, j), one):
                findings.append(Finding(
                    "Q3", f"tau {h + 1} on tail {p.gens[i]} {p.gens[j]}",
                    "relation is not stable under the diagonal action",
                ))
    return findings


def _trivial_weights(p, vectors):
    """Whether tau_1..tau_n all have eigenvalue 1 on each sparse exponent
    vector, a tuple of (generator, exponent) pairs.

    Column g of the weight table, the exponent vectors of tau_1..tau_n on
    x_g end to end, is packed into one integer (Monagan and Pearce's
    packed exponent vectors).  The digits are wide enough for every sum
    formed here, so a combination of columns is zero exactly when all of
    its digits are, and the test costs a few big-integer operations.
    """
    entries = {
        g: [(h, ell, e) for h, row in enumerate(p.hweights)
            for ell, e in enumerate(row[g].exps) if e]
        for g in {g for d in vectors for g, _ in d}
    }
    width = 1 + (
        max((abs(e) for es in entries.values() for *_, e in es), default=0)
        * max((sum(abs(e) for _, e in d) for d in vectors), default=0)
    ).bit_length()
    shift = width * len(p.params)
    cols = {g: sum(e << (h * shift + width * ell) for h, ell, e in es)
            for g, es in entries.items()}
    signs = {g: sum(1 << h for h, row in enumerate(p.hweights) if row[g].sign < 0)
             for g in entries}
    out = {}
    for d in vectors:
        mask = 0
        for g, e in d:
            if e % 2:
                mask ^= signs[g]
        out[d] = not mask and not sum(e * cols[g] for g, e in d)
    return out


def scalar_units(p):
    """The units that generate the group Q2 asks about: commutation
    scalars, skew constants and the weight table."""
    units = list(p.qmat.values()) + list(p.qskew)
    for row in p.hweights:
        units.extend(row)
    return units


def validate_presentation(p):
    """Check the solvable shape and the three symbolic conditions.

    Findings are collected rather than raised: WF covers tail placement
    and the forced weight entries, Q1 the per-pair q-skew identity in
    eigenvector form, Q2 torsion-freeness of the generated unit group,
    Q3 diagonal stability of every tail.
    """
    findings = relation_findings(p, lambda u: u, p.tails)
    units = scalar_units(p)
    if not gamma_torsionfree(units):
        findings.append(Finding(
            "Q2", "unit group",
            "the group generated by the commutation data has 2-torsion",
        ))
    elif any(u.sign < 0 for u in units):
        findings.append(Finding(
            "Q2", "unit group",
            "negative unit scalars present; torsion-free generically but "
            "fragile under specialization",
            severity="note",
        ))

    passed = not any(f.severity == "error" for f in findings)
    return ValidationReport(passed, tuple(findings))


# -- builders --------------------------------------------------------------


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
    n = int(n)
    if n < 1:
        raise FamilyError("quantum_affine needs at least one generator")
    if exponents is None:
        exponents = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                exponents[i][j] = 1
                exponents[j][i] = -1
    exponents = [[int(v) for v in row] for row in exponents]
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
    n = int(n)
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
    n = int(n)
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
        f = LaurentPoly(params, {(int(e),): Fraction(v) for e, v in f.items()})
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
