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

from .errors import FamilyError, PresentationError
from .normalform import NFElement
from .params import (
    FrozenRecord,
    LaurentPoly,
    UnitMonomial,
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


class Presentation:
    """Generators, commutation scalars, tails and weight data.

    Treated as immutable; mutating helpers return fresh instances.
    """

    def __init__(self, name, params, gens, npoly, *, qmat=None, tails=None,
                 qskew=None, hweights=None):
        self.name = str(name)
        self.params = tuple(params)
        self.gens = tuple(gens)
        self.n = int(npoly)
        self.m = len(self.gens) - self.n
        if not _NAME_RE.match(self.name):
            raise PresentationError(f"bad algebra name {self.name!r}")
        for p in self.params:
            if not _NAME_RE.match(p):
                raise PresentationError(f"bad parameter name {p!r}")
        if len(set(self.params)) != len(self.params):
            raise PresentationError("duplicate parameter names")
        for g in self.gens:
            if not _NAME_RE.match(g):
                raise PresentationError(f"bad generator name {g!r}")
        if len(set(self.gens)) != len(self.gens):
            raise PresentationError("duplicate generator names")
        if set(self.gens) & set(self.params):
            raise PresentationError("generator and parameter names overlap")
        if not 0 <= self.n <= len(self.gens):
            raise PresentationError("polynomial generator count out of range")
        total = len(self.gens)
        self._index = {g: pos for pos, g in enumerate(self.gens)}

        one = UnitMonomial.one(self.params)
        stored = {}
        for (a, b), value in (qmat or {}).items():
            a, b = int(a), int(b)
            if not 0 <= a < b < total:
                raise PresentationError(f"commutation pair ({a},{b}) out of order")
            stored[(a, b)] = _coerce_unit(self.params, value,
                                          f"commute {self.gens[a]} {self.gens[b]}")
        self.qmat = stored
        # dense lookup: cu[a][b] is the scalar in g_a g_b = cu * g_b g_a
        cu = [[one] * total for _ in range(total)]
        for (a, b), u in stored.items():
            cu[a][b] = u
            cu[b][a] = u.inverse()
        self._cu = cu

        clean_tails = {}
        for (i, j), terms in (tails or {}).items():
            i, j = int(i), int(j)
            if not 0 <= i < j < self.n:
                raise PresentationError(
                    f"tail pair ({i},{j}) must name two polynomial generators in order"
                )
            body = {}
            for key, coef in terms.items():
                key = tuple(int(v) for v in key)
                if len(key) != total:
                    raise PresentationError("tail monomial width mismatch")
                if any(v < 0 for v in key[: self.n]):
                    raise PresentationError("negative exponent in tail monomial")
                if isinstance(coef, UnitMonomial):
                    coef = coef.as_poly()
                elif not isinstance(coef, LaurentPoly):
                    coef = LaurentPoly.const(self.params, coef)
                elif coef.params != self.params:
                    raise PresentationError("tail coefficient over foreign parameters")
                if not coef.is_zero():
                    body[key] = body[key] + coef if key in body else coef
            body = {k: c for k, c in body.items() if not c.is_zero()}
            if body:
                clean_tails[(i, j)] = body
        self.tails = clean_tails

        if qskew is None:
            qskew = [one] * self.n
        qskew = list(qskew)
        if len(qskew) != self.n:
            raise PresentationError("qskew must list one unit per polynomial generator")
        self.qskew = tuple(
            _coerce_unit(self.params, u, f"qskew {i + 1}") for i, u in enumerate(qskew)
        )

        rows = [[self._cu[i][j] for j in range(total)] for i in range(self.n)]
        for i in range(self.n):
            rows[i][i] = self.qskew[i].inverse()
        if hweights is not None:
            if isinstance(hweights, dict):
                for (i, j), u in hweights.items():
                    i, j = int(i), int(j)
                    if not (0 <= i < self.n and 0 <= j < total):
                        raise PresentationError(f"weight index ({i},{j}) out of range")
                    rows[i][j] = _coerce_unit(self.params, u, f"weight {i + 1} {self.gens[j]}")
            else:
                hweights = [list(r) for r in hweights]
                if len(hweights) != self.n or any(len(r) != total for r in hweights):
                    raise PresentationError("weight table shape mismatch")
                rows = [
                    [_coerce_unit(self.params, u, f"weight {i + 1} {self.gens[j]}")
                     for j, u in enumerate(row)]
                    for i, row in enumerate(hweights)
                ]
        self.hweights = tuple(tuple(r) for r in rows)

        self._tailcache = {}

    # -- lookups ---------------------------------------------------------

    def position(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise PresentationError(f"unknown generator {name!r}") from None

    def commutation_unit(self, a, b):
        """Scalar u with g_a g_b = u * g_b g_a (any order of a, b)."""
        return self._cu[a][b]

    def tail_terms(self, i, j):
        """Tail of the (i, j) relation in engine form: a tuple of
        (coefficient, ascending generator word, invertible exponents)."""
        cached = self._tailcache.get((i, j))
        if cached is None:
            items = []
            for key, coef in self.tails.get((i, j), {}).items():
                word = []
                for pos in range(self.n):
                    word.extend([pos] * key[pos])
                items.append((coef, tuple(word), key[self.n:]))
            cached = tuple(items)
            self._tailcache[(i, j)] = cached
        return cached

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
        key = [0] * len(self.gens)
        key[pos] = 1
        return NFElement(self, {tuple(key): Fraction(1)})

    def generator(self, name):
        return self.gen(self.position(name))

    def gen_power(self, pos, power):
        power = int(power)
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
        (i, j): UnitMonomial(params, 1, (exponents[i][j],))
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
    """
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
    return Presentation(
        f"quantum_matrices{n}", params, gens, total,
        qmat=qmat, tails=tails, qskew=qskew, hweights=hweights,
    )


def quantum_weyl(n):
    """Quantum Weyl algebra on pairs y_i, x_i.

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

    def r(a, b):
        if a < b:
            return unit(**{f"r{a}{b}": 1})
        return unit(**{f"r{b}{a}": -1})

    def p(a, b):
        # p_ab = c * r_ab^(-1) for a < b, and p_ba = p_ab^(-1)
        if a < b:
            return unit(c=1) * r(a, b).inverse()
        return unit(c=-1) * r(b, a)

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
                qmat[(ypos(i), xpos(j))] = r(j, i).inverse()
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
                row[xpos(j)] = r(j, i).inverse()
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
                row[xpos(a)] = r(a, j) if a < j else r(j, a).inverse()
                row[ypos(a)] = row[xpos(a)].inverse()

    name = "quantum_weyl" if n == 1 else f"quantum_weyl{n}"
    return Presentation(
        name, params, gens, total,
        qmat=qmat, tails=tails, qskew=qskew, hweights=hweights,
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
