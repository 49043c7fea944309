"""Presentations of quantum solvable algebras.

A presentation lists ordered generators (polynomial ones first, then
invertible ones), the commutation scalars u in a*b = u*b*a for a
declared before b, the relation tails r for polynomial pairs, the skew
constants q_i, and a table of diagonal weights for the automorphisms
tau_1..tau_n.  The condition checks (well-formedness, the q-skew
identity, torsion-freeness of the unit group, diagonal stability of all
relations) live here too.  The builders of the standard families are in
``qsolv.families``; their names still resolve here, on first use.

Parsing and validating a presentation multiplies nothing, so the product
engine (``qsolv.normalform``) is loaded only when an element is first
built.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import PresentationError
from .params import (
    Frozen,
    FrozenRecord,
    LaurentPoly,
    UnitMonomial,
    _as_exponent,
    _as_exponents,
    _set_field,
    gamma_torsionfree,
    unit_product,
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# The builders of qsolv.families, still importable from this module.
_FAMILY_NAMES = frozenset((
    "quantum_plane", "quantum_affine", "quantum_matrices", "_weyl_pair_names",
    "quantum_weyl", "rank2", "_FAMILIES", "builtin_presentation",
))


def __getattr__(name):
    if name in _FAMILY_NAMES:
        from . import families

        return getattr(families, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _element(pres, terms):
    """NFElement(pres, terms).  The first call loads the product engine
    and rebinds this name to the class itself, so that later calls cost
    what a direct call does."""
    _load_engine()
    return _element(pres, terms)


def _made(pres, terms):
    """NFElement._make(pres, terms), for terms already clean; loaded as
    _element is."""
    _load_engine()
    return _made(pres, terms)


def _load_engine():
    global _element, _made
    from .normalform import NFElement

    _element, _made = NFElement, NFElement._make


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

    Immutable; mutating helpers return fresh instances.  ``_engine`` holds
    the product engine (normalform._Engine) from the first product on;
    copies and pickles start without it, and equality ignores it.
    ``_tailed_after[a]`` lists the later polynomial letters c whose
    relation with g_a has a tail; every other letter q-commutes with g_a.
    """

    __slots__ = ("name", "params", "gens", "n", "m", "_index", "qmat", "_cu",
                 "tails", "_tailed_after", "qskew", "hweights", "_engine")
    _memos = ("_engine",)

    def __init__(self, name, params, gens, npoly, *, qmat=None, tails=None,
                 qskew=None, hweights=None):
        name, params, gens, n = str(name), tuple(params), tuple(gens), _as_exponent(npoly)
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
            a, b = _as_exponents((a, b))
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
            i, j = _as_exponents((i, j))
            if not 0 <= i < j < n:
                raise PresentationError(
                    f"tail pair ({i},{j}) must name two polynomial generators in order"
                )
            body = {}
            for key, coef in terms.items():
                key = _as_exponents(key)
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
                i, j = _as_exponents((i, j))
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
        _set_field(self, "_engine", None)

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
        return _element(self, terms)

    def zero(self):
        return _element(self, {})

    def one(self):
        return _element(self, {(0,) * len(self.gens): Fraction(1)})

    def scalar(self, value):
        return _element(self, {(0,) * len(self.gens): value})

    def monomial(self, key, coef=1):
        return _element(self, {tuple(key): coef})

    def gen(self, pos):
        return self.gen_power(pos, 1)

    def generator(self, name):
        return self.gen(self.position(name))

    def gen_power(self, pos, power):
        pos = _as_exponent(pos)
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
        return _made(self, {tuple(key): LaurentPoly.one(self.params)})

    def tail_element(self, i, j):
        return _element(self, self.tails.get((i, j), {}))

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
