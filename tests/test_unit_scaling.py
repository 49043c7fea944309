"""Units multiplied as exponent shifts, and Gaussian binomials built
entry by entry, against the helpers kept in reference_scalars.py.

Count gates pin the work of a fixed set of products and of one large
binomial; the binomials must equal the q-Pascal triangle.  The drawn
properties of ``times_unit`` and sigma are in test_unit_oracle.py.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from qsolv import (
    FracElem,
    LaurentPoly,
    UnitMonomial,
    densepoly,
    nf_mul,
    q_binomial,
    q_integer,
    quantum_matrices,
    quantum_weyl,
)
from qsolv.normalform import q_binomial_at_unit

from reference_scalars import reference_q_binomial_at_unit, reference_q_pascal, reference_scale
from test_mul_table import _random_element


def assert_same_poly(got, want):
    """Equal params and terms, and the same type for every coefficient."""
    assert got.params == want.params
    assert got.terms == want.terms
    assert [type(got.terms[e]) for e in want.terms] == [type(c) for c in want.terms.values()]


def assert_same_coefficient(got, want):
    assert type(got) is type(want)
    if isinstance(want, FracElem):
        assert_same_poly(got.num, want.num)
        assert_same_poly(got.den, want.den)
    else:
        assert_same_poly(got, want)


def test_times_unit_keeps_the_denominator():
    q = LaurentPoly.var(("q", "r"), "q")
    den = q + 1
    frac = FracElem(q * q + Fraction(1, 3), den)
    assert frac.den == den
    for unit in (UnitMonomial(("q", "r"), -1, (2, -1)), UnitMonomial.one(("q", "r"))):
        assert_same_coefficient(frac.times_unit(unit), reference_scale(frac, unit))
    with pytest.raises(ValueError, match="parameter tuples differ"):
        q.times_unit(UnitMonomial.var(("q",), "q"))


# -- the count gates ----------------------------------------------------------


def record_counts(monkeypatch):
    """A Counter of LaurentPoly.__mul__ calls and UnitMonomial
    constructions, through the checking and the trusted constructor,
    from now on."""
    counts = Counter()
    mul, init = LaurentPoly.__mul__, UnitMonomial.__init__
    make = UnitMonomial.__dict__["_make"].__func__

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_init(self, *args):
        counts["units"] += 1
        init(self, *args)

    def counted_make(cls, *args):
        counts["units"] += 1
        return make(cls, *args)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted_mul)
    monkeypatch.setattr(UnitMonomial, "__init__", counted_init)
    monkeypatch.setattr(UnitMonomial, "_make", classmethod(counted_make))
    return counts


def test_matrices3_generator_products_count(monkeypatch):
    # the 81 products g_a * g_b of quantum_matrices(3) on an empty table;
    # 135 products and 27 units when every unit was multiplied as a
    # one-term polynomial and every sigma built a unit of its own
    p = quantum_matrices(3)
    gens = [p.gen(a) for a in range(p.n)]
    counts = record_counts(monkeypatch)
    for a, b in itertools.product(gens, repeat=2):
        nf_mul(a, b)
    assert (counts["mul"], counts["units"]) == (108, 0)


def test_weyl2_triples_count(monkeypatch):
    # both bracketings of 40 seeded triples on empty tables; 2,563
    # products and 505 units as above, 226 units when every call found
    # sigma afresh instead of reading it from the pair table, 2,123
    # products and 193 units when a pair that crosses a tail walked the
    # right products on every call instead of keeping its product, and
    # 2,125 products and 176 units when each such product was built from
    # the pair's left monomial instead of its longest stored prefix
    p = quantum_weyl(2)
    rng = random.Random(23)
    triples = [tuple(_random_element(p, rng) for _ in range(3)) for _ in range(40)]
    counts = record_counts(monkeypatch)
    for a, b, c in triples:
        nf_mul(nf_mul(a, b), c)
        nf_mul(a, nf_mul(b, c))
    assert (counts["mul"], counts["units"]) == (1973, 147)


# -- Gaussian binomials -------------------------------------------------------


def test_q_binomials_match_the_pascal_triangle():
    u = UnitMonomial(("c", "r"), -1, (2, -1))
    for n, row in enumerate(reference_q_pascal(30)):
        for i, entry in enumerate(row):
            assert_same_poly(q_binomial(n, i), entry)
            if n <= 12:
                assert_same_poly(q_binomial_at_unit(n, i, u),
                                 reference_q_binomial_at_unit(n, i, u))


def test_q_binomials_at_one_are_the_binomials():
    # every entry up to n = 30 is checked above; here the two ends of each
    # row up to n = 200
    for n in range(201):
        for i in {0, 1, 2, n - 2, n - 1, n}:
            if 0 <= i <= n:
                assert sum(q_binomial(n, i).terms.values()) == math.comb(n, i)


class TooMuchWork(Exception):
    pass


def test_q_binomial_builds_one_entry(monkeypatch):
    # [2000 choose 1] is the q-integer; the q-Pascal triangle would build
    # about two million polynomials, so the counter stops it at the 20th.
    # Each division by 1 - q^k is an integer recurrence, not densepoly's
    built, divisions = [], []
    make, init, divmod_ = LaurentPoly._make.__func__, LaurentPoly.__init__, densepoly.divmod

    def count(what):
        built.append(what)
        if len(built) > 20:
            raise TooMuchWork(what)

    monkeypatch.setattr(LaurentPoly, "_make",
                        classmethod(lambda cls, *args: count("_make") or make(cls, *args)))
    monkeypatch.setattr(LaurentPoly, "__init__",
                        lambda self, *args: count("__init__") or init(self, *args))
    monkeypatch.setattr(densepoly, "divmod",
                        lambda a, b: divisions.append(len(b)) or divmod_(a, b))
    value = q_binomial(2000, 1)
    assert divisions == [] and len(built) == 1
    monkeypatch.undo()
    assert value == q_integer(2000)


def test_q_binomial_at_unit_is_one_pass(monkeypatch):
    # one one-term power of the unit per coefficient, and no sum, where
    # the parent added one term at a time after building the triangle
    u = UnitMonomial(("c",), -1, (-3,))

    def no_sum(self, other):
        raise TooMuchWork("LaurentPoly sum")

    monkeypatch.setattr(LaurentPoly, "__add__", no_sum)
    value = q_binomial_at_unit(2000, 1, u)
    monkeypatch.undo()
    assert value == LaurentPoly(("c",), {(-3 * k,): (-1) ** k for k in range(2000)})
