"""The int-first LaurentPoly kernel and the trusted constructors, against
the Fraction-only schoolbook arithmetic in reference_laurent.py.

Ring laws run over one to three parameters, with negative exponents,
fractional coefficients and sums built to cancel, and the field laws of
FracElem over one or two.  Every result that an
internal ``_make`` built must be what the validating constructor makes
of it, for LaurentPoly and for NFElement: products and sums, generator
powers, the right division of a localized element, tau and the weight
components.
"""

import random
from fractions import Fraction

import pytest

from qsolv import (
    FracElem,
    LaurentPoly,
    LocElement,
    NFElement,
    nf_mul,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    tau_apply,
    weight_components,
)

import reference_laurent as ref

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NAMES = ("q", "r", "s")
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def exponents(width):
    return st.tuples(*[st.integers(-3, 3)] * width)


def term_maps(width, max_terms=5):
    return st.dictionaries(exponents(width), coefficients, max_size=max_terms)


@st.composite
def polys(draw, width, max_terms=5):
    return LaurentPoly(NAMES[:width], draw(term_maps(width, max_terms)))


@st.composite
def triples(draw):
    """Three polynomials over one parameter tuple; the second often
    cancels part of the first, so that sums drop terms."""
    width = draw(st.integers(1, 3))
    a, b, c = (draw(polys(width)) for _ in range(3))
    if draw(st.booleans()):
        kept = draw(st.sets(st.sampled_from(sorted(a.terms) or [(0,) * width])))
        b = b - LaurentPoly(a.params, {e: a.terms[e] for e in kept if e in a.terms})
    return a, b, c


def assert_clean(poly):
    """poly is exactly what the validating constructor makes of it."""
    width = len(poly.params)
    assert type(poly.params) is tuple
    for exps, coef in poly.terms.items():
        assert type(exps) is tuple and len(exps) == width
        assert all(type(e) is int for e in exps)
        assert type(coef) in (int, Fraction) and coef != 0
    again = LaurentPoly(poly.params, poly.terms)
    assert again.params == poly.params and again.terms == poly.terms


def assert_int_first(poly, *inputs):
    """Integer inputs give integer coefficients."""
    if all(type(c) is int for p in inputs for c in p.terms.values()):
        assert all(type(c) is int for c in poly.terms.values())


@SETTINGS
@given(triples())
def test_add_and_mul_match_the_fraction_oracle(abc):
    a, b, c = abc
    minus_one = {(0,) * len(a.params): -1}
    minus_b = ref.mul(b.terms, minus_one)
    for got, want, inputs in [
        (a + b, ref.add(a.terms, b.terms), (a, b)),
        (a - b, ref.add(a.terms, minus_b), (a, b)),
        (-a, ref.mul(a.terms, minus_one), (a,)),
        (a * b, ref.mul(a.terms, b.terms), (a, b)),
        (a * c, ref.mul(a.terms, c.terms), (a, c)),
        # the cross terms cancel in the product
        ((a + b) * (a - b),
         ref.mul(ref.add(a.terms, b.terms), ref.add(a.terms, minus_b)), (a, b)),
    ]:
        assert got.terms == want
        assert_clean(got)
        assert_int_first(got, *inputs)


@SETTINGS
@given(triples())
def test_ring_laws(abc):
    a, b, c = abc
    zero, one = LaurentPoly.zero(a.params), LaurentPoly.one(a.params)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and a + (-a) == zero
    assert (-one) * a == -a


@SETTINGS
@given(triples())
def test_try_div_matches_the_fraction_oracle(abc):
    a, b, _ = abc
    width = len(a.params)
    if b:
        got = a.try_div(b)
        want = ref.try_div(a.terms, b.terms, width)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.terms == want
            assert_clean(got)
        product = a * b
        assert product.try_div(b) == a
        assert product.try_div(b).terms == ref.try_div(product.terms, b.terms, width)
        assert_clean(product.try_div(b))


@SETTINGS
@given(polys(2, max_terms=4))
def test_content_and_fraction_elements_stay_clean(a):
    if a:
        ratio, exps = a.content()
        assert type(ratio) is Fraction
        prim = a.divide_content(ratio, exps)
        assert_clean(prim)
        assert all(type(c) is int for c in prim.terms.values())
        x = FracElem(a, prim + 1) if prim + 1 else FracElem(a)
        assert_clean(x.num)
        assert_clean(x.den)


@st.composite
def frac_triples(draw):
    """Three fractions over one or two parameters; a zero denominator
    drawn is replaced by one."""
    width = draw(st.integers(1, 2))
    out = []
    for _ in range(3):
        num, den = draw(polys(width, max_terms=3)), draw(polys(width, max_terms=3))
        out.append(FracElem(num, den) if den else FracElem(num))
    return out


@SETTINGS
@given(frac_triples())
def test_frac_field_laws(abc):
    a, b, c = abc
    one = FracElem(LaurentPoly.one(a.params))
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == one
        assert (b / a) * a == b


# -- NFElement._make --------------------------------------------------------

FAMILIES = [quantum_plane(), quantum_weyl(1), quantum_weyl(2),
            quantum_matrices(2), quantum_affine(3)]


def _random_element(p, rng):
    width = p.n + p.m
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = [0] * width
        for _ in range(rng.randint(0, 3)):
            key[rng.randrange(width)] += 1
        coef = LaurentPoly(p.params, {
            tuple(rng.randint(-1, 1) for _ in p.params):
                rng.choice([-2, -1, 1, Fraction(1, 2), 3])
        })
        if rng.random() < 0.2:
            coef = FracElem(coef, LaurentPoly.var(p.params, p.params[0]) + 1)
        terms[tuple(key)] = coef
    return NFElement(p, terms)


def assert_clean_element(elem):
    p = elem.pres
    for key, coef in elem.terms.items():
        assert type(key) is tuple and len(key) == p.n + p.m
        assert all(type(v) is int for v in key)
        assert all(v >= 0 for v in key[:p.n])
        assert isinstance(coef, (LaurentPoly, FracElem)) and not coef.is_zero()
        if isinstance(coef, LaurentPoly):
            assert_clean(coef)
    again = NFElement(p, elem.terms)
    assert again.terms == elem.terms


@SETTINGS
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32))
def test_nf_results_are_clean(p, seed):
    rng = random.Random(seed)
    a, b = _random_element(p, rng), _random_element(p, rng)
    results = [nf_mul(a, b), a + b, a - a, a + (-b), -a, p.gen_power(0, 2),
               LocElement(p, 0, nf_mul(a, p.gen(0)), 1).num]
    results += [tau_apply(p, i, a, -1) for i in range(p.n)]
    results += [part for _, part in weight_components(a)]
    for result in results:
        assert_clean_element(result)
