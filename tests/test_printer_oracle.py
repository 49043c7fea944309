"""The printed forms of coefficients, units, normal forms and
presentation files, against the former printers in reference_printer.py.

Values are drawn from a seeded generator: Laurent polynomials in zero to
three parameters with negative exponents and coefficients +-1, +-1/2 and
others, units of both signs, and normal forms whose coefficients are
Laurent polynomials or fractions, on the constant monomial and on
others.  Every family and every data file is printed as a file.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from qsolv import (
    FracElem,
    LaurentPoly,
    NFElement,
    UnitMonomial,
    quantum_affine,
    quantum_matrices,
    quantum_weyl,
    rank2,
)
from qsolv.cli import parse_presentation, print_presentation

import reference_printer as ref

DATA = Path(__file__).parent / "data"
NAMES = ("q", "r", "s")
COEFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(5, 3),
         Fraction(-7, 4))

# x is a polynomial generator and y, z are Laurent ones, so normal forms
# carry negative exponents too
MIXED_SRC = """\
algebra mixed
params q, r
gens x poly, y laurent, z laurent
commute x y : q
commute y z : r^-1
"""


def random_poly(rng, params, max_terms=4):
    terms = {
        tuple(rng.randint(-3, 3) for _ in params): rng.choice(COEFS)
        for _ in range(rng.randint(0, max_terms))
    }
    return LaurentPoly(params, terms)


def special_polys(width):
    params = NAMES[:width]
    yield LaurentPoly.zero(params)
    for c in COEFS:
        yield LaurentPoly.const(params, c)
    for name in params:
        for e in (-2, -1, 1, 3):
            for c in COEFS:
                yield LaurentPoly.var(params, name, e) * c


@pytest.mark.parametrize("width", range(4))
def test_laurent_poly(width):
    rng = random.Random(width)
    polys = [*special_polys(width), *(random_poly(rng, NAMES[:width]) for _ in range(300))]
    for poly in polys:
        assert str(poly) == ref.laurent_str(poly)


@pytest.mark.parametrize("width", range(4))
def test_unit_monomial(width):
    params = NAMES[:width]
    rng = random.Random(10 + width)
    units = [UnitMonomial(params, sign, (0,) * width) for sign in (1, -1)]
    units += [
        UnitMonomial(params, rng.choice((1, -1)),
                     tuple(rng.randint(-3, 3) for _ in range(width)))
        for _ in range(200)
    ]
    for unit in units:
        assert str(unit) == ref.unit_str(unit)
        assert str(unit.as_poly()) == ref.unit_str(unit)


def random_coef(rng, params):
    """A LaurentPoly over params, or a FracElem whose denominator is
    often not 1."""
    num = random_poly(rng, params, 3)
    if rng.random() < 0.5:
        return num
    den = random_poly(rng, params, 2)
    if den.is_zero():
        den = LaurentPoly.one(num.params)
    return FracElem(num, den)


def check_elements(pres, rng, count):
    width = pres.n + pres.m
    constant = (0,) * width
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            key = tuple(
                rng.randint(0, 2) if pos < pres.n else rng.randint(-2, 2)
                for pos in range(width)
            )
            terms[key] = random_coef(rng, pres.params)
        if rng.random() < 0.5:
            terms[constant] = random_coef(rng, pres.params)
        element = NFElement(pres, terms)
        assert str(element) == ref.nf_str(element)


def test_nf_element_random():
    rng = random.Random(20)
    check_elements(parse_presentation(MIXED_SRC), rng, 400)
    check_elements(quantum_weyl(2), rng, 200)


def test_nf_element_coefficient_shapes():
    """Each bracketing case of a coefficient, on the constant monomial
    and on a monomial that is not constant."""
    pres = parse_presentation(MIXED_SRC)
    params = pres.params
    q = LaurentPoly.var(params, "q")
    r = LaurentPoly.var(params, "r", -1)
    one = LaurentPoly.one(params)
    coefs = [
        one, -one, q, -q, q * Fraction(1, 2), q - 5 + 6 * r, -q - r,
        FracElem(q), FracElem(-one), FracElem(q + r), FracElem(-q, q + 1),
        FracElem(q - r, q * r - 2), FracElem(one, q + 1),
    ]
    for key in ((0, 0, 0), (1, 0, 0), (0, -1, 0), (2, 1, -3)):
        for coef in coefs:
            element = NFElement(pres, {key: coef})
            assert str(element) == ref.nf_str(element)
            for other in coefs:
                both = NFElement(pres, {key: coef, (1, 1, 1): other})
                assert str(both) == ref.nf_str(both)


FAMILIES = [
    *(quantum_matrices(n) for n in range(2, 9)),
    *(quantum_weyl(n) for n in range(1, 4)),
    *(quantum_affine(n) for n in range(2, 7)),
    rank2(0),
    rank2(1),
    rank2(Fraction(-1, 2)),
    rank2({2: 1, 1: -5, 0: 6}),
    rank2({1: Fraction(1, 3), -1: -1, -2: Fraction(-3, 2)}),
]


@pytest.mark.parametrize("p", FAMILIES, ids=lambda p: f"{p.name}-{len(p.gens)}")
def test_print_presentation_families(p):
    assert print_presentation(p) == ref.print_presentation(p)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.alg")), ids=lambda p: p.stem)
def test_print_presentation_data_files(path):
    p = parse_presentation(path.read_text())
    assert print_presentation(p) == ref.print_presentation(p)
