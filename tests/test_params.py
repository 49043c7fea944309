"""Exact Laurent-polynomial and unit-monomial arithmetic."""

from fractions import Fraction

import pytest

from qsolv import (
    FracElem,
    LaurentPoly,
    QsolvError,
    UnitMonomial,
    as_field_element,
    gamma_torsionfree,
    unit_product,
)

P = ("q",)
P2 = ("c", "r")


def q():
    return LaurentPoly.var(P, "q")


def test_constructors_and_predicates():
    assert LaurentPoly.one(P).is_one()
    assert LaurentPoly.zero(P).is_zero()
    assert not q().is_one()
    assert LaurentPoly.const(P, 0).is_zero()
    assert LaurentPoly.const(P, Fraction(3, 2)).constant_value() == Fraction(3, 2)


def test_ring_identities():
    f = q() + 1
    g = q() - 1
    assert f * g == q() ** 2 - 1
    assert f - f == LaurentPoly.zero(P)
    assert f * 0 == LaurentPoly.zero(P)
    assert (f + g) * g == f * g + g * g


def test_negative_exponents():
    qi = LaurentPoly.var(P, "q", -1)
    assert q() * qi == LaurentPoly.one(P)
    assert (q() + qi).min_exponents() == (-1,)
    assert (q() + qi).max_exponents() == (1,)


def test_pow_and_int_coercion():
    assert q() ** 3 == q() * q() * q()
    assert q() ** 0 == LaurentPoly.one(P)
    assert 2 * q() == q() + q()
    assert 1 - q() == -(q() - 1)


def test_try_div():
    num = q() ** 2 - 1
    assert num.try_div(q() - 1) == q() + 1
    assert num.try_div(q() + 2) is None
    # exact division survives Laurent shifts
    assert (num * LaurentPoly.var(P, "q", -5)).try_div(q() - 1) is not None


def test_content_and_primitive():
    f = 2 * q() + 4 * q() ** 2
    coef, exps = f.content()
    assert coef == Fraction(2) and exps == (1,)
    assert f.primitive() == 1 + 2 * q()
    assert f.divide_content(coef, exps) == f.primitive()


def test_eval_map():
    f = q() + LaurentPoly.var(P, "q", -1)
    assert f.eval_map({"q": Fraction(2)}) == Fraction(5, 2)
    with pytest.raises(QsolvError):
        f.eval_map({})


def test_as_unit_monomial():
    assert (q() ** 2).as_unit_monomial() == UnitMonomial(P, 1, (2,))
    assert (-q()).as_unit_monomial() == UnitMonomial(P, -1, (1,))
    assert (q() + 1).as_unit_monomial() is None
    assert LaurentPoly.zero(P).as_unit_monomial() is None


def test_unit_monomial_group():
    u = UnitMonomial.var(P2, "c", 2)
    v = UnitMonomial.var(P2, "r", -1, sign=-1)
    assert (u * v).exps == (2, -1)
    assert (u * v).sign == -1
    assert u * u.inverse() == UnitMonomial.one(P2)
    assert u.pow(-2) == u.inverse().pow(2)
    assert unit_product([(u, 1), (v, 2)]) == u * v * v
    assert unit_product([(u, 3), (u, -3)], params=P2).is_one()
    assert unit_product([], params=P2).is_one()


def test_unit_monomial_additive_ops_land_in_polys():
    u = UnitMonomial.var(P, "q")
    s = u + 1
    assert isinstance(s, LaurentPoly)
    assert s == q() + 1
    assert -u == LaurentPoly.zero(P) - q()
    assert u.as_poly() * u.as_poly() == q() ** 2


@pytest.mark.parametrize(
    "units, expected",
    [
        ([UnitMonomial(P, 1, (1,))], True),
        ([UnitMonomial(P, -1, (0,))], False),
        ([UnitMonomial(P, 1, (1,)), UnitMonomial(P, 1, (-1,))], True),
        ([UnitMonomial(P, -1, (1,))], True),
        ([UnitMonomial(P, -1, (1,)), UnitMonomial(P, 1, (1,))], False),
        # no parameters: the exponent matrix is empty and -1 is torsion
        ([UnitMonomial((), -1, ())], False),
        ([UnitMonomial((), 1, ())], True),
    ],
)
def test_gamma_torsionfree(units, expected):
    # torsion shows up exactly when a kernel vector has odd sign parity
    assert gamma_torsionfree(units) is expected


def test_frac_elem_field_ops():
    a = FracElem(q() + 1, q())
    b = FracElem(LaurentPoly.one(P), q() - 1)
    assert a * a.inverse() == FracElem(LaurentPoly.one(P))
    assert (a + b) - b == a
    assert a / b == a * b.inverse()
    # equality is cross-multiplied, not normalized
    assert FracElem(q() ** 2 - 1, q() - 1) == FracElem(q() + 1)


def test_frac_elem_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        FracElem(q(), LaurentPoly.zero(P))


def test_as_field_element():
    assert as_field_element(3, P) == FracElem(LaurentPoly.const(P, 3))
    assert as_field_element(q(), P) == FracElem(q())
    u = UnitMonomial.var(P, "q", -1)
    assert as_field_element(u, P) == FracElem(u.as_poly())
