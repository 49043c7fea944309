"""Exact Laurent-polynomial and unit-monomial arithmetic."""

import random
from fractions import Fraction

import pytest

from qsolv import (
    FracElem,
    LaurentPoly,
    NFElement,
    QsolvError,
    SpecTarget,
    UnitMonomial,
    as_field_element,
    gamma_torsionfree,
    nf_mul,
    quantum_plane,
    quantum_weyl,
    unit_product,
)
from qsolv.special import _eval_coef

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


def _fold_units(factors, params):
    """Pairwise product of the (unit, power) factors, unit by unit."""
    result = UnitMonomial.one(params)
    for unit, power in factors:
        result = result * unit.pow(power)
    return result


def test_unit_product_matches_pairwise_fold():
    rng = random.Random(11)
    signs, empty = set(), 0
    for trial in range(400):
        params = ("a", "b", "c")[: trial % 4]
        pool = [
            UnitMonomial(params, rng.choice((1, -1)),
                         tuple(rng.randint(-4, 4) for _ in params))
            for _ in range(rng.randint(1, 3))
        ]
        factors = [(rng.choice(pool), rng.randint(-5, 5))
                   for _ in range(rng.randint(0, 6))]
        want = _fold_units(factors, params)
        assert unit_product(iter(factors), params) == want
        if factors:
            assert unit_product(factors) == want
        else:
            empty += 1
        signs.add(want.sign)
    assert signs == {1, -1} and empty


def test_unit_product_errors():
    u = UnitMonomial.var(P, "q", sign=-1)
    v = UnitMonomial.var(P2, "c")
    for factors in ([(u, 1), (v, 1)], [(v, 0), (u, 0)]):
        with pytest.raises(ValueError, match="parameter tuples differ"):
            unit_product(factors)
    for factors in ([], iter(())):
        with pytest.raises(ValueError, match="no parameter context"):
            unit_product(factors)
    # equal parameter tuples need not be the same object
    w = UnitMonomial(tuple(["q"]), 1, (2,))
    assert unit_product([(u, 3), (w, 1)]) == UnitMonomial(P, -1, (5,))


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


def test_rational_values_leave_as_fractions():
    # coefficients are stored as int while integral; every number that
    # leaves the coefficient layer is still a Fraction, never an int that
    # a later true division would turn into a float
    three = LaurentPoly.const(P, 3)
    assert type(three.terms[(0,)]) is int
    at_two = SpecTarget.rational({"q": Fraction(2)})
    values = [
        three.constant_value(),
        LaurentPoly.zero(P).constant_value(),
        three.eval_map({"q": Fraction(2)}),
        three.eval_map({"q": 2}),
        (q() * 3 + 1).eval_map({"q": Fraction(2)}),
        LaurentPoly.zero(P).eval_map({"q": 2}),
        (q() * 4 - 6).content()[0],
        _eval_coef(three, at_two),
        _eval_coef(FracElem(three), at_two),
        _eval_coef(FracElem(q() + 1, q() - 1), SpecTarget.rational({"q": 3})),
        NFElement(quantum_plane(), {(0, 0): three}).constant_value(),
    ]
    assert values == [3, 0, 3, 3, 7, 0, 2, 3, 3, 2, 3]
    assert [type(v) for v in values] == [Fraction] * len(values)


def test_exact_division_never_gives_a_float():
    two_q = q() * 2 + 2
    half = (q() * 3 + 3).try_div(two_q)
    assert half.terms == {(0,): Fraction(3, 2)}
    assert type(half.terms[(0,)]) is Fraction
    assert (q() * 6 - 3).divide_content(3, (0,)).terms == {(1,): 2, (0,): -1}
    for poly in [two_q.try_div(q() + 1), (q() * 6 - 3).divide_content(3, (0,)),
                 two_q.try_div(LaurentPoly.const(P, 2)), (q() * 6).primitive()]:
        assert all(type(c) is int for c in poly.terms.values()), poly
    quotient = (q() * 3).divide_content(Fraction(3, 2), (1,))
    assert quotient.terms == {(0,): 2} and type(quotient.terms[(0,)]) is int
    # the trusted constructor behind divide_content gets checked exponents
    with pytest.raises(ValueError):
        (q() * 3).divide_content(3, ())


def test_integral_products_and_sums_store_ints():
    # products and sums of Fraction coefficients used to keep integral
    # values as Fraction(2, 1), against "an int while it is integral"
    half = LaurentPoly.const(P, Fraction(1, 2))
    mixed = LaurentPoly(P, {(0,): Fraction(1, 2), (1,): Fraction(3, 2)})
    x = quantum_weyl(1).gen(1)
    cases = [
        (LaurentPoly.const(P, 4) * half, {(0,): 2}),
        (half * LaurentPoly.const(P, 4), {(0,): 2}),
        (q() * half * 6, {(1,): 3}),
        (mixed * LaurentPoly(P, {(0,): 2, (1,): 4}), {(0,): 1, (1,): 5, (2,): 6}),
        (half + half, {(0,): 1}),
        (mixed - half, {(1,): Fraction(3, 2)}),
        (x.scale(Fraction(1, 2)).scale(2).terms[(0, 1)], {(0,): 1}),
    ]
    for poly, terms in cases:
        assert poly.terms == terms
        assert [type(c) for c in poly.terms.values()] == [type(c) for c in terms.values()]


def test_weyl_product_builds_no_fraction(monkeypatch):
    # weyl1 y^8 * x^8 (64 table fills) has only integer coefficients, so
    # the int-first kernel builds no Fraction for it
    w = quantum_weyl(1)
    left, right = w.gen_power(1, 8), w.gen_power(0, 8)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    product = nf_mul(left, right)
    monkeypatch.undo()
    assert len(product.terms) == 9
    assert len(built) == 0


NOT_INTEGERS = [Fraction(1, 2), 2.5, 0.5, 2.0, "2"]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_laurent_exponents_must_be_integers(value):
    # an exponent q^(1/2) used to be stored as q^0 and print as 1
    with pytest.raises(TypeError, match="expected an integer exponent"):
        LaurentPoly(P, {(value,): 1})
    with pytest.raises(TypeError, match="expected an integer exponent"):
        LaurentPoly.monomial(P2, (1, value))
    assert LaurentPoly(P, {(Fraction(4, 2),): 1}) == q() ** 2


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_laurent_powers_must_be_integers(value):
    # q ** 2.5 used to give q^2
    with pytest.raises(TypeError, match="expected an integer exponent"):
        q() ** value
    with pytest.raises(TypeError, match="expected an integer exponent"):
        LaurentPoly.var(P, "q", value)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_unit_exponents_and_powers_must_be_integers(value):
    # UnitMonomial(P, 1, (0.5,)) used to keep the float and print q^0.5
    with pytest.raises(TypeError, match="expected an integer exponent"):
        UnitMonomial(P, 1, (value,))
    with pytest.raises(TypeError, match="expected an integer exponent"):
        UnitMonomial.var(P2, "r", value)
    with pytest.raises(TypeError, match="expected an integer exponent"):
        UnitMonomial.var(P, "q").pow(value)
    unit = UnitMonomial(P2, -1, [Fraction(3, 1), True])
    assert unit.exps == (3, 1) and type(unit.exps[0]) is int
