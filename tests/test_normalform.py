"""Rewriting products onto the ordered monomial basis."""

import math
import random
from fractions import Fraction

import pytest

from qsolv import (
    LaurentPoly,
    NFElement,
    Presentation,
    PresentationError,
    RewriteBudgetError,
    UnitMonomial,
    delta_apply,
    nf_mul,
    q_binomial,
    q_integer,
    q_leibniz_expand,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    skew_action,
    tau_apply,
)
from qsolv import normalform
from qsolv.normalform import q_binomial_at_unit
from test_mul_table import engine


@pytest.fixture
def plane():
    return quantum_plane()


@pytest.fixture
def weyl():
    return quantum_weyl(1)


def test_plane_swap(plane):
    x, y = plane.gen(0), plane.gen(1)
    qinv = LaurentPoly.var(plane.params, "q", -1)
    assert nf_mul(x, y) == plane.monomial((1, 1))
    assert nf_mul(y, x) == plane.monomial((1, 1), qinv)


def test_plane_powers(plane):
    # y^a x^b reorders with a q^(-ab) scalar
    x, y = plane.gen(0), plane.gen(1)
    for a in range(4):
        for b in range(4):
            lhs = nf_mul(plane.gen_power(1, a), plane.gen_power(0, b))
            qpow = LaurentPoly.var(plane.params, "q", -a * b)
            assert lhs == plane.monomial((b, a), qpow)


def test_weyl_products(weyl):
    y, x = weyl.gen(0), weyl.gen(1)
    c = LaurentPoly.var(weyl.params, "c")
    assert nf_mul(y, x) == weyl.monomial((1, 1))
    assert nf_mul(x, y) == weyl.monomial((1, 1), c) - weyl.scalar(c)
    # x*y^2 = c^2 y^2 x - (c^2 + c) y
    lhs = nf_mul(x, nf_mul(y, y))
    assert lhs == weyl.monomial((2, 1), c ** 2) - weyl.monomial((1, 0), c ** 2 + c)


def test_weyl_inorder_identity(weyl):
    # y^2 x  =  c^-2 * (x * y^2)  +  (1 + c^-1) * y
    c = LaurentPoly.var(weyl.params, "c")
    cinv = LaurentPoly.var(weyl.params, "c", -1)
    y = weyl.gen(0)
    rhs = nf_mul(weyl.gen(1), nf_mul(y, y)).scale(cinv ** 2) + y.scale(1 + cinv)
    assert rhs == weyl.monomial((2, 1))


def test_matrices_relations():
    p = quantum_matrices(2)
    a11, a12, a21, a22 = (p.gen(i) for i in range(4))
    h = LaurentPoly.var(p.params, "h")
    q12 = LaurentPoly.var(p.params, "q12")
    q12inv = LaurentPoly.var(p.params, "q12", -1)
    assert nf_mul(a11, a22) == p.monomial((1, 0, 0, 1))
    assert nf_mul(a21, a12) == p.monomial((0, 1, 1, 0), h ** 2 * q12inv ** 2)
    # the off-diagonal product is what separates a22*a11 from a11*a22
    expected = (
        p.monomial((0, 1, 1, 0), (h ** 2 - 1) * q12inv) + p.monomial((1, 0, 0, 1))
    )
    assert nf_mul(a22, a11) == expected


def test_associativity_spot_checks(weyl):
    y, x = weyl.gen(0), weyl.gen(1)
    for a, b, c in [(x, y, x), (x, x, y), (y, x, nf_mul(x, y))]:
        assert nf_mul(nf_mul(a, b), c) == nf_mul(a, nf_mul(b, c))


def test_laurent_generator_shift():
    qu = UnitMonomial.var(("q",), "q")
    p = Presentation("t", ("q",), ("x", "k"), 1, qmat={(0, 1): qu})
    x, k = p.gen(0), p.gen(1)
    qinv = LaurentPoly.var(("q",), "q", -1)
    assert nf_mul(k, x) == p.monomial((1, 1), qinv)
    # invertible generators admit negative powers, polynomial ones do not
    assert nf_mul(p.gen_power(1, -2), p.gen_power(1, 2)) == p.one()
    with pytest.raises(PresentationError):
        p.gen_power(0, -1)


def test_tau_apply(weyl):
    x = weyl.gen(1)
    cinv = LaurentPoly.var(weyl.params, "c", -1)
    assert tau_apply(weyl, 0, x) == x.scale(cinv)
    assert tau_apply(weyl, 0, x, power=3) == x.scale(cinv ** 3)
    assert tau_apply(weyl, 0, x, power=-1) == x.scale(LaurentPoly.var(weyl.params, "c"))


def test_delta_apply(weyl):
    x = weyl.gen(1)
    cinv = LaurentPoly.var(weyl.params, "c", -1)
    assert delta_apply(weyl, 0, x) == weyl.one()
    assert delta_apply(weyl, 0, nf_mul(x, x)) == x.scale(1 + cinv)
    # delta annihilates scalars
    assert delta_apply(weyl, 0, weyl.scalar(5)).is_zero()


def test_skew_action_dispatch(weyl):
    x = weyl.gen(1)
    assert skew_action(weyl, 0, "tau", x) == tau_apply(weyl, 0, x)
    assert skew_action(weyl, 0, "delta", x) == delta_apply(weyl, 0, x)
    with pytest.raises(Exception):
        skew_action(weyl, 0, "sigma", x)


def test_q_integers_and_binomials():
    P = ("q",)
    qv = LaurentPoly.var(P, "q")
    assert q_integer(0) == LaurentPoly.zero(P)
    assert q_integer(3) == 1 + qv + qv ** 2
    # a negative index used to give 0, where q_binomial raises
    for n in (-1, -2):
        with pytest.raises(ValueError, match="must be nonnegative"):
            q_integer(n)
        with pytest.raises(ValueError, match="out of range"):
            q_binomial(n, 0)
    assert q_binomial(4, 0) == LaurentPoly.one(P)
    assert q_binomial(4, 2) == 1 + qv + 2 * qv ** 2 + qv ** 3 + qv ** 4
    assert q_binomial(5, 2) == q_binomial(5, 3)


def test_q_binomial_pascal():
    # [n k] = [n-1 k-1] + q^k [n-1 k]
    qv = LaurentPoly.var(("q",), "q")
    for n in range(1, 7):
        for k in range(1, n):
            lhs = q_binomial(n, k)
            rhs = q_binomial(n - 1, k - 1) + qv ** k * q_binomial(n - 1, k)
            assert lhs == rhs


def test_q_binomial_at_unit():
    u = UnitMonomial.var(("c",), "c", -1)
    value = q_binomial_at_unit(4, 2, u)
    subst = q_binomial(4, 2).eval_map({"q": u.as_poly()})
    assert value == subst


def test_large_q_binomial_is_the_binomial_at_one():
    # each exact division by 1 - q^k used to go through densepoly.divmod
    # over Fraction entries, 8.6 s for this one
    assert q_binomial(200, 100).eval_map({"q": 1}) == math.comb(200, 100)


def test_leibniz_matches_multiplication(weyl):
    rng = random.Random(23)
    for n in range(1, 5):
        key = tuple()
        a = weyl.zero()
        for _ in range(3):
            d = rng.randint(0, 3)
            a = a + weyl.monomial((0, d), rng.randint(-3, 3))
        lhs = q_leibniz_expand(weyl, 0, n, a)
        rhs = nf_mul(weyl.gen_power(0, n), a)
        assert lhs == rhs


def test_leibniz_rejects_early_letters(weyl):
    # the expansion only applies to elements of the later subalgebra
    y = weyl.gen(0)
    assert not y.in_tail_subalgebra(0)
    with pytest.raises(Exception):
        q_leibniz_expand(weyl, 0, 2, y)


def test_budget_exhaustion(weyl, monkeypatch):
    big = weyl.monomial((4, 4))
    monkeypatch.setattr(normalform, "DEFAULT_BUDGET", 3)
    engine(weyl).right_products.clear()
    engine(weyl).pairs.clear()
    with pytest.raises(RewriteBudgetError, match="exceeded 3 table fills"):
        nf_mul(big, big)
    # the pair whose product ran out of fills keeps no entry
    (key,) = big.terms
    assert (key, key) not in engine(weyl).pairs


def test_scalar_coefficient_types(plane):
    x = plane.gen(0)
    assert x.scale(Fraction(1, 2)) + x.scale(Fraction(1, 2)) == x
    u = UnitMonomial.var(plane.params, "q", 2)
    assert x.scale(u) == x.scale(LaurentPoly.var(plane.params, "q", 2))


NOT_INTEGERS = [Fraction(5, 2), 1.5, 2.9, 2.0]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_element_keys_must_be_integers(weyl, value):
    # NFElement(weyl, {(1.5, 0): 1}) used to give y
    with pytest.raises(TypeError, match="expected an integer exponent"):
        NFElement(weyl, {(value, 0): 1})
    with pytest.raises(TypeError, match="expected an integer exponent"):
        weyl.monomial((0, value))


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_generator_powers_must_be_integers(weyl, value):
    # weyl.gen_power(1, 2.9) used to be x^2
    with pytest.raises(TypeError, match="expected an integer exponent"):
        weyl.gen_power(1, value)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_binomial_arguments_must_be_integers(value):
    u = UnitMonomial.var(("c",), "c", -1)
    with pytest.raises(TypeError, match="expected an integer exponent"):
        q_binomial(value, 1)
    with pytest.raises(TypeError, match="expected an integer exponent"):
        q_binomial(5, value)
    with pytest.raises(TypeError, match="expected an integer exponent"):
        q_binomial_at_unit(value, 1, u)
    with pytest.raises(TypeError, match="expected an integer exponent"):
        q_integer(value)
    assert q_binomial(Fraction(8, 2), 2) == q_binomial(4, 2)


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_skew_powers_must_be_integers(weyl, value):
    # q_leibniz_expand and tau_apply used to truncate their power
    x = weyl.gen(1)
    with pytest.raises(TypeError, match="expected an integer exponent"):
        q_leibniz_expand(weyl, 0, value, x)
    with pytest.raises(TypeError, match="expected an integer exponent"):
        tau_apply(weyl, 0, x, value)
    with pytest.raises(TypeError, match="expected an integer exponent"):
        tau_apply(weyl, 0, weyl.zero(), value)
