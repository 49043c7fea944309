"""Dense univariate polynomial kernel over Fraction and FracElem."""

from fractions import Fraction as F

from qsolv import FracElem, LaurentPoly, UnitMonomial, densepoly


def test_integer_input_comes_back_exact():
    cases = [
        (densepoly.divmod([1, 2, 3], [2]), ([F(1, 2), 1, F(3, 2)], [])),
        (densepoly.divmod([-1, 0, 0, 1], [-1, 1]), ([1, 1, 1], [])),
        (densepoly.divmod([5, 0, 1], [1, 1]), ([-1, 1], [6])),
        ((densepoly.mul([1, 1], [-1, 1]),), ([-1, 0, 1],)),
        ((densepoly.sub([], [1, 2]), densepoly.sub([1, 2], [1, 2])), ([-1, -2], [])),
    ]
    for got, expected in cases:
        assert got == expected
        assert all(type(c) is F for poly in got for c in poly)


def test_generic_over_frac_elem():
    params = ("q",)
    q = FracElem(LaurentPoly.var(params, "q"))
    one = FracElem(LaurentPoly.one(params))
    # (t - q)(t + q^-1)
    prod = densepoly.mul([-q, one], [one / q, one])
    assert prod == [-one, one / q - q, one]
    assert densepoly.divmod(prod, [-q, one]) == ([one / q, one], [])
    assert densepoly.sub(prod, prod) == []


def test_peel_roots_keeps_candidate_order():
    # (t - 2)^2 (t + 1/2) (t^2 + 1)
    f = densepoly.mul(densepoly.mul([-2, 1], [-2, 1]),
                      densepoly.mul([F(1, 2), 1], [1, 0, 1]))
    found, rest = densepoly.peel_roots(f, [3, 2, F(-1, 2), 2], F)
    assert found == [(2, 2), (F(-1, 2), 1)] and rest == [1, 0, 1]
    found, _ = densepoly.peel_roots(f, [F(-1, 2), 2], F)
    assert found == [(F(-1, 2), 1), (2, 2)]
    assert densepoly.peel_roots([7], [1, -1], F) == ([], [7])


def test_peel_roots_over_frac_elem():
    params = ("q",)
    qu = UnitMonomial.var(params, "q")
    one = UnitMonomial.one(params)
    f = [FracElem(LaurentPoly.one(params))]
    for root in (qu, qu, one):
        f = densepoly.mul(f, [FracElem(-root.as_poly()), FracElem(one.as_poly())])
    found, rest = densepoly.peel_roots(f, [qu.inverse(), one, qu],
                                       UnitMonomial.as_poly)
    assert found == [(one, 1), (qu, 2)]
    assert rest == [FracElem(LaurentPoly.one(params))]
