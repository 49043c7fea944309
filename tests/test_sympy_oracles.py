"""The dense polynomial kernel and its callers against sympy over QQ."""

import random
from fractions import Fraction

import pytest

from qsolv import LaurentPoly, cyclotomic_polynomial, densepoly
from qsolv.strat import rational_roots

sympy = pytest.importorskip("sympy")
z = sympy.Symbol("z")


def to_sympy(coeffs):
    """Ascending Fraction coefficients as a sympy polynomial over QQ."""
    terms = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
    return sympy.Poly(terms or [0], z, domain=sympy.QQ)


def dense(f):
    """Ascending coefficients of a Laurent polynomial without negative powers."""
    coeffs = [Fraction(0)] * (max(f.terms)[0] + 1)
    for (e,), c in f.terms.items():
        coeffs[e] = c
    return coeffs


def from_sympy(poly):
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return densepoly.trim(coeffs)


def test_cyclotomic_polynomials_match_sympy():
    for N in range(1, 65):
        expected = sympy.Poly(sympy.cyclotomic_poly(N, z), z)
        assert list(cyclotomic_polynomial(N)) == from_sympy(expected), N


def test_divmod_matches_sympy_div():
    rng = random.Random(20)
    for _ in range(60):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in range(rng.randint(0, 9))]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in range(rng.randint(0, 5))] + [Fraction(rng.choice([-3, -1, 2, 7]))]
        quo, rem = densepoly.divmod(a, b)
        squo, srem = sympy.div(to_sympy(densepoly.trim(list(a))), to_sympy(b))
        assert (quo, rem) == (from_sympy(squo), from_sympy(srem))


def test_rational_roots_match_sympy_factorization():
    rng = random.Random(4)
    q = LaurentPoly.var(("q",), "q")
    irreducible = [q ** 2 + 1, q ** 2 + q + 1, q ** 2 + 7, q ** 3 - 2,
                   q ** 4 + 1, 3 * q ** 2 - 5, q ** 3 + q + 1]
    for _ in range(50):
        f = LaurentPoly.const(("q",), rng.choice([-6, -1, 1, 2, 5]))
        for _ in range(rng.randint(1, 3)):
            # a root at 0 is a Laurent shift, which rational_roots drops
            num, den = rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 4)
            f = f * (den * q - num) ** rng.randint(1, 3)
        f = f * rng.choice(irreducible)
        _, factors = sympy.factor_list(to_sympy(dense(f)))
        expected, cofactor = [], sympy.Poly(1, z, domain=sympy.QQ)
        for factor, mult in factors:
            if factor.degree() == 1:
                a, b = factor.all_coeffs()
                root = -b / a
                expected += [Fraction(int(root.p), int(root.q))] * mult
            else:
                cofactor = cofactor * factor ** mult
        roots, residual = rational_roots(f)
        assert roots == sorted(expected)
        assert residual is not None
        # equal up to content: the quotient is a nonzero constant
        quo, rem = sympy.div(to_sympy(dense(residual)), cofactor)
        assert rem.is_zero and quo.degree() == 0 and not quo.is_zero
