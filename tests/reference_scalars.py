"""The scalar helpers that the product engine and the q-binomials used
before units were multiplied as exponent shifts, kept as oracles.

* ``reference_normal_scalar`` is sigma(a, b) over every pair of
  positions of the two exponent vectors, not over their supports;
* ``reference_scale`` multiplies a coefficient by a unit through the
  unit's one-term polynomial and the general product;
* ``reference_q_pascal`` is the q-Pascal triangle, row by row, and
  ``reference_q_binomial_at_unit`` sums its entry at a unit term by term.
"""

from qsolv import LaurentPoly, unit_product


def reference_normal_scalar(pairing, a, b, params):
    """sigma(a, b) with Y^a * Y^b = sigma(a, b) * Y^(a+b), where the
    generators satisfy Y_i Y_j = pairing(i, j) Y_j Y_i.

    Reordering the concatenation into ascending index order swaps each
    pair (i from a) > (j from b) once, contributing
    pairing(i, j)^(a_i*b_j).
    """
    width = len(a)
    return unit_product(
        ((pairing(i, j), a[i] * bj)
         for j, bj in enumerate(b) if bj
         for i in range(j + 1, width) if a[i]),
        params,
    )


def reference_scale(coef, unit):
    """A LaurentPoly or FracElem coefficient times a unit monomial."""
    return coef * unit.as_poly()


def reference_q_pascal(n):
    """Rows 0..n of the q-Pascal triangle, each a list of LaurentPoly in q:
    C(l, k) = C(l - 1, k - 1) + q^k C(l - 1, k), with no division."""
    one = LaurentPoly.one(("q",))
    row = [one]
    rows = [row]
    for level in range(1, n + 1):
        new = [one]
        for k in range(1, level):
            new.append(row[k - 1] + LaurentPoly.monomial(("q",), (k,)) * row[k])
        new.append(one)
        row = new
        rows.append(row)
    return rows


def reference_q_binomial(n, i):
    """The Gaussian binomial from the whole triangle up to row n."""
    return reference_q_pascal(n)[n][i]


def reference_q_binomial_at_unit(n, i, unit):
    """The Gaussian binomial at a unit, one LaurentPoly sum per term."""
    total = LaurentPoly.zero(unit.params)
    for exps, coef in reference_q_binomial(n, i).terms.items():
        total = total + unit.pow(exps[0]).as_poly() * coef
    return total
