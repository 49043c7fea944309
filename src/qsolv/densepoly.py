"""Dense univariate polynomials as ascending coefficient lists.

Entry k is the coefficient of t^k; a trimmed list ends in a nonzero entry
and the zero polynomial is the empty list.  Coefficients are ``Fraction``,
``LaurentPoly`` or ``FracElem``; integers are read as ``Fraction``, so that
division stays exact, and ``divmod`` needs field values.  The adjoint's
minimal polynomials have ``LaurentPoly`` coefficients; only its
eigencomponents' coefficients are fractions.
"""

from fractions import Fraction
from itertools import zip_longest


def _exact(coeffs):
    return [Fraction(c) if isinstance(c, int) else c for c in coeffs]


def trim(a):
    """Drop trailing zero coefficients in place; returns a."""
    while a and not a[-1]:
        a.pop()
    return a


def mul(a, b):
    """The product a * b."""
    if not a or not b:
        return []
    a, b = _exact(a), _exact(b)
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def sub(a, b):
    """The difference a - b."""
    pairs = zip_longest(_exact(a), _exact(b), fillvalue=0)
    return trim([x - y for x, y in pairs])


def divmod(a, b):
    """(quotient, remainder) of a by a nonzero trimmed b: a = quotient * b
    + remainder with the remainder of lower degree than b."""
    rem, b = trim(_exact(a)), _exact(b)
    lead = b[-1]
    quo = [lead * 0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        trim(rem)
    return quo, rem


def peel_roots(coeffs, candidates, value):
    """Divide the linear factors t - value(c) out of a nonzero polynomial.

    Candidates are tried in the given order, each divided out as often as
    the division is exact, until the cofactor is constant.  Returns
    ([(candidate, multiplicity)] for the candidates that divide, in that
    order, and the cofactor).
    """
    work = trim(_exact(coeffs))
    found = []
    for cand in candidates:
        mult = 0
        while len(work) > 1:
            # synthetic division by t - root; the remainder is the value there
            root = value(cand)
            quo = work[1:]
            for k in range(len(quo) - 2, -1, -1):
                quo[k] += quo[k + 1] * root
            if work[0] + quo[0] * root:
                break
            work = quo
            mult += 1
        if mult:
            found.append((cand, mult))
    return found, work
