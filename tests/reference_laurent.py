"""Fraction-only Laurent polynomial arithmetic, the oracle for LaurentPoly.

These are the schoolbook ``__add__``, ``__mul__`` and ``try_div`` that
LaurentPoly used before its coefficients became int-first: every
coefficient is a Fraction, and each sum is checked for zero as it is
formed.  They take and return plain term maps {exponent tuple: Fraction},
so they share no code with the kernel they check.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def fraction_terms(terms):
    """A term map with Fraction coefficients and no zero term."""
    return {tuple(e): Fraction(c) for e, c in terms.items() if c}


def add(a, b):
    terms = fraction_terms(a)
    for exps, coef in fraction_terms(b).items():
        new = terms.get(exps, _ZERO) + coef
        if new:
            terms[exps] = new
        else:
            terms.pop(exps, None)
    return terms


def mul(a, b):
    terms = {}
    for e1, c1 in fraction_terms(a).items():
        for e2, c2 in fraction_terms(b).items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            new = terms.get(exps, _ZERO) + c1 * c2
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
    return terms


def _min_exponents(terms, width):
    return tuple(min(e[i] for e in terms) for i in range(width))


def _max_exponents(terms, width):
    return tuple(max(e[i] for e in terms) for i in range(width))


def try_div(a, b, width):
    """The exact quotient a / b as a term map, or None when b does not
    divide a; b must be nonzero."""
    a, b = fraction_terms(a), fraction_terms(b)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return {}
    if len(b) == 1:
        (exps, coef), = b.items()
        return {
            tuple(x - y for x, y in zip(e, exps)): c / coef
            for e, c in a.items()
        }
    lo = tuple(x - y for x, y in zip(_min_exponents(a, width),
                                     _min_exponents(b, width)))
    hi = tuple(x - y for x, y in zip(_max_exponents(a, width),
                                     _max_exponents(b, width)))
    if any(l > h for l, h in zip(lo, hi)):
        return None
    bound = 1
    for l, h in zip(lo, hi):
        bound *= h - l + 1
    rem = dict(a)
    div_lead = min(b)
    div_coef = b[div_lead]
    quot = {}
    for _ in range(bound):
        if not rem:
            return quot
        lead = min(rem)
        t_exps = tuple(x - y for x, y in zip(lead, div_lead))
        if any(t < l or t > h for t, l, h in zip(t_exps, lo, hi)):
            return None
        t_coef = rem[lead] / div_coef
        quot[t_exps] = t_coef
        for e, c in b.items():
            key = tuple(x + y for x, y in zip(t_exps, e))
            new = rem.get(key, _ZERO) - t_coef * c
            if new:
                rem[key] = new
            else:
                rem.pop(key, None)
    return quot if not rem else None
