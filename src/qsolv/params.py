"""Exact coefficient arithmetic for quantized algebras.

The coefficient ring is the Laurent polynomial ring over Q in a fixed,
ordered tuple of parameter names.  Three value types live here:

* LaurentPoly  -- ring elements, dict of exponent vector -> Fraction;
* UnitMonomial -- the distinguished units (+-1 times a parameter monomial)
  that appear as commutation scalars;
* FracElem     -- elements of the fraction field, normalized by removing
  rational and monomial content from the denominator.

All values are immutable and all operations are exact; nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import intlinalg
from .errors import QsolvError

_ZERO = Fraction(0)


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {value!r}")


class LaurentPoly:
    """Laurent polynomial over Q in named parameters.

    Exponent vectors are tuples of ints aligned with ``params``; negative
    exponents are allowed in every slot.  Zero coefficients are never
    stored.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params, terms):
        object.__setattr__(self, "params", tuple(params))
        width = len(self.params)
        clean = {}
        for exps, coef in terms.items():
            coef = _as_fraction(coef)
            if not coef:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != width:
                raise ValueError("exponent vector width does not match params")
            clean[exps] = coef
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, params):
        return cls(params, {})

    @classmethod
    def one(cls, params):
        return cls.const(params, 1)

    @classmethod
    def const(cls, params, value):
        params = tuple(params)
        return cls(params, {(0,) * len(params): _as_fraction(value)})

    @classmethod
    def monomial(cls, params, exps, coef=1):
        return cls(params, {tuple(exps): _as_fraction(coef)})

    @classmethod
    def var(cls, params, name, power=1):
        params = tuple(params)
        idx = params.index(name)
        exps = tuple(power if i == idx else 0 for i in range(len(params)))
        return cls(params, {exps: Fraction(1)})

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * len(self.params): Fraction(1)}

    def __bool__(self):
        return bool(self.terms)

    def constant_value(self):
        """The rational value of a constant polynomial, else None."""
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1:
            exps, coef = next(iter(self.terms.items()))
            if not any(exps):
                return coef
        return None

    def as_unit_monomial(self):
        """This value as a UnitMonomial, or None if it is not +-1 * monomial."""
        if len(self.terms) != 1:
            return None
        exps, coef = next(iter(self.terms.items()))
        if coef == 1:
            return UnitMonomial(self.params, 1, exps)
        if coef == -1:
            return UnitMonomial(self.params, -1, exps)
        return None

    def min_exponents(self):
        return tuple(
            min(e[i] for e in self.terms) for i in range(len(self.params))
        )

    def max_exponents(self):
        return tuple(
            max(e[i] for e in self.terms) for i in range(len(self.params))
        )

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.params != other.params:
            raise ValueError("parameter tuples differ")

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            self._check(other)
            return other
        if isinstance(other, UnitMonomial):
            return other.as_poly()
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(self.params, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            new = terms.get(exps, _ZERO) + coef
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return LaurentPoly(self.params, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(
            self.params, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(exps, _ZERO) + c1 * c2
                if new:
                    terms[exps] = new
                else:
                    terms.pop(exps, None)
        return LaurentPoly(self.params, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            unit = self.as_unit_monomial()
            if unit is None:
                raise ValueError("negative power of a non-unit polynomial")
            return unit.pow(n).as_poly()
        result = LaurentPoly.one(self.params)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.params == other.params and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.const(self.params, other)
        if isinstance(other, UnitMonomial):
            return self == other.as_poly()
        return NotImplemented

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    # -- division and content ----------------------------------------

    def divide_content(self, ratio, exps):
        """Exact division by the unit ratio * X^exps."""
        ratio = _as_fraction(ratio)
        if not ratio:
            raise ZeroDivisionError("zero content")
        return LaurentPoly(
            self.params,
            {
                tuple(a - b for a, b in zip(e, exps)): c / ratio
                for e, c in self.terms.items()
            },
        )

    def content(self):
        """(ratio, exps) such that self / (ratio * X^exps) is primitive.

        Primitive means: integer coefficients with gcd 1, componentwise
        minimal exponents 0, and positive coefficient on the lex-largest
        exponent vector.  The zero polynomial has content (1, 0).
        """
        if not self.terms:
            return Fraction(1), (0,) * len(self.params)
        num_gcd = 0
        den_lcm = 1
        for coef in self.terms.values():
            num_gcd = gcd(num_gcd, coef.numerator)
            den_lcm = den_lcm * coef.denominator // gcd(den_lcm, coef.denominator)
        ratio = Fraction(num_gcd, den_lcm)
        if self.terms[max(self.terms)] < 0:
            ratio = -ratio
        return ratio, self.min_exponents()

    def primitive(self):
        ratio, exps = self.content()
        return self.divide_content(ratio, exps)

    def try_div(self, divisor):
        """Exact quotient self / divisor, or None when not divisible."""
        if not isinstance(divisor, LaurentPoly):
            divisor = self._coerce(divisor)
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        if len(divisor.terms) == 1:
            exps, coef = next(iter(divisor.terms.items()))
            return self.divide_content(coef, exps)
        width = len(self.params)
        lo = tuple(
            a - b for a, b in zip(self.min_exponents(), divisor.min_exponents())
        )
        hi = tuple(
            a - b for a, b in zip(self.max_exponents(), divisor.max_exponents())
        )
        if any(l > h for l, h in zip(lo, hi)):
            return None
        bound = 1
        for l, h in zip(lo, hi):
            bound *= h - l + 1
        rem = dict(self.terms)
        div_lead = min(divisor.terms)
        div_coef = divisor.terms[div_lead]
        quot = {}
        for _ in range(bound):
            if not rem:
                return LaurentPoly(self.params, quot)
            lead = min(rem)
            t_exps = tuple(a - b for a, b in zip(lead, div_lead))
            if any(t < l or t > h for t, l, h in zip(t_exps, lo, hi)):
                return None
            t_coef = rem[lead] / div_coef
            quot[t_exps] = t_coef
            for e, c in divisor.terms.items():
                key = tuple(a + b for a, b in zip(t_exps, e))
                new = rem.get(key, _ZERO) - t_coef * c
                if new:
                    rem[key] = new
                else:
                    rem.pop(key, None)
        return LaurentPoly(self.params, quot) if not rem else None

    # -- evaluation ---------------------------------------------------

    def eval_map(self, values):
        """Evaluate at the given parameter assignment.

        ``values`` maps every parameter name to a value supporting +, *,
        and ** with possibly negative integer exponents (Fraction,
        cyclotomic numbers, ...).  Coefficients multiply in as Fractions.
        """
        missing = [p for p in self.params if p not in values]
        if missing:
            raise QsolvError(f"no value for parameter(s) {', '.join(missing)}")
        total = None
        for exps, coef in self.terms.items():
            term = coef
            for name, e in zip(self.params, exps):
                if e:
                    term = term * values[name] ** e
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    # -- display ------------------------------------------------------

    def _term_str(self, exps, coef):
        factors = []
        for name, e in zip(self.params, exps):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        if not factors:
            return str(coef)
        body = "*".join(factors)
        if coef == 1:
            return body
        if coef == -1:
            return f"-{body}"
        return f"{coef}*{body}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            s = self._term_str(exps, self.terms[exps])
            if parts:
                if s.startswith("-"):
                    parts.append(" - " + s[1:])
                else:
                    parts.append(" + " + s)
            else:
                parts.append(s)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


@dataclass(frozen=True)
class UnitMonomial:
    """A unit of the coefficient ring of the form +-1 * prod params^e.

    These are exactly the scalars allowed in commutation data; keeping
    the sign explicit lets the torsion check reason about -1.
    """

    params: tuple
    sign: int
    exps: tuple

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if len(self.exps) != len(self.params):
            raise ValueError("exponent vector width does not match params")

    @classmethod
    def one(cls, params):
        params = tuple(params)
        return cls(params, 1, (0,) * len(params))

    @classmethod
    def var(cls, params, name, power=1, sign=1):
        params = tuple(params)
        idx = params.index(name)
        exps = tuple(power if i == idx else 0 for i in range(len(params)))
        return cls(params, sign, exps)

    def is_one(self):
        return self.sign == 1 and not any(self.exps)

    def __mul__(self, other):
        if not isinstance(other, UnitMonomial):
            return NotImplemented
        if self.params != other.params:
            raise ValueError("parameter tuples differ")
        return UnitMonomial(
            self.params,
            self.sign * other.sign,
            tuple(a + b for a, b in zip(self.exps, other.exps)),
        )

    def pow(self, n):
        n = int(n)
        return UnitMonomial(
            self.params,
            self.sign if n % 2 else 1,
            tuple(e * n for e in self.exps),
        )

    def inverse(self):
        return self.pow(-1)

    def as_poly(self):
        return LaurentPoly.monomial(self.params, self.exps, self.sign)

    # additive mixes leave the unit group, so they land in LaurentPoly
    def __add__(self, other):
        return self.as_poly() + other

    def __radd__(self, other):
        return other + self.as_poly()

    def __sub__(self, other):
        return self.as_poly() - other

    def __rsub__(self, other):
        return other - self.as_poly()

    def __neg__(self):
        return UnitMonomial(self.params, -self.sign, self.exps)

    def __str__(self):
        factors = []
        for name, e in zip(self.params, self.exps):
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not body:
            return "1" if self.sign > 0 else "-1"
        return body if self.sign > 0 else f"-{body}"

    def __repr__(self):
        return f"UnitMonomial({self})"


def unit_product(factors, params=None):
    """Product of (unit, exponent) pairs; the empty product is 1.

    An empty factor list needs the params argument for context, since
    there is nothing to read the parameter tuple from.
    """
    factors = list(factors)
    if not factors:
        if params is None:
            raise ValueError("empty factor list has no parameter context")
        return UnitMonomial.one(params)
    result = UnitMonomial.one(factors[0][0].params)
    for unit, power in factors:
        result = result * unit.pow(power)
    return result


def gamma_torsionfree(generators):
    """Decide whether the multiplicative group generated by the given
    unit monomials is torsion free.

    Monomials with a nonzero exponent vector have infinite order, so the
    only possible torsion element is -1: the group has torsion exactly
    when some integer combination of the generators has exponent vector
    zero and an odd number of sign factors.  That is a parity condition
    on the integer kernel of the exponent matrix.
    """
    gens = list(generators)
    if not gens:
        return True
    params = gens[0].params
    for g in gens:
        if g.params != params:
            raise ValueError("parameter tuples differ")
    negatives = [t for t, g in enumerate(gens) if g.sign < 0]
    if not negatives:
        return True
    if not params:
        # every generator is +-1, so -1 itself lies in the group
        return False
    rows = [[g.exps[r] for g in gens] for r in range(len(params))]
    for vec in intlinalg.kernel_basis(rows):
        if sum(vec[t] for t in negatives) % 2:
            return False
    return True


class FracElem:
    """Element of the fraction field of the coefficient ring.

    The denominator is kept primitive (rational and monomial content
    moved into the numerator); full gcd reduction is not attempted, but
    an exact-division shortcut fires whenever the denominator happens to
    divide the numerator.  Equality is decided by cross multiplication,
    so unreduced representatives still compare correctly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, UnitMonomial):
            num = num.as_poly()
        if not isinstance(num, LaurentPoly):
            raise TypeError("numerator must be a LaurentPoly")
        if den is None:
            den = LaurentPoly.one(num.params)
        if isinstance(den, UnitMonomial):
            den = den.as_poly()
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num._check(den)
        if num.is_zero():
            den = LaurentPoly.one(num.params)
        elif not den.is_one():
            ratio, exps = den.content()
            den = den.divide_content(ratio, exps)
            num = num.divide_content(ratio, exps)
            if not den.is_one():
                quot = num.try_div(den)
                if quot is not None:
                    num = quot
                    den = LaurentPoly.one(num.params)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("FracElem is immutable")

    @property
    def params(self):
        return self.num.params

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, FracElem):
            if other.params != self.params:
                raise ValueError("parameter tuples differ")
            return other
        if isinstance(other, (LaurentPoly, UnitMonomial, int, Fraction)):
            if isinstance(other, UnitMonomial):
                other = other.as_poly()
            elif isinstance(other, (int, Fraction)):
                other = LaurentPoly.const(self.params, other)
            return FracElem(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return FracElem(self.num + other.num, self.den)
        return FracElem(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return FracElem(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FracElem(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        return FracElem(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FracElem(self.den, self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self):
        return f"FracElem({self})"


def as_field_element(value, params):
    """Coerce a coefficient-like value into a FracElem over params."""
    if isinstance(value, FracElem):
        if value.params != tuple(params):
            raise ValueError("parameter tuples differ")
        return value
    if isinstance(value, UnitMonomial):
        return FracElem(value.as_poly())
    if isinstance(value, LaurentPoly):
        return FracElem(value)
    return FracElem(LaurentPoly.const(params, value))
