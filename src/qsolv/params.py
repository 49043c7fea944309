"""Exact coefficient arithmetic for quantized algebras.

The coefficient ring is the Laurent polynomial ring over Q in a fixed,
ordered tuple of parameter names.  Three value types live here:

* LaurentPoly  -- ring elements, dict of exponent vector -> coefficient,
  an int while it is integral and a Fraction once a denominator appears;
* UnitMonomial -- the distinguished units (+-1 times a parameter monomial)
  that appear as commutation scalars;
* FracElem     -- elements of the fraction field, normalized by removing
  rational and monomial content from the denominator.

All values are immutable and all operations are exact; nothing here ever
touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add as _add

from .errors import QsolvError

_ZERO = Fraction(0)

_set_field = object.__setattr__


class Frozen:
    """Base of every immutable value class.

    Instances refuse assignment and deletion, as frozen dataclasses do;
    a constructor writes each field once through ``_set_field``.  It
    declares no fields, so a subclass with ``__slots__`` has no
    ``__dict__``.
    """

    __slots__ = ()
    _memos = ()  # memo fields, made on first use; copies start them at None

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy restore state through setattr, which is refused
        fields = dict(getattr(self, "__dict__", ()))
        for cls in type(self).__mro__:
            fields.update((f, getattr(self, f)) for f in cls.__dict__.get("__slots__", ()))
        fields.update((f, None) for f in self._memos)
        return _rebuild, (type(self), fields)


def _rebuild(cls, fields):
    """An instance of cls with these fields, for Frozen.__reduce__."""
    self = object.__new__(cls)
    for name, value in fields.items():
        _set_field(self, name, value)
    return self


class ExactValue(Frozen):
    """A frozen value whose ``_coerce`` brings an operand into its own
    class, or returns None for a foreign one; subtraction follows from
    ``+`` and unary ``-``."""

    __slots__ = ()

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


class FrozenRecord(Frozen):
    """Base of the small immutable records.

    A subclass lists its fields in ``_fields`` and sets each once in its
    ``__init__`` through ``_init``.  Records of one class compare and hash
    as the tuple of their fields and print as ``Name(field=value, ...)``.
    They keep their fields in the instance ``__dict__``.
    """

    _fields = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            _set_field(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"


def _as_coef(value):
    """A rational value as a stored coefficient: an int when integral."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected a rational value, got {value!r}")


def _as_exponent(value):
    """An integral value as an exponent: an int, never truncated."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise TypeError(f"expected an integer exponent, got {value!r}")


_INT = frozenset((int,))


def _as_exponents(exps):
    """An exponent vector as a tuple of ints; see _as_exponent."""
    if exps.__class__ is tuple and _INT.issuperset(map(type, exps)):
        return exps
    return tuple(map(_as_exponent, exps))


def _int_values(terms):
    """terms with every integral Fraction value stored as an int.

    The callers run it only when the sum of the values is not an int: a
    sum of ints is an int, and any Fraction in it makes a Fraction, so
    the all-int path costs one sum and one type test."""
    return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items()}


def _quotient(a, b):
    """The exact quotient a / b of coefficients, never a float."""
    if a.__class__ is int and b.__class__ is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


# -- text forms shared by every printer ---------------------------------------

def monomial_text(names, exps):
    """``name^e`` factors joined by ``*``: zero exponents are dropped and
    exponent 1 stays implicit, so the constant monomial prints as ``""``."""
    return "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e
    )


def term_text(coef_text, body):
    """A coefficient times a monomial; a coefficient 1 or -1 stays
    implicit unless the monomial is constant."""
    if not body:
        return coef_text
    if coef_text == "1":
        return body
    if coef_text == "-1":
        return f"-{body}"
    return f"{coef_text}*{body}"


def signed_sum(pieces):
    """Terms joined by " + ", with a leading minus folded into " - ";
    the empty sum is "0"."""
    out = ""
    for piece in pieces:
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out or "0"


class LaurentPoly(ExactValue):
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
            coef = _as_coef(coef)
            if not coef:
                continue
            exps = _as_exponents(exps)
            if len(exps) != width:
                raise ValueError("exponent vector width does not match params")
            clean[exps] = coef
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, params, terms):
        """Trusted constructor for results that are already clean: params
        a tuple, keys int tuples of its width, coefficients nonzero int or
        Fraction.  It checks none of that."""
        self = object.__new__(cls)
        _set_field(self, "params", params)
        _set_field(self, "terms", terms)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, params):
        return cls(params, {})

    @classmethod
    def one(cls, params):
        params = tuple(params)
        return cls._make(params, {(0,) * len(params): 1})

    @classmethod
    def const(cls, params, value):
        params = tuple(params)
        return cls(params, {(0,) * len(params): value})

    @classmethod
    def monomial(cls, params, exps, coef=1):
        return cls(params, {tuple(exps): coef})

    @classmethod
    def var(cls, params, name, power=1):
        params = tuple(params)
        idx = params.index(name)
        exps = tuple(power if i == idx else 0 for i in range(len(params)))
        return cls(params, {exps: 1})

    # -- basic queries ------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        if len(self.terms) != 1:
            return False
        (exps, coef), = self.terms.items()
        return coef == 1 and not any(exps)

    def __bool__(self):
        return bool(self.terms)

    def constant_value(self):
        """The rational value of a constant polynomial, as a Fraction,
        else None."""
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1:
            exps, coef = next(iter(self.terms.items()))
            if not any(exps):
                return Fraction(coef)
        return None

    def as_unit_monomial(self):
        """This value as a UnitMonomial, or None if it is not +-1 * monomial."""
        if len(self.terms) != 1:
            return None
        exps, coef = next(iter(self.terms.items()))
        if coef == 1 or coef == -1:
            return UnitMonomial._make(self.params, int(coef), exps)
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
        if other.__class__ is not LaurentPoly or other.params is not self.params:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other.terms:
            return self
        terms = dict(self.terms)
        get = terms.get
        for exps, coef in other.terms.items():
            new = get(exps, 0) + coef
            if new:
                terms[exps] = new
            else:
                del terms[exps]
        if sum(other.terms.values()).__class__ is not int:
            terms = _int_values(terms)  # two Fractions may sum to an integer
        return LaurentPoly._make(self.params, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make(
            self.params, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly or other.params is not self.params:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        small, big = self, other
        if len(small.terms) > len(big.terms):
            small, big = big, small
        if len(small.terms) == 1:
            return big._shifted(*next(iter(small.terms.items())))
        terms = {}
        get = terms.get
        for e1, c1 in small.terms.items():
            for e2, c2 in big.terms.items():
                exps = tuple(map(_add, e1, e2))
                terms[exps] = get(exps, 0) + c1 * c2
        terms = {e: c for e, c in terms.items() if c}
        if sum(terms.values()).__class__ is not int:
            terms = _int_values(terms)
        return LaurentPoly._make(self.params, terms)

    __rmul__ = __mul__

    def _shifted(self, shift, scale):
        """self times the monomial scale * X^shift: the exponents move and
        the coefficients scale, so no product of terms is formed."""
        if not any(shift):
            if scale == 1:
                return self
            if scale == -1:
                return -self
            terms = {e: c * scale for e, c in self.terms.items()}
        elif scale == 1:
            return LaurentPoly._make(
                self.params, {tuple(map(_add, e, shift)): c for e, c in self.terms.items()})
        elif scale == -1:
            return LaurentPoly._make(
                self.params, {tuple(map(_add, e, shift)): -c for e, c in self.terms.items()})
        else:
            terms = {tuple(map(_add, e, shift)): c * scale for e, c in self.terms.items()}
        if sum(terms.values()).__class__ is not int:
            terms = _int_values(terms)  # a Fraction times a value may be an integer
        return LaurentPoly._make(self.params, terms)

    def times_unit(self, unit):
        """self * unit.as_poly(), with the same terms: the unit's exponent
        vector shifts every term and its sign scales it."""
        if unit.params is not self.params:
            self._check(unit)
        return self._shifted(unit.exps, unit.sign)

    def __pow__(self, n):
        n = _as_exponent(n)
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
        ratio = _as_coef(ratio)
        if not ratio:
            raise ZeroDivisionError("zero content")
        exps = _as_exponents(exps)
        if len(exps) != len(self.params):
            raise ValueError("exponent vector width does not match params")
        return LaurentPoly._make(
            self.params,
            {
                tuple(a - b for a, b in zip(e, exps)): _quotient(c, ratio)
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
                return LaurentPoly._make(self.params, quot)
            lead = min(rem)
            t_exps = tuple(a - b for a, b in zip(lead, div_lead))
            if any(t < l or t > h for t, l, h in zip(t_exps, lo, hi)):
                return None
            t_coef = _quotient(rem[lead], div_coef)
            quot[t_exps] = t_coef
            for e, c in divisor.terms.items():
                key = tuple(a + b for a, b in zip(t_exps, e))
                new = rem.get(key, 0) - t_coef * c
                if new:
                    rem[key] = new
                else:
                    rem.pop(key, None)
        return LaurentPoly._make(self.params, quot) if not rem else None

    # -- evaluation ---------------------------------------------------

    def eval_map(self, values):
        """Evaluate at the given parameter assignment.

        ``values`` maps every parameter name to a value supporting +, *,
        and ** with possibly negative integer exponents (Fraction,
        cyclotomic numbers, ...).  A rational result is a Fraction.
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
            return _ZERO
        return Fraction(total) if total.__class__ is int else total

    # -- display ------------------------------------------------------

    def __str__(self):
        return signed_sum(
            term_text(str(self.terms[exps]), monomial_text(self.params, exps))
            for exps in sorted(self.terms, reverse=True)
        )

    def __repr__(self):
        return f"LaurentPoly({self})"


class UnitMonomial(FrozenRecord):
    """A unit of the coefficient ring of the form +-1 * prod params^e.

    These are exactly the scalars allowed in commutation data; keeping
    the sign explicit lets the torsion check reason about -1.  params is
    a tuple of names and exps a tuple of ints of the same width.
    """

    _fields = ("params", "sign", "exps")

    def __init__(self, params, sign, exps):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        exps = _as_exponents(exps)
        if len(exps) != len(params):
            raise ValueError("exponent vector width does not match params")
        _set_field(self, "params", params)
        _set_field(self, "sign", sign)
        _set_field(self, "exps", exps)

    @classmethod
    def _make(cls, params, sign, exps):
        """Trusted constructor: sign +-1 and exps an int tuple as wide as
        params.  It checks none of that."""
        self = object.__new__(cls)
        _set_field(self, "params", params)
        _set_field(self, "sign", sign)
        _set_field(self, "exps", exps)
        return self

    # units are compared and hashed often, so these skip _values
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.params, self.sign, self.exps) == \
                (other.params, other.sign, other.exps)
        return NotImplemented

    def __hash__(self):
        return hash((self.params, self.sign, self.exps))

    @classmethod
    def one(cls, params):
        params = tuple(params)
        return cls._make(params, 1, (0,) * len(params))

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
        return UnitMonomial._make(
            self.params,
            self.sign * other.sign,
            tuple(map(_add, self.exps, other.exps)),
        )

    def pow(self, n):
        n = _as_exponent(n)
        return UnitMonomial._make(
            self.params,
            self.sign if n % 2 else 1,
            tuple(e * n for e in self.exps),
        )

    def inverse(self):
        # a sign +-1 is its own inverse
        return UnitMonomial._make(self.params, self.sign, tuple(-e for e in self.exps))

    def as_poly(self):
        return LaurentPoly._make(self.params, {self.exps: self.sign})

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
        return UnitMonomial._make(self.params, -self.sign, self.exps)

    def __str__(self):
        return term_text(str(self.sign), monomial_text(self.params, self.exps))

    def __repr__(self):
        return f"UnitMonomial({self})"


def unit_product(factors, params=None):
    """Product of (unit, exponent) pairs; the empty product is 1.

    The exponent vectors are summed with those multiplicities and the
    signs of odd powers of negative units multiplied, so no intermediate
    unit is built; a lone unit to the first power is returned as it is.
    An empty factor list needs the params argument for context, since
    there is nothing to read the parameter tuple from.
    """
    first, sign, cols = None, 1, []
    for unit, power in factors:
        if unit.params is not first:
            if first is None:
                first = unit.params
            elif unit.params != first:
                raise ValueError("parameter tuples differ")
        if unit.sign < 0 and power % 2:
            sign = -sign
        cols.append(unit.exps if power == 1 else map(power.__mul__, unit.exps))
    if first is None:
        if params is None:
            raise ValueError("empty factor list has no parameter context")
        return UnitMonomial.one(params)
    if len(cols) == 1 and power == 1:
        return unit
    return UnitMonomial._make(first, sign, tuple(map(sum, zip(*cols))))


def support(key):
    """The positions of a key's nonzero entries, in ascending order."""
    return [i for i, e in enumerate(key) if e]


def normal_scalar(pairing, a, b, params, support_a, support_b):
    """sigma(a, b) with Y^a * Y^b = sigma(a, b) * Y^(a+b), where the
    generators satisfy Y_i Y_j = pairing(i, j) Y_j Y_i.

    Reordering the concatenation into ascending index order swaps each
    pair (i from a) > (j from b) once, contributing
    pairing(i, j)^(a_i*b_j).  A pair with a_i or b_j zero contributes
    nothing, so i and j run over the supports of a and b (``support``),
    which the caller passes in.
    """
    return unit_product(
        ((pairing(i, j), a[i] * b[j])
         for j in support_b for i in support_a if i > j),
        params,
    )


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
    from .intlinalg import kernel_basis

    rows = [[g.exps[r] for g in gens] for r in range(len(params))]
    for vec in kernel_basis(rows):
        if sum(vec[t] for t in negatives) % 2:
            return False
    return True


class FracElem(ExactValue):
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
            (num, den), = _reduced((num,), den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _make(cls, num, den):
        """Trusted constructor for a pair already as the checking one
        leaves it: den primitive, or one, and not dividing a nonzero num.
        It checks none of that."""
        self = object.__new__(cls)
        _set_field(self, "num", num)
        _set_field(self, "den", den)
        return self

    @classmethod
    def _all_over(cls, nums, den):
        """[FracElem(num, den) for num in nums] for LaurentPoly nums over
        den's params, with the nonzero den's content taken once."""
        return [cls._make(num, d) for num, d in _reduced(nums, den)]

    @property
    def params(self):
        return self.num.params

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, (FracElem, LaurentPoly, UnitMonomial, int, Fraction)):
            return as_field_element(other, self.params)
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

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FracElem(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def times_unit(self, unit):
        """self * unit with the denominator kept: a unit changes neither
        the denominator's content nor whether it divides the numerator,
        so the constructor's reductions are skipped."""
        num = self.num.times_unit(unit)
        if num is self.num:
            return self
        return FracElem._make(num, self.den)

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


def _reduced(nums, den):
    """The (num, den) pair FracElem keeps for each num over den, a
    nonzero LaurentPoly: den made primitive, num divided by den's content,
    and the pair (num / den, 1) when den divides num.  The content is
    taken once for all nums."""
    ratio, exps = den.content()
    den = den.divide_content(ratio, exps)
    one = LaurentPoly.one(den.params)
    pairs = []
    for num in nums:
        num = num.divide_content(ratio, exps)
        quot = None if den.is_one() else num.try_div(den)
        pairs.append((num, den) if quot is None else (quot, one))
    return pairs


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
