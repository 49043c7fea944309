"""Specialization of parameters into rational or cyclotomic values.

A presentation over Laurent parameters can be pushed into a concrete
field: rational numbers, a cyclotomic field (q at a root of unity), or
kept symbolic (a transcendental value generates the same field as the
parameter itself).  Specialized commutation data is re-validated; in
particular the torsion-freeness condition genuinely fails at roots of
unity, where the finiteness-over-center witnesses take over.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import densepoly
from .errors import SpecializationError
from .params import (
    ExactValue, FracElem, Frozen, LaurentPoly, UnitMonomial, _as_coef, _as_exponent, _set_field,
    gamma_torsionfree, monomial_text, signed_sum, term_text,
)
from .presentation import (
    Finding,
    ValidationReport,
    relation_findings,
    scalar_units,
    validate_presentation,
)

MAX_CYCLOTOMIC_ORDER = 64


_CYCLOTOMIC_CACHE = {}


def cyclotomic_polynomial(N):
    """Coefficients of the N-th cyclotomic polynomial, ascending, exact.

    Computed by dividing z^N - 1 by the cyclotomic polynomials of the
    proper divisors of N.
    """
    N = _as_exponent(N)
    if N < 1:
        raise SpecializationError("root-of-unity order must be positive")
    if N > MAX_CYCLOTOMIC_ORDER:
        raise SpecializationError(
            f"root-of-unity order {N} exceeds the supported bound "
            f"{MAX_CYCLOTOMIC_ORDER}"
        )
    if N in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[N]
    poly = [Fraction(-1)] + [Fraction(0)] * (N - 1) + [Fraction(1)]
    for d in range(1, N):
        if N % d == 0:
            poly, rem = densepoly.divmod(poly, cyclotomic_polynomial(d))
            assert not rem
    result = tuple(poly)
    _CYCLOTOMIC_CACHE[N] = result
    return result


class CycNumber(ExactValue):
    """An element of Q(zeta_N), stored as a residue modulo the N-th
    cyclotomic polynomial.  Its values are read as a LaurentPoly reads a
    coefficient (int or Fraction, never a float or a string) and kept as
    Fractions."""

    __slots__ = ("N", "vec")

    def __init__(self, N, vec):
        N = _as_exponent(N)
        phi = cyclotomic_polynomial(N)
        dense = [Fraction(_as_coef(v)) for v in vec]
        if len(dense) >= len(phi):
            _, dense = densepoly.divmod(dense, phi)
        dense += [Fraction(0)] * (len(phi) - 1 - len(dense))
        _set_field(self, "N", N)
        _set_field(self, "vec", tuple(dense))

    @classmethod
    def const(cls, N, value):
        return cls(N, [value])

    @classmethod
    def zeta(cls, N, power=1):
        N = _as_exponent(N)
        power = _as_exponent(power) % N
        return cls(N, [Fraction(0)] * power + [Fraction(1)])

    def is_zero(self):
        return not any(self.vec)

    def is_one(self):
        return self.vec[0] == 1 and not any(self.vec[1:])

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.N != self.N:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.const(self.N, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNumber(self.N, [a + b for a, b in zip(self.vec, other.vec)])

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self.N, [-a for a in self.vec])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycNumber(self.N, densepoly.mul(self.vec, other.vec))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # extended Euclid in Q[z] against the cyclotomic modulus, which
        # is irreducible, so the gcd with a nonzero residue is constant
        r0, r1 = cyclotomic_polynomial(self.N), densepoly.trim(list(self.vec))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = densepoly.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, densepoly.sub(s0, densepoly.mul(q, s1))
        assert len(r0) == 1
        g = r0[0]
        return CycNumber(self.N, [c / g for c in s0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        n = _as_exponent(n)
        if n < 0:
            return self.inverse() ** (-n)
        result = CycNumber.const(self.N, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.vec == other.vec

    def __hash__(self):
        return hash((self.N, self.vec))

    def __str__(self):
        return signed_sum(
            term_text(str(c), monomial_text(("z",), (e,)))
            for e, c in enumerate(self.vec) if c
        )

    def __repr__(self):
        return f"CycNumber(zeta_{self.N}: {self})"


class SpecTarget(Frozen):
    """Where the parameters go: exact rationals, a cyclotomic field, or
    nowhere (transcendental mode keeps them symbolic)."""

    __slots__ = ("kind", "values", "order", "exponents", "_roots")
    _memos = ("_roots",)

    def __init__(self, kind, values=None, order=None, exponents=None):
        _set_field(self, "kind", kind)
        _set_field(self, "values", values)
        _set_field(self, "order", order)
        _set_field(self, "exponents", exponents)
        _set_field(self, "_roots", None)  # (sign, k) -> sign * zeta^k, made on first use

    @classmethod
    def rational(cls, values):
        clean = {}
        for name, v in dict(values).items():
            v = Fraction(_as_coef(v))
            if not v:
                raise SpecializationError(
                    f"parameter {name} must stay a unit; zero is not allowed"
                )
            clean[name] = v
        return cls("rational", values=clean)

    @classmethod
    def cyclotomic(cls, order, exponents):
        order = _as_exponent(order)
        cyclotomic_polynomial(order)  # rejects an unsupported order
        exps = {name: _as_exponent(e) % order for name, e in dict(exponents).items()}
        return cls("cyclotomic", order=order, exponents=exps)

    @classmethod
    def transcendental(cls):
        return cls("transcendental")

    def assignment(self, params):
        """Parameter-to-value map for evaluation, or None in symbolic mode."""
        if self.kind == "transcendental":
            return None
        if self.kind == "rational":
            missing = [p for p in params if p not in self.values]
            if missing:
                raise SpecializationError(
                    f"no value for parameter(s) {', '.join(missing)}"
                )
            return {p: self.values[p] for p in params}
        missing = [p for p in params if p not in self.exponents]
        if missing:
            raise SpecializationError(
                f"no exponent for parameter(s) {', '.join(missing)}"
            )
        return {
            p: CycNumber.zeta(self.order, self.exponents[p]) for p in params
        }

    def unit_value(self, unit):
        """Value of the unit monomial +-prod p^a at the target; the unit
        itself in symbolic mode.

        At zeta_N the value is +-zeta^k with k = sum a_p*e_p mod N, and for
        even N the sign folds into k, as -1 = zeta^(N/2).  Those values
        are memoized, so no power of zeta is ever multiplied out.
        """
        if self.kind == "transcendental":
            return unit
        if self.kind == "rational":
            value = Fraction(unit.sign)
            for name, a in zip(unit.params, unit.exps):
                if a:
                    value *= self.values[name] ** a
            return value
        N, sign = self.order, unit.sign
        k = self._zeta_exponent(unit.params, unit.exps)
        if sign < 0 and N % 2 == 0:
            k, sign = k + N // 2, 1
        key = (sign, k % N)
        roots = self._roots
        if roots is None:
            roots = {}
            _set_field(self, "_roots", roots)
        value = roots.get(key)
        if value is None:
            value = CycNumber.zeta(N, key[1])
            value = roots[key] = value if sign > 0 else -value
        return value

    def _zeta_exponent(self, params, exps):
        """k with prod p^a = zeta^k at this cyclotomic target."""
        return sum(a * self.exponents[name] for name, a in zip(params, exps))

    def __repr__(self):
        if self.kind == "rational":
            body = ", ".join(f"{k}={v}" for k, v in sorted(self.values.items()))
            return f"SpecTarget(rational: {body})"
        if self.kind == "cyclotomic":
            body = ", ".join(
                f"{k}=zeta^{e}" for k, e in sorted(self.exponents.items())
            )
            return f"SpecTarget(zeta_{self.order}: {body})"
        return "SpecTarget(transcendental)"


def _eval_poly(poly, target):
    """Value of a Laurent polynomial at a rational or cyclotomic target.

    At zeta_N each term's monomial is zeta^k with k read off its
    exponents, so the terms add up in one residue vector, reduced once.
    A constant comes back as a Fraction, as from ``LaurentPoly.eval_map``.
    """
    if target.kind != "cyclotomic" or not any(map(any, poly.terms)):
        return poly.eval_map(target.assignment(poly.params))
    N = target.order
    vec = [Fraction(0)] * N
    for exps, coef in poly.terms.items():
        vec[target._zeta_exponent(poly.params, exps) % N] += coef
    return CycNumber(N, vec)


def _eval_coef(coef, target):
    if isinstance(coef, FracElem):
        num = _eval_poly(coef.num, target)
        den = _eval_poly(coef.den, target)
        if den == 0:
            raise SpecializationError("coefficient denominator vanishes")
        return num / den
    if isinstance(coef, LaurentPoly):
        return _eval_poly(coef, target)
    return Fraction(coef)


def _coprime_base(numbers):
    """A pairwise coprime set of integers > 1 that writes every given
    positive integer as a product of its powers.

    Factor refinement (Bach, Driscoll and Shallit): a number a sharing a
    factor g > 1 with a base element b is replaced, together with b, by
    g, a/g and b/g.  Each split divides the product of all pending
    numbers by g, so there are fewer splits than bits in the input, and
    no number is factored into primes.
    """
    base = set()
    todo = [n for n in numbers if n > 1]
    while todo:
        a = todo.pop()
        if a == 1 or a in base:
            continue
        for b in base:
            g = gcd(a, b)
            if g > 1:
                base.remove(b)
                todo.extend((g, a // g, b // g))
                break
        else:
            base.add(a)
    return tuple(sorted(base))


def _valuation(n, b):
    e = 0
    while n % b == 0:
        n //= b
        e += 1
    return e


def rational_torsionfree(values):
    """Whether nonzero rationals generate a torsion-free multiplicative
    group.

    Positive rationals always do.  Otherwise each value is a sign times a
    monomial in a coprime base of its numerators and denominators, and
    the parity test of ``gamma_torsionfree`` decides.  Every prime
    divides exactly one base element, so the integer kernel, and with it
    the verdict, is the one of the prime factorizations.  The values are
    read as a LaurentPoly reads a coefficient, so a float or a string
    raises TypeError.
    """
    vals = [Fraction(_as_coef(v)) for v in values]
    if any(not v for v in vals):
        raise SpecializationError("zero is not a unit")
    if all(v > 0 for v in vals):
        return True
    base = _coprime_base(
        [abs(v.numerator) for v in vals] + [v.denominator for v in vals]
    )
    return gamma_torsionfree(
        UnitMonomial(base, 1 if v > 0 else -1, tuple(
            _valuation(abs(v.numerator), b) - _valuation(v.denominator, b)
            for b in base
        ))
        for v in vals
    )


class SpecializedPresentation(Frozen):
    """A presentation with all scalars pushed into the target field.

    Keeps the generator layout of the base presentation; scalar lookups
    mirror the symbolic API but return field values, and findings hold
    the re-run condition checks at the specialized values.
    """

    __slots__ = ("base", "target", "qskew_values", "tail_values", "findings")

    def __init__(self, base, target, qskew_values, tail_values, findings):
        _set_field(self, "base", base)
        _set_field(self, "target", target)
        _set_field(self, "qskew_values", tuple(qskew_values))
        _set_field(self, "tail_values", tail_values)
        _set_field(self, "findings", findings)

    @property
    def passed(self):
        return self.findings.passed

    def commutation_value(self, a, b):
        return self.target.unit_value(self.base.commutation_unit(a, b))

    def __repr__(self):
        state = "passes" if self.findings.passed else "fails"
        return (f"SpecializedPresentation({self.base.name} at {self.target}, "
                f"{state} validation)")


def specialize_presentation(p, target):
    """Evaluate every scalar of the presentation in the target field and
    re-run the condition checks there.

    In transcendental mode the symbolic presentation already is the
    answer, so its generic validation is returned unchanged.  At a root
    of unity the torsion check fails unless all scalars are 1, which is
    the expected root-of-unity dichotomy.
    """
    if target.kind == "transcendental":
        report = validate_presentation(p)
        tails = {pair: dict(terms) for pair, terms in p.tails.items()}
        return SpecializedPresentation(p, target, p.qskew, tails, report)

    target.assignment(p.params)  # every parameter needs a value
    unit = target.unit_value
    tail_values = {}
    for (i, j), terms in p.tails.items():
        vals = {}
        for key, coef in terms.items():
            v = _eval_coef(coef, target)
            if v != 0:
                vals[key] = v
        if vals:
            tail_values[(i, j)] = vals

    findings = relation_findings(p, unit, tail_values)
    scalars = [unit(u) for u in scalar_units(p)]
    if target.kind == "rational":
        torsionfree = rational_torsionfree(scalars)
    else:
        torsionfree = all(v == 1 for v in scalars)
    if not torsionfree:
        findings.append(Finding(
            "Q2", "commutation scalars",
            "specialized scalars generate torsion (root of unity); the "
            "generic stratification does not apply",
        ))

    qskew_values = tuple(unit(u) for u in p.qskew)
    report = ValidationReport(
        not any(f.severity == "error" for f in findings), tuple(findings)
    )
    return SpecializedPresentation(p, target, qskew_values, tail_values, report)


def classify_specialization(f, target):
    """Membership of the parameter value in the good open set of the
    rank-2 single-tail family.

    Transcendental values always lie inside; a rational value is inside
    exactly when it avoids 1 and the rational roots of the tail.
    """
    if target.kind == "transcendental":
        return True
    if target.kind != "rational":
        raise SpecializationError(
            "classification needs a rational or transcendental target"
        )
    from .strat import rational_roots

    if not isinstance(f, LaurentPoly):
        f = LaurentPoly.const(("q",), f)
    if len(f.params) != 1:
        raise SpecializationError("the family has a single parameter")
    name = f.params[0]
    lam = target.assignment(f.params)[name]
    roots, _ = rational_roots(f)
    return lam != 1 and lam not in roots


def is_central_at(p, element, target):
    """Exact centrality of an element after specializing coefficients.

    Commutators against every generator are computed symbolically in
    normal form and then evaluated; zero at the target means central.
    """
    from .normalform import nf_mul

    assignment = target.assignment(p.params)
    for g in range(p.n + p.m):
        diff = nf_mul(element, p.gen(g)) - nf_mul(p.gen(g), element)
        if assignment is None:
            if not diff.is_zero():
                return False
            continue
        for coef in diff.terms.values():
            if _eval_coef(coef, target) != 0:
                return False
    return True


def root_of_unity_witness(p, N):
    """Finiteness-over-center witness at q -> zeta_N for a tail-free
    single-parameter presentation.

    Returns (per-generator centrality of x_i^N, congruence lattice, rank
    over the center).  The N-th powers must commute with everything on
    the nose, and the lattice index is the module rank.
    """
    if p.has_tails:
        raise SpecializationError(
            "the root-of-unity witness needs a tail-free presentation"
        )
    if len(p.params) != 1:
        raise SpecializationError("single-parameter presentations only")
    from .torus import root_of_unity_structure, torus_of_presentation

    target = SpecTarget.cyclotomic(N, {p.params[0]: 1})
    central = tuple(
        is_central_at(p, p.gen_power(i, N), target) for i in range(p.n)
    )
    torus = torus_of_presentation(p, range(p.n + p.m))
    lattice, rank = root_of_unity_structure(torus, N)
    return central, lattice, rank
