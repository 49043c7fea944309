"""Stratification of the prime spectrum for structured families.

For purely q-commuting presentations every prime sits over a unique
monomial ideal, so the spectrum splits into 2^n strata indexed by
compositions: scanning the polynomial generators from the last one
backwards, a composition (i_1, .., i_{k+1}) sends i_1 generators to the
vanishing set, one to the inverted set, i_2 to the vanishing set, and so
on.  Each stratum localizes to a twisted Laurent algebra.

The rank-2 single-tail family x*y = q*y*x + f(q) is handled separately:
the normal element u = x*y - y*x splits Spec into the strata u in I and
u not in I, away from finitely many exceptional parameter values.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import densepoly
from .errors import FamilyError, QsolvError
from .params import Frozen, FrozenRecord, LaurentPoly, UnitMonomial, _as_exponent, _set_field
from .presentation import Presentation


def admissible_compositions(n):
    """All tuples (i_1, .., i_{k+1}) of nonnegative integers with
    k + sum = n, listed with k ascending then lexicographically.

    There are 2^n of them: k slots choose which of the n units separate
    the blocks.  For n = 0 the single composition is normalized to (0,).
    """
    n = _as_exponent(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for k in range(n + 1):
        rest = n - k
        out.extend(_parts(rest, k + 1))
    return out


def _parts(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for tail in _parts(total - first, slots - 1):
            yield (first,) + tail


class StratumDescriptor(FrozenRecord):
    """One locally closed piece of the spectrum.

    vanishing and inverted list generator names; the torus is the
    commutation data of the inverted generators plus every invertible
    one.
    """

    _fields = ("composition", "vanishing", "inverted", "torus")

    def __init__(self, composition, vanishing, inverted, torus):
        self._init(composition, vanishing, inverted, torus)


def _composition_blocks(n, composition):
    """Reverse-scan positions: (vanishing positions, inverted positions)."""
    vanish, invert = [], []
    cursor = n - 1
    for block, size in enumerate(composition):
        for _ in range(size):
            vanish.append(cursor)
            cursor -= 1
        if block < len(composition) - 1:
            invert.append(cursor)
            cursor -= 1
    if cursor != -1:
        raise ValueError(f"composition {composition} does not fit n = {n}")
    return tuple(sorted(vanish)), tuple(sorted(invert))


def _descriptor(p, composition):
    from .torus import torus_of_presentation

    vanish, invert = _composition_blocks(p.n, composition)
    laurent = tuple(range(p.n, p.n + p.m))
    torus = torus_of_presentation(p, invert + laurent)
    return StratumDescriptor(
        composition,
        tuple(p.gens[i] for i in vanish),
        tuple(p.gens[i] for i in invert),
        torus,
    )


def stratify_affine(p):
    """The 2^n strata of a tail-free presentation, ordered by composition.

    Each composition's reverse scan fixes which generators vanish on the
    stratum and which are inverted; the localized model is the torus of
    the inverted and invertible generators.
    """
    if p.has_tails:
        raise FamilyError(
            "stratification by monomial ideals needs a tail-free "
            "presentation; this one has nonzero tails"
        )
    return [
        _descriptor(p, comp)
        for comp in sorted(admissible_compositions(p.n))
    ]


def classify_affine_prime(p, vanishing):
    """The unique stratum whose vanishing set is the given one.

    Accepts generator names or positions; the composition is rebuilt by
    the same reverse scan that enumerates strata.
    """
    if p.has_tails:
        raise FamilyError(
            "stratification by monomial ideals needs a tail-free "
            "presentation; this one has nonzero tails"
        )
    positions = set()
    for g in vanishing:
        pos = g if isinstance(g, int) else p.position(g)
        if not 0 <= pos < p.n:
            raise ValueError(f"{g!r} is not a polynomial generator")
        positions.add(pos)
    parts = []
    run = 0
    for idx in range(p.n - 1, -1, -1):
        if idx in positions:
            run += 1
        else:
            parts.append(run)
            run = 0
    parts.append(run)
    return _descriptor(p, tuple(parts))


class Rank2Stratum(FrozenRecord):
    _fields = ("label", "containsU", "description")

    def __init__(self, label, containsU, description):
        self._init(label, containsU, description)


class Rank2Strata(Frozen):
    """Stratification data of the rank-2 single-tail family.

    uNormalForm is x*y - y*x reduced to the monomial basis; the two
    strata split primes by membership of u; exceptionalSet lists the
    rational parameter values (always including 1) where the generic
    picture breaks, with any rational-root-free cofactor of the tail
    kept symbolically in residualFactor.
    """

    __slots__ = ("tail", "uNormalForm", "strata", "exceptionalSet",
                 "residualFactor", "weylAtOne")

    def __init__(self, tail, u_nf, strata, exceptional, residual, weyl_at_one):
        _set_field(self, "tail", tail)
        _set_field(self, "uNormalForm", u_nf)
        _set_field(self, "strata", tuple(strata))
        _set_field(self, "exceptionalSet", tuple(exceptional))
        _set_field(self, "residualFactor", residual)
        _set_field(self, "weylAtOne", weyl_at_one)

    def __repr__(self):
        excl = ", ".join(str(v) for v in self.exceptionalSet)
        return f"Rank2Strata(u = {self.uNormalForm}; excluded {{{excl}}})"


def _divisors(n):
    """Positive divisors of n, ascending; none for n = 0."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def rational_roots(f):
    """Exact rational roots of a Laurent polynomial in one parameter,
    with multiplicity, plus the root-free cofactor.

    Candidates come from the rational root theorem on the primitive
    integer form; each confirmed root is divided out exactly.
    """
    if f.is_zero():
        return [], None
    if len(f.params) != 1:
        raise ValueError("rational root search needs a single parameter")
    # the primitive form divides out the factor q^k, whose only root is 0
    prim = f.primitive()
    coeffs = [int(prim.terms.get((e,), 0)) for e in range(max(prim.terms)[0] + 1)]
    # a root of any factor is a root of f, so one candidate list serves
    candidates = sorted({
        Fraction(sign * p, s)
        for p in _divisors(coeffs[0]) for s in _divisors(coeffs[-1])
        for sign in (-1, 1)
    })
    found, rest = densepoly.peel_roots(coeffs, candidates, Fraction)
    roots = [root for root, mult in found for _ in range(mult)]
    residual = None
    if len(rest) > 1:
        residual = LaurentPoly(
            f.params, {(e,): c for e, c in enumerate(rest) if c}
        ).primitive()
    return roots, residual


def _is_rank2(p):
    """True when p is x*y = q*y*x + f(q) in any names: two polynomial
    generators, one parameter q, and no tail but the scalar one of x, y."""
    if p.n != 2 or p.m != 0 or len(p.params) != 1:
        return False
    if any(pair != (0, 1) or any(any(key) for key in terms)
           for pair, terms in p.tails.items()):
        return False
    return p.commutation_unit(0, 1) == UnitMonomial.var(p.params, p.params[0])


def stratify_rank2(f=0):
    """Strata and exceptional parameter values of x*y = q*y*x + f(q).

    f is the tail, in any form ``rank2`` takes, or a presentation of the
    family in its own names.  Computes u = x*y - y*x in normal form,
    checks the normality relations u*y = q*y*u and x*u = q*u*x exactly,
    and reports the excluded parameter values {1} union the rational
    roots of f.
    """
    from .normalform import nf_mul

    if isinstance(f, Presentation):
        p = f
        if not _is_rank2(p):
            raise FamilyError(
                "stratification supports tail-free presentations and the "
                "rank-2 single-tail family only"
            )
    else:
        from .families import rank2

        p = rank2(f)
    q = p.commutation_unit(0, 1)
    x, y = p.gen(0), p.gen(1)
    u = nf_mul(x, y) - nf_mul(y, x)

    left = nf_mul(u, y) - nf_mul(y, u).scale(q.as_poly())
    right = nf_mul(x, u) - nf_mul(u, x).scale(q.as_poly())
    if not (left.is_zero() and right.is_zero()):
        raise QsolvError("normality of u = x*y - y*x failed; rewrite bug")

    # a nonzero f is the scalar tail of (x, y), and f = 0 leaves no tail
    tail = p.tails.get((0, 1), {}).get((0, 0), LaurentPoly.zero(p.params))
    roots, residual = rational_roots(tail)
    exceptional = sorted(set(roots) | {Fraction(1)})

    weyl_at_one = bool(tail.eval_map({p.params[0]: Fraction(1)}))
    strata = (
        Rank2Stratum(
            "M1", False,
            "primes avoiding u; localizing at the normal element u gives "
            "a twisted Laurent model",
        ),
        Rank2Stratum(
            "M2", True,
            "primes containing u; the quotient by u is commutative",
        ),
    )
    return Rank2Strata(tail, u, strata, exceptional, residual, weyl_at_one)
