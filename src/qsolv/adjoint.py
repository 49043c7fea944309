"""Conjugation by a generator in the localized algebra.

Localizing at a polynomial generator x turns conjugation a -> x a x^(-1)
into a computable action on elements num * x^(-d).  Iterating it on a
generator produces a finite cycle whose minimal polynomial factors over
the unit group; the eigencomponent formulas then split the generator
into q-commuting pieces, with denominators built from differences of
the eigenvalues.
"""

from __future__ import annotations

from . import densepoly
from .errors import AdRootError, LocalizationError, RepeatedRootError
from .normalform import NFElement, nf_mul
from .params import (
    FracElem, Frozen, LaurentPoly, UnitMonomial, _set_field, as_field_element, unit_product,
)


def _check_site(p, xidx):
    if not 0 <= xidx < p.n:
        raise LocalizationError(
            "localization is supported at polynomial generators only"
        )


def _divide_right_once(p, xidx, elem):
    """Exact right division by the localized generator, or None.

    A term divides when it carries the generator and every later
    polynomial letter it contains commutes with it without a tail; the
    single letter then moves out to the right across a scalar.
    """
    if elem.is_zero():
        return elem
    out = {}
    for key, coef in elem.terms.items():
        if key[xidx] < 1:
            return None
        if any(key[g] for g in p._tailed_after[xidx]):
            return None
        scalar = _conjugation_weight(p, xidx, (0,) * xidx + key[xidx:])
        newkey = list(key)
        newkey[xidx] -= 1
        out[tuple(newkey)] = coef * scalar.as_poly()
    return NFElement(p, out)


class LocElement(Frozen):
    """An element num * x^(-d) of the algebra localized at one generator.

    Kept normalized: while d > 0 and every numerator term is exactly
    right-divisible by x, a factor is cancelled.
    """

    __slots__ = ("pres", "xidx", "num", "dpow")

    def __init__(self, pres, xidx, num, dpow=0):
        _check_site(pres, xidx)
        if dpow < 0:
            raise LocalizationError("denominator power must be nonnegative")
        while dpow > 0:
            if num.is_zero():
                dpow = 0
                break
            reduced = _divide_right_once(pres, xidx, num)
            if reduced is None:
                break
            num = reduced
            dpow -= 1
        _set_field(self, "pres", pres)
        _set_field(self, "xidx", xidx)
        _set_field(self, "num", num)
        _set_field(self, "dpow", dpow)

    def is_zero(self):
        return self.num.is_zero()

    def lifted(self, dpow):
        """Numerator after raising the denominator to x^(-dpow)."""
        if dpow < self.dpow:
            raise LocalizationError("cannot lower the denominator exactly")
        if dpow == self.dpow:
            return self.num
        return nf_mul(self.num, self.pres.gen_power(self.xidx, dpow - self.dpow))

    def _pair(self, other):
        if not isinstance(other, LocElement):
            raise TypeError("expected a localized element")
        if self.xidx != other.xidx:
            raise LocalizationError("elements localized at different generators")
        self.num._check(other.num)
        return max(self.dpow, other.dpow)

    def __add__(self, other):
        d = self._pair(other)
        return LocElement(self.pres, self.xidx, self.lifted(d) + other.lifted(d), d)

    def __sub__(self, other):
        d = self._pair(other)
        return LocElement(self.pres, self.xidx, self.lifted(d) - other.lifted(d), d)

    def __neg__(self):
        return LocElement(self.pres, self.xidx, -self.num, self.dpow)

    def scale(self, value):
        if isinstance(value, UnitMonomial):
            value = value.as_poly()
        return LocElement(self.pres, self.xidx, self.num.scale(value), self.dpow)

    def __eq__(self, other):
        if not isinstance(other, LocElement):
            return NotImplemented
        d = self._pair(other)
        return self.lifted(d) == other.lifted(d)

    def __str__(self):
        name = self.pres.gens[self.xidx]
        if self.dpow == 0:
            return str(self.num)
        return f"({self.num})*{name}^-{self.dpow}"

    def __repr__(self):
        return f"LocElement({self})"


def loc_element(p, xidx, a):
    """Wrap an algebra element (or pass a localized one through)."""
    if isinstance(a, LocElement):
        if a.xidx != xidx:
            raise LocalizationError("element localized at a different generator")
        return a
    return LocElement(p, xidx, a, 0)


def ad_apply(p, xidx, a):
    """One conjugation step x * a * x^(-1) in the localization at x."""
    _check_site(p, xidx)
    a = loc_element(p, xidx, a)
    return LocElement(p, xidx, nf_mul(p.gen(xidx), a.num), a.dpow + 1)


class AdSpectrum(Frozen):
    """Minimal polynomial data of the conjugation action on one element.

    minpoly is monic with coefficients listed from degree zero upward;
    roots are pairwise distinct with matching multiplicities; components
    are filled in by the eigencomponent pass and sum to the element.
    """

    __slots__ = ("pres", "xidx", "element", "minpoly", "roots",
                 "multiplicities", "components")

    def __init__(self, pres, xidx, element, minpoly, roots, multiplicities,
                 components=()):
        _set_field(self, "pres", pres)
        _set_field(self, "xidx", xidx)
        _set_field(self, "element", element)
        _set_field(self, "minpoly", tuple(minpoly))
        _set_field(self, "roots", tuple(roots))
        _set_field(self, "multiplicities", tuple(multiplicities))
        _set_field(self, "components", tuple(components))

    @property
    def degree(self):
        return len(self.minpoly) - 1

    def is_semisimple(self):
        return all(m == 1 for m in self.multiplicities)

    def __repr__(self):
        roots = ", ".join(str(r) for r in self.roots)
        return f"AdSpectrum(degree {self.degree}, roots [{roots}])"


def _coordinates(vectors):
    """Numerator term maps of the vectors over one common denominator."""
    d = max(v.dpow for v in vectors)
    return [v.lifted(d).terms for v in vectors]


def _conjugation_weight(p, xidx, key):
    """The scalar s with x * Y^key = s * Y^key * x, tails aside."""
    return unit_product(
        ((p.commutation_unit(xidx, g), e)
         for g, e in enumerate(key) if e and g != xidx),
        p.params,
    )


def _root_candidates(p, xidx, coord_maps):
    """The units 1, w, w^-1 and u*v^-1 over the conjugation weights, and
    every commutation scalar and q_i with its inverse, smallest first.

    Units are handled as (sign, exps) keys, so each weight is inverted
    once and a repeated candidate builds nothing."""
    weights = set()
    for terms in coord_maps:
        for key in terms:
            u = _conjugation_weight(p, xidx, key)
            weights.add((u.sign, u.exps))
    inverses = [(s, tuple(-e for e in exps)) for s, exps in weights]
    pool = {(1, (0,) * len(p.params))}
    pool.update(weights, inverses)
    pool.update(
        (su * sv, tuple(a + b for a, b in zip(eu, ev)))
        for su, eu in weights for sv, ev in inverses
    )
    scalars = {(u.sign, u.exps) for u in (*p.qmat.values(), *p.qskew)}
    pool.update(scalars)
    pool.update((s, tuple(-e for e in exps)) for s, exps in scalars)
    ordered = sorted(
        pool, key=lambda k: (sum(map(abs, k[1])), k[1], -k[0])
    )
    return [UnitMonomial(p.params, s, exps) for s, exps in ordered]


def ad_minimal_polynomial(p, xidx, a, degree_cap=16):
    """Minimal polynomial of the conjugation action on an element.

    Iterates the action, detects the first linear dependence by exact
    elimination over the fraction field, then factors the monic result
    by trial division against unit-monomial candidates harvested from
    the iteration.  Every root must be found this way.
    """
    _check_site(p, xidx)
    a = loc_element(p, xidx, a)
    if a.is_zero():
        raise AdRootError("the zero element has no minimal polynomial")
    params = p.params
    zero, one = as_field_element(0, params), as_field_element(1, params)

    # Each new vector can deepen the common denominator and relabel every
    # coordinate, so the elimination is redone per step on fresh lifts.
    # The algebra is a domain, hence lifting preserves independence and a
    # dependence always involves the newest vector.
    vectors = [a]
    combo_found = None
    for step in range(degree_cap + 1):
        coords = _coordinates(vectors)
        reduced = []  # (pivot key, row dict, combination dict)
        for t, cmap in enumerate(coords):
            row = {k: as_field_element(c, params) for k, c in cmap.items()}
            combo = {t: one}
            for pivot, base, base_combo in reduced:
                if pivot not in row:
                    continue
                factor = row[pivot] / base[pivot]
                for k, c in base.items():
                    val = row.get(k, zero) - factor * c
                    if val.is_zero():
                        row.pop(k, None)
                    else:
                        row[k] = val
                for s, c in base_combo.items():
                    val = combo.get(s, zero) - factor * c
                    if val.is_zero():
                        combo.pop(s, None)
                    else:
                        combo[s] = val
            if not row:
                combo_found = combo
                break
            reduced.append((min(row), row, combo))
        if combo_found is not None or step == degree_cap:
            break
        vectors.append(ad_apply(p, xidx, vectors[-1]))
    if combo_found is None:
        raise AdRootError(
            f"no dependence within {degree_cap} conjugation steps; "
            "raise the degree cap or check the element"
        )

    degree = max(combo_found)
    if degree == 0:
        # only possible outside a domain, where a power of x kills the element
        raise AdRootError(
            "the element lifts to zero in the localization; "
            "it has no minimal polynomial"
        )
    lead = combo_found[degree]
    coeffs = [combo_found.get(t, zero) / lead for t in range(degree + 1)]

    candidates = _root_candidates(p, xidx, _coordinates(vectors))
    found, rest = densepoly.peel_roots(coeffs, candidates, UnitMonomial.as_poly)
    if len(rest) > 1:
        raise AdRootError(
            "minimal polynomial has a root outside the unit-monomial "
            "candidates; the q-skew hypotheses look violated "
            f"({len(candidates)} candidates tried, a factor of degree "
            f"{len(rest) - 1} is left)"
        )
    return AdSpectrum(p, xidx, a, coeffs, [root for root, _ in found],
                      [mult for _, mult in found])


def ad_eigencomponents(p, xidx, a, degree_cap=16):
    """Split an element into eigenvectors of the conjugation action.

    Component m is prod_(j != m) (Ad - gamma_j) applied to the element,
    divided by prod_(j != m) (gamma_m - gamma_j); requires all roots
    simple.
    """
    spec = ad_minimal_polynomial(p, xidx, a, degree_cap)
    for root, mult in zip(spec.roots, spec.multiplicities):
        if mult > 1:
            raise RepeatedRootError(root)
    a = spec.element
    params = p.params
    one = as_field_element(1, params)
    components = []
    for m, gm in enumerate(spec.roots):
        if len(spec.roots) == 1:
            components.append(a)
            break
        b = a
        den = LaurentPoly.one(params)
        for j, gj in enumerate(spec.roots):
            if j == m:
                continue
            b = ad_apply(p, xidx, b) - b.scale(gj)
            den = den * (gm.as_poly() - gj.as_poly())
        components.append(b.scale(one / den))
    return AdSpectrum(p, xidx, a, spec.minpoly, spec.roots,
                      spec.multiplicities, components)


def replacement_generator(p, xidx, gidx, degree_cap=16):
    """The eigencomponent of generator gidx whose eigenvalue is the bare
    commutation scalar with the localized generator; it q-commutes with
    that generator and can replace the original one."""
    spec = ad_eigencomponents(p, xidx, p.gen(gidx), degree_cap)
    target = p.commutation_unit(xidx, gidx)
    for root, comp in zip(spec.roots, spec.components):
        if root == target:
            return comp
    raise AdRootError(
        f"no component with eigenvalue {target}; cannot rebuild {p.gens[gidx]}"
    )


def difference_set(roots):
    """The pairwise differences gamma - gamma' of distinct roots, deduped
    up to repetition of equal polynomials."""
    out = []
    for i, gi in enumerate(roots):
        for j, gj in enumerate(roots):
            if i == j:
                continue
            d = gi.as_poly() - gj.as_poly()
            if d not in out:
                out.append(d)
    return out


def factor_over_differences(value, roots):
    """Factor a denominator as unit * product of root differences.

    Returns (unit monomial, list of (difference, exponent)); raises when
    some factor is not built from the difference set.
    """
    if isinstance(value, FracElem):
        if not value.den.is_one():
            raise AdRootError("expected a polynomial denominator")
        value = value.num
    factors = []
    for d in difference_set(roots):
        count = 0
        while True:
            quo = value.try_div(d)
            if quo is None:
                break
            value = quo
            count += 1
        if count:
            factors.append((d, count))
    unit = value.as_unit_monomial()
    if unit is None:
        raise AdRootError(
            f"residual factor {value} is not a unit; denominator escapes "
            "the difference set"
        )
    return unit, factors
