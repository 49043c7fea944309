"""Reference minimal polynomial for the adjoint, kept as a test oracle.

ad_minimal_polynomial used to iterate the conjugation action, re-lift
every Krylov vector to one common denominator at each step, detect the
first linear dependence by elimination over the fraction field, and
trial-divide the monic result by a wide heuristic pool: 1, every
conjugation weight w of the lifted numerator monomials with its
inverse, every quotient u*v^-1 of two weights, and every commutation
scalar and q_i with its inverse.  The library now peels the roots off
the conjugation weights one factor at a time; peel_roots reports roots
in candidate order, and the pool sorts by the library's key, so the two
must give the same minimal polynomial, roots and multiplicities.

ad_eigencomponents used to apply the peel's numerator step d - 1 times
for each of the d components, 2d^2 products in all; the library now
sums the peel's own vectors in the Newton form of each projector.
reference_eigencomponents keeps the old loop, and reads the minimal
polynomial through the adjoint module, so a test can swap in the
elimination above.

The library used to multiply the factors t - w of the minimal polynomial
with densepoly.mul, and to divide each component by scaling it with
FracElem(1, den), three checked FracElem constructions per coefficient.
It now shifts exponents by the units -w, and takes den's content once
per component.  reference_spectrum keeps both old constructions on the
library's own peel, so the two must agree term for term, coefficient
types included.
"""

from qsolv import (
    AdRootError, FracElem, LaurentPoly, LocElement, NFElement, RepeatedRootError,
    UnitMonomial, ad_apply, adjoint, densepoly, loc_element, nf_mul,
)
from qsolv.adjoint import AdSpectrum, _conjugation_weight
from qsolv.params import as_field_element


def reference_root_candidates(p, xidx, coord_maps):
    """The units 1, w, w^-1 and u*v^-1 over the conjugation weights, and
    every commutation scalar and q_i with its inverse, smallest first."""
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


def reference_minimal_polynomial(p, xidx, a, degree_cap=16):
    """The minimal polynomial by Krylov elimination over the fraction
    field, its roots peeled off the wide candidate pool."""
    a = loc_element(p, xidx, a)
    if a.is_zero():
        raise AdRootError("the zero element has no minimal polynomial")
    params = p.params
    zero, one = as_field_element(0, params), as_field_element(1, params)

    # The algebra is a domain, hence lifting preserves independence and a
    # dependence always involves the newest vector.
    vectors = [a]
    combo_found = None
    for step in range(degree_cap + 1):
        d = max(v.dpow for v in vectors)
        coords = [v.lifted(d).terms for v in vectors]
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
        raise AdRootError(f"no dependence within {degree_cap} conjugation steps")

    degree = max(combo_found)
    if degree == 0:
        raise AdRootError("the element lifts to zero in the localization")
    lead = combo_found[degree]
    coeffs = [combo_found.get(t, zero) / lead for t in range(degree + 1)]

    candidates = reference_root_candidates(p, xidx, coords)
    found, rest = densepoly.peel_roots(coeffs, candidates, UnitMonomial.as_poly)
    if len(rest) > 1:
        raise AdRootError("minimal polynomial has a root outside the pool")
    return AdSpectrum(p, xidx, a, coeffs, [root for root, _ in found],
                      [mult for _, mult in found])


def reference_eigencomponents(p, xidx, a, degree_cap=16):
    """Each component by its own d - 1 numerator steps, one per other root."""
    spec = adjoint.ad_minimal_polynomial(p, xidx, a, degree_cap)
    for root, mult in zip(spec.roots, spec.multiplicities):
        if mult > 1:
            raise RepeatedRootError(root)
    a = spec.element
    x = p.gen(xidx)
    one = LaurentPoly.one(p.params)
    components = []
    for m, gm in enumerate(spec.roots):
        if len(spec.roots) == 1:
            components.append(a)
            break
        num, den = a.num, one
        for j, gj in enumerate(spec.roots):
            if j == m:
                continue
            num = nf_mul(x, num) - nf_mul(num, x).scale(gj)
            den = den * (gm.as_poly() - gj.as_poly())
        comp = LocElement(p, xidx, num, a.dpow + len(spec.roots) - 1)
        components.append(comp.scale(FracElem(one, den)))
    return AdSpectrum(p, xidx, a, spec.minpoly, spec.roots,
                      spec.multiplicities, components)


def reference_minpoly(params, roots, mults):
    """prod (t - w)^m by dense products of LaurentPoly lists."""
    one = LaurentPoly.one(params)
    minpoly = [one]
    for root, mult in zip(roots, mults):
        factor = [-root.as_poly(), one]
        for _ in range(mult):
            minpoly = densepoly.mul(minpoly, factor)
    return minpoly


def reference_divided(comp, den):
    """comp with every coefficient multiplied by FracElem(1, den) in the
    fraction field."""
    value = FracElem(LaurentPoly.one(den.params), den)
    num = NFElement(comp.pres, {k: c * value for k, c in comp.num.terms.items()})
    return LocElement(comp.pres, comp.xidx, num, comp.dpow)


def reference_components(p, xidx, a, steps, roots):
    """The Newton-form components of the peel's steps, each divided by
    reference_divided."""
    d = len(steps)
    if d == 1:
        return [a] * len(roots)
    order = [weight for weight, _, _ in steps]
    w = [weight.as_poly() for weight in order]
    lifts = {d - 2: steps[-2][2], d - 1: steps[-1][1]}
    for k in range(min(map(order.index, roots)), d - 2):
        lifts[k] = nf_mul(steps[k][2], p.gen_power(xidx, d - 2 - k))
    one = LaurentPoly.one(p.params)
    out = []
    for root in roots:
        r = order.index(root)
        num, den = lifts[r], one
        for j, wj in enumerate(w):
            if j != r:
                diff = w[r] - wj
                den = den * diff
                if j > r:
                    num = num.scale(diff) + lifts[j]
        out.append(reference_divided(LocElement(p, xidx, num, a.dpow + d - 1), den))
    return out


def reference_spectrum(p, xidx, a, degree_cap=16, components=True):
    """The library's peel, its minimal polynomial from reference_minpoly
    and, when asked for, its components from reference_components."""
    a, roots, mults, steps = adjoint._peel(p, xidx, a, degree_cap, simple=components)
    comps = reference_components(p, xidx, a, steps, roots) if components else ()
    return AdSpectrum(p, xidx, a, reference_minpoly(p.params, roots, mults), roots,
                      mults, comps)
