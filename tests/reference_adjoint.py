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
"""

from qsolv import AdRootError, UnitMonomial, ad_apply, densepoly, loc_element
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
