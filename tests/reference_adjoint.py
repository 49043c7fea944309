"""Reference root pool for the adjoint minimal polynomial, kept as a test oracle.

ad_minimal_polynomial used to trial-divide its minimal polynomial by a
wide heuristic pool: 1, every conjugation weight w of the lifted
numerator monomials with its inverse, every quotient u*v^-1 of two
weights, and every commutation scalar and q_i with its inverse.  The
library now tries the weights alone, which under WF tail placement hold
every root; peel_roots reports roots in candidate order, and both pools
sort by the same key, so swapping this pool in must change no answer.
"""

from qsolv import UnitMonomial
from qsolv.adjoint import _conjugation_weight


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
