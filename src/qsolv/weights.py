"""Weight bookkeeping for the diagonal automorphism group.

Every PBW monomial is an eigenvector of each tau_h; its weight vector
collects the n eigenvalues.  Elements split into weight-homogeneous
components, and ideal generator lists can be refined componentwise.
"""

from __future__ import annotations

from .normalform import NFElement
from .params import _as_exponents


def monomial_weight(p, key):
    """Weight vector of one exponent key: the tuple of eigenvalues of
    tau_1..tau_n on the monomial.  The key is read exactly and needs one
    exponent per generator."""
    key = _as_exponents(key)
    if len(key) != p.n + p.m:
        raise ValueError("exponent key width does not match presentation")
    return _key_weight(p, key)


def _key_weight(p, key):
    # an element's own keys are trusted: exact and of full width
    return tuple(p.key_weight(h, key) for h in range(p.n))


def weight_components(a):
    """Split an element into its weight-homogeneous parts.

    Returns (weight vector, component) pairs with pairwise distinct
    weights, deterministically ordered; the components sum back to the
    input.
    """
    p = a.pres
    buckets = {}
    for key, coef in a.terms.items():
        w = _key_weight(p, key)
        buckets.setdefault(w, {})[key] = coef
    items = [(w, NFElement._make(p, terms)) for w, terms in buckets.items()]
    items.sort(key=lambda pair: tuple((u.sign, u.exps) for u in pair[0]))
    return items


def element_weight(a):
    """The common weight vector of a homogeneous element, or None when
    the element mixes weights (or is zero)."""
    parts = weight_components(a)
    if len(parts) == 1:
        return parts[0][0]
    return None


def is_homogeneous(a):
    return len(weight_components(a)) <= 1


def split_ideal_generators(elements):
    """Refine a generating set by weight: each element is replaced by its
    components.  The ideal generated only grows toward its diagonal-stable
    core; duplicates are dropped, order is deterministic."""
    out = []
    for a in elements:
        for _, comp in weight_components(a):
            if comp not in out:
                out.append(comp)
    return out
