"""Reference word rewriter for PBW products, kept as a test oracle.

It rewrites words one adjacent inversion at a time, always the leftmost,
and merges equal words only at the end.  Its work grows exponentially
with degree, so it serves small products only.  nf_mul must agree with
it exactly, including on presentations whose relations are not
confluent, where the order of rewriting decides the result.  The
scalars of the invertible block are folded here unit by unit, apart from
the engine's own code for them.
"""

from qsolv import NFElement, RewriteBudgetError, UnitMonomial


def _kshift_unit(pres, letter, kvec):
    """Scalar picked up moving the invertible block k^kvec right across
    one polynomial letter: k^v * g = scalar * g * k^v."""
    unit = UnitMonomial.one(pres.params)
    n = pres.n
    for t, e in enumerate(kvec):
        if e:
            unit = unit * pres.commutation_unit(letter, n + t).pow(-e)
    return unit


def _kmerge_unit(pres, left, right):
    """Scalar from merging two ordered invertible blocks:
    k^left * k^right = scalar * k^(left+right)."""
    unit = UnitMonomial.one(pres.params)
    n = pres.n
    for t in range(pres.m):
        if not left[t]:
            continue
        for u in range(t):
            if right[u]:
                unit = unit * pres.commutation_unit(n + t, n + u).pow(
                    left[t] * right[u]
                )
    return unit


def _key_to_xword(pres, key):
    word = []
    for pos in range(pres.n):
        word.extend([pos] * key[pos])
    return tuple(word)


def _normalize(pres, items, budget):
    """Rewrite (coef, xword, kvec) items into PBW form.

    Strategy: repeatedly fix the leftmost adjacent inversion in the
    polynomial word.  The swap keeps the multidegree; the tail branch
    strictly lowers the count of the earlier generator, so the process
    terminates on well-formed presentations.
    """
    out = {}
    stack = list(items)
    steps = 0
    zero_k = (0,) * pres.m
    tails = {
        pair: [(coef, _key_to_xword(pres, key), key[pres.n:]) for key, coef in body.items()]
        for pair, body in pres.tails.items()
    }
    while stack:
        coef, word, kvec = stack.pop()
        spot = None
        for p in range(len(word) - 1):
            if word[p] > word[p + 1]:
                spot = p
                break
        if spot is None:
            key = [0] * (pres.n + pres.m)
            for letter in word:
                key[letter] += 1
            key[pres.n:] = kvec
            key = tuple(key)
            if key in out:
                out[key] = out[key] + coef
            else:
                out[key] = coef
            continue
        steps += 1
        if steps > budget:
            raise RewriteBudgetError(
                f"rewriting exceeded {budget} steps; "
                "check tail well-formedness or raise the budget"
            )
        b, a = word[spot], word[spot + 1]
        u_inv = pres.commutation_unit(a, b).inverse().as_poly()
        swapped = word[:spot] + (a, b) + word[spot + 2:]
        base = coef * u_inv
        stack.append((base, swapped, kvec))
        tail = tails.get((a, b))
        if tail:
            rest = word[spot + 2:]
            for t_coef, t_xword, t_kvec in tail:
                scalar = UnitMonomial.one(pres.params)
                if t_kvec != zero_k:
                    for letter in rest:
                        scalar = scalar * _kshift_unit(pres, letter, t_kvec)
                    scalar = scalar * _kmerge_unit(pres, t_kvec, kvec)
                new_coef = -base * t_coef * scalar.as_poly()
                new_k = tuple(x + y for x, y in zip(t_kvec, kvec))
                stack.append((new_coef, word[:spot] + t_xword + rest, new_k))
    return {k: c for k, c in out.items() if not c.is_zero()}


def reference_mul(left, right, budget=10**6):
    """Product of two normal-form elements by word rewriting."""
    left._check(right)
    pres = left.pres
    items = []
    n = pres.n
    for k1, c1 in left.terms.items():
        w1 = _key_to_xword(pres, k1)
        s1 = k1[n:]
        for k2, c2 in right.terms.items():
            w2 = _key_to_xword(pres, k2)
            s2 = k2[n:]
            scalar = UnitMonomial.one(pres.params)
            if any(s1):
                for letter in w2:
                    scalar = scalar * _kshift_unit(pres, letter, s1)
                scalar = scalar * _kmerge_unit(pres, s1, s2)
            coef = c1 * c2
            if not scalar.is_one():
                coef = coef * scalar.as_poly()
            items.append((coef, w1 + w2, tuple(x + y for x, y in zip(s1, s2))))
    return NFElement(pres, _normalize(pres, items, budget))
