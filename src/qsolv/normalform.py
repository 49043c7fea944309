"""PBW normal forms and the q-twisted multiplication engine.

Elements are finite sums of ordered monomials g_1^{t_1} ... g_N^{t_N}
where the first n generators are polynomial (exponents in N) and the
remaining m are invertible (exponents in Z).

Products come from a table of right products M * g_a, an ordered
monomial M times one polynomial letter g_a.  A letter after g_a
q-commutes with it when it is invertible, or polynomial with no tail
T_ac; when every letter of M after g_a does, g_a moves into place by
one scalar, the product of the commutation scalars it crosses, and no
entry is filled.  Otherwise M = M' g_b with b its last letter, and the
relation g_a g_b = u g_b g_a + T_ab gives

    M * g_a = u^-1 (M' * g_a) * g_b - u^-1 M' * T_ab,

with like terms merged after every letter.  A monomial times a monomial
folds right products over the letters of the right factor, and the
invertible block moves by commutation scalars alone.  This reduction
order fixes the leftmost out-of-order pair of a word first, so normal
forms are the same as those of a word rewriter that does so, including
on presentations whose relations are not confluent: a move past letters
with no tail makes no tail, so the rewriter reaches the same scalar.
An entry is a fixed function of the presentation, so the table lives
on the presentation and nf_mul calls share its fills; a call with an
explicit budget fills a table of its own.  Filling it terminates
because every tail lives in the subalgebra generated by strictly later
generators; a budget on the fills, which happen only where a letter
crosses a relation with a tail, and a check for fills that need their
own result turn malformed tails into RewriteBudgetError.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import QsolvError, RewriteBudgetError
from .params import (
    FracElem, Frozen, LaurentPoly, UnitMonomial, monomial_text, normal_scalar, signed_sum,
    term_text, unit_product,
)

DEFAULT_BUDGET = 10**6

# The most right products a presentation keeps between nf_mul calls; a
# call that leaves more clears them.  One round of any benchmark workload
# holds at most 419 entries, over all of its presentations.
_TABLE_CAP = 1024


def _coerce_coef(pres, value):
    if isinstance(value, (LaurentPoly, FracElem)):
        return value
    if isinstance(value, UnitMonomial):
        return value.as_poly()
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.const(pres.params, value)
    raise TypeError(f"cannot use {value!r} as a coefficient")


class NFElement(Frozen):
    """An algebra element in PBW normal form.

    terms maps exponent keys (tuples of length n+m) to nonzero
    coefficients, which are LaurentPoly values or, after eigencomponent
    constructions, FracElem values.
    """

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        object.__setattr__(self, "pres", pres)
        clean = {}
        n, m = pres.n, pres.m
        for key, coef in terms.items():
            key = tuple(int(v) for v in key)
            if len(key) != n + m:
                raise ValueError("exponent key width does not match presentation")
            if any(v < 0 for v in key[:n]):
                raise ValueError(
                    "negative exponent on a polynomial generator; localize instead"
                )
            coef = _coerce_coef(pres, coef)
            if not coef.is_zero():
                clean[key] = coef
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, pres, terms):
        """Trusted constructor for results that are already clean: keys
        int tuples of width n+m with no negative polynomial exponent,
        coefficients nonzero LaurentPoly or FracElem values.  It checks
        none of that."""
        self = object.__new__(cls)
        object.__setattr__(self, "pres", pres)
        object.__setattr__(self, "terms", terms)
        return self

    # -- queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def support(self):
        """Set of generator positions appearing with nonzero exponent."""
        used = set()
        for key in self.terms:
            for pos, e in enumerate(key):
                if e:
                    used.add(pos)
        return used

    def in_tail_subalgebra(self, i):
        """True when every monomial uses only generators after position i
        (invertible generators always qualify)."""
        n = self.pres.n
        return all(pos >= n or pos > i for pos in self.support())

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        zero = (0,) * (self.pres.n + self.pres.m)
        if set(self.terms) == {zero}:
            coef = self.terms[zero]
            if isinstance(coef, LaurentPoly):
                return coef.constant_value()
        return None

    # -- ring operations ------------------------------------------------

    def _check(self, other):
        if self.pres is not other.pres and self.pres != other.pres:
            raise QsolvError("elements belong to different presentations")

    def __add__(self, other):
        if not isinstance(other, NFElement):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for key, coef in other.terms.items():
            _accumulate(terms, key, coef)
        return NFElement._make(self.pres, terms)

    def __neg__(self):
        return NFElement._make(self.pres, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, NFElement):
            return NotImplemented
        return self + (-other)

    def scale(self, value):
        """Multiply every coefficient by a central scalar."""
        value = _coerce_coef(self.pres, value)
        return NFElement(
            self.pres, {k: c * value for k, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, NFElement):
            return nf_mul(self, other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, NFElement):
            return NotImplemented
        self._check(other)
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    # -- display ---------------------------------------------------------

    def __str__(self):
        pieces = []
        for key in sorted(self.terms):
            coef = self.terms[key]
            mono = monomial_text(self.pres.gens, key)
            cs = str(coef)
            # a coefficient that is a sum or a quotient is bracketed when
            # a monomial follows it
            if mono and (
                isinstance(coef, LaurentPoly) and len(coef.terms) > 1
                or isinstance(coef, FracElem)
                and not (coef.den.is_one() and len(coef.num.terms) <= 1)
            ):
                cs = f"({cs})"
            pieces.append(term_text(cs, mono))
        return signed_sum(pieces)

    def __repr__(self):
        return f"NFElement({self})"


# -- the multiplication table ----------------------------------------------


def _last_letter(key, n):
    """Position of the last polynomial letter of a monomial, or -1."""
    for pos in range(n - 1, -1, -1):
        if key[pos]:
            return pos
    return -1


def _word(key, n):
    """The polynomial letters of a monomial in ascending order."""
    word = []
    for pos in range(n):
        word.extend([pos] * key[pos])
    return word


def _accumulate(out, key, coef):
    """out[key] += coef, dropping the key when the sum cancels."""
    if key in out:
        coef = out[key] + coef
        if coef.is_zero():
            del out[key]
            return
    out[key] = coef


def _times_kblock(pres, terms, kvec):
    """Right product of a term map with the ordered invertible block k^kvec."""
    right = (0,) * pres.n + kvec
    out = {}
    for key, coef in terms.items():
        unit = normal_scalar(pres.commutation_unit, key, right, pres.params)
        if not unit.is_one():
            coef = coef * unit.as_poly()
        _accumulate(out, tuple(x + y for x, y in zip(key, right)), coef)
    return out


class _RightTable:
    """Right products M * g_a, as one nf_mul call fills and reads them.

    entries maps (M, a), with M an ordered monomial free of invertible
    letters, to the normal form of M * g_a as a term map.  Only products
    where g_a crosses a letter of M with a tail against it are stored;
    the others are one scalar.  With no budget, entries is the dict kept
    on the presentation (``Presentation._rtable``), shared by every such
    call; with a budget it is a dict of this call alone, so whether the
    call runs out does not depend on earlier calls.  Only finished
    entries go into it: an entry being filled is in ``pending``, local
    to the call, so a fill that asks for itself again is caught at once
    and an interrupted call leaves no half-filled entry behind.
    """

    def __init__(self, pres, budget):
        self.pres = pres
        if budget is None:
            self.budget, self.entries = DEFAULT_BUDGET, pres._rtable
        else:
            self.budget, self.entries = budget, {}
        self.pending = set()
        self.fills = 0
        self.zero_k = (0,) * pres.m

    def times_letter(self, terms, a):
        """Right product of a term map with polynomial letter a.

        The fills a product needs run on an explicit stack, not the
        Python call stack, so deep monomials cannot overflow it.
        """
        stack = [(None, self._times_letter(terms, a))]
        value = None
        while True:
            need, gen = stack[-1]
            try:
                request = gen.send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value
                self.pending.discard(need)
                self.entries[need] = value = done.value
                continue
            self._start_fill(request)
            stack.append((request, self._fill(*request)))
            value = None

    def _start_fill(self, request):
        """Count a fill and mark its entry as in progress; raise when the
        budget is spent or the entry is already being filled."""
        looped = request in self.pending
        if not looped:
            self.fills += 1
            if self.fills <= self.budget:
                self.pending.add(request)
                return
        mono, a = request
        gens = self.pres.gens
        pair = f"{gens[_last_letter(mono, self.pres.n)]}*{gens[a]}"
        if looped:
            raise RewriteBudgetError(
                f"rewriting {pair} needs its own result after {self.fills} "
                "table fills; the tails are not well-founded"
            )
        raise RewriteBudgetError(
            f"rewriting exceeded {self.budget} table fills at {pair}; "
            "check tail well-formedness or raise the budget"
        )

    def _times_letter(self, terms, a):
        """Generator behind times_letter: yields each (M, a) entry it
        needs that is not filled yet and receives its term map.

        A term whose letters after g_a all q-commute with it, being
        invertible or polynomial with no tail against g_a, moves g_a into
        place by one scalar; the rest move only the invertible block and
        take M * g_a from the table."""
        pres, n = self.pres, self.pres.n
        cu, tailed = pres._cu, pres._tailed_after[a]
        out = {}
        for key, coef in terms.items():
            if not any(map(key.__getitem__, tailed)):
                after = key[a + 1:]
                if any(after):
                    unit = unit_product(
                        (cu[c][a], e) for c, e in enumerate(after, a + 1) if e)
                    if not unit.is_one():
                        coef = coef * unit.as_poly()
                _accumulate(out, key[:a] + (key[a] + 1,) + after, coef)
                continue
            kvec = key[n:]
            shifted = any(kvec)
            if shifted:
                # k^kvec * g_a = unit * g_a * k^kvec
                unit = unit_product((cu[n + t][a], e) for t, e in enumerate(kvec) if e)
                if not unit.is_one():
                    coef = coef * unit.as_poly()
            mono = key[:n] + self.zero_k if shifted else key
            entry = self.entries.get((mono, a))
            if entry is None:
                entry = yield (mono, a)
            if shifted:
                entry = _times_kblock(pres, entry, kvec)
            for ekey, ecoef in entry.items():
                _accumulate(out, ekey, coef * ecoef)
        return out

    def _fill(self, mono, a):
        """Generator for the entry M * g_a, where M = M' g_b holds a letter
        with a tail against g_a, so a comes before its last letter b:

            M * g_a = u^-1 (M' * g_a) * g_b - u^-1 M' * T_ab

        from g_a g_b = u g_b g_a + T_ab."""
        pres = self.pres
        b = _last_letter(mono, pres.n)
        prev = mono[:b] + (mono[b] - 1,) + mono[b + 1:]
        u_inv = pres.commutation_unit(b, a).as_poly()  # the mirrored entry is u^-1
        swapped = yield from self._times_letter({prev: u_inv}, a)
        out = yield from self._times_letter(swapped, b)
        for t_coef, t_word, t_kvec in pres.tail_terms(a, b):
            part = {prev: -u_inv * t_coef}
            for letter in t_word:
                part = yield from self._times_letter(part, letter)
            if any(t_kvec):
                part = _times_kblock(pres, part, t_kvec)
            for key, coef in part.items():
                _accumulate(out, key, coef)
        return out


def nf_mul(left, right, budget=None):
    """Product of two normal-form elements, again in normal form.

    Each pair of terms multiplies as monomials.  When no letter of the
    left monomial that comes after a letter g_a of the right one has a
    tail against g_a, every crossing pair q-commutes, and the product is
    one normal_scalar times the sum of the exponent keys; a pair already
    in order is the case with no crossing pairs.  Otherwise the left
    monomial is multiplied on the right by the letters of the right one,
    lowest first, through a table of right products M * g_a (see
    _RightTable), and the invertible block of the right monomial joins
    last.

    Without a budget, the call reads and extends the table kept on the
    presentation, so it fills only the entries no earlier call has, and
    DEFAULT_BUDGET caps its new fills.  With a budget, it fills a table
    of its own from empty: budget caps the number of fills the product
    needs, which happen only where a letter moves across a relation
    with a tail, whatever ran before.  Exceeding the cap, or a fill that
    needs its own result, raises RewriteBudgetError.
    """
    if left.pres is not right.pres:
        left._check(right)
    pres = left.pres
    n, tailed = pres.n, pres._tailed_after
    table = _RightTable(pres, budget)
    rights = [
        (k2, c2, {c for a in range(n) if k2[a] for c in tailed[a]},
         next((j for j, e in enumerate(k2) if e), len(k2)))
        for k2, c2 in right.terms.items()
    ]
    out = {}
    for k1, c1 in left.terms.items():
        last1 = max((i for i, e in enumerate(k1) if e), default=-1)
        for k2, c2, crossers, first2 in rights:
            coef = c1 * c2
            if not any(map(k1.__getitem__, crossers)):
                if last1 > first2:  # a letter of k1 comes after one of k2
                    scalar = normal_scalar(pres.commutation_unit, k1, k2, pres.params)
                    if not scalar.is_one():
                        coef = coef * scalar.as_poly()
                _accumulate(out, tuple(x + y for x, y in zip(k1, k2)), coef)
                continue
            terms = {k1: coef}
            for a in _word(k2, n):
                terms = table.times_letter(terms, a)
            if any(k2[n:]):
                terms = _times_kblock(pres, terms, k2[n:])
            for key, c in terms.items():
                _accumulate(out, key, c)
    if len(table.entries) > _TABLE_CAP:
        table.entries.clear()
    return NFElement._make(pres, out)


# -- skew actions -------------------------------------------------------


def tau_apply(pres, i, element, power=1):
    """Apply the diagonal automorphism attached to polynomial generator i
    (0-based), ``power`` times; negative powers are allowed."""
    if not 0 <= i < pres.n:
        raise QsolvError("tau index must name a polynomial generator")
    terms = {}
    for key, coef in element.terms.items():
        weight = pres.key_weight(i, key).pow(power)
        terms[key] = coef * weight.as_poly()
    return NFElement(pres, terms)


def delta_apply(pres, i, element, budget=None):
    """The skew derivation at generator i: delta(a) = x_i a - tau(a) x_i.

    Defined on the subalgebra generated by later generators; the result
    lands in that subalgebra again.
    """
    if not 0 <= i < pres.n:
        raise QsolvError("delta index must name a polynomial generator")
    if not element.in_tail_subalgebra(i):
        raise QsolvError(
            "delta is defined on the subalgebra of later generators only"
        )
    x = pres.gen(i)
    result = nf_mul(x, element, budget) - nf_mul(tau_apply(pres, i, element), x, budget)
    return result


def skew_action(pres, i, kind, element):
    """Dispatch for the two skew operators: kind is 'tau' or 'delta'."""
    if kind == "tau":
        return tau_apply(pres, i, element)
    if kind == "delta":
        return delta_apply(pres, i, element)
    raise QsolvError(f"unknown skew action {kind!r}")


# -- Gaussian binomials and the twisted Leibniz rule ---------------------


def q_binomial(n, i, params=("q",), slot=0):
    """Gaussian binomial coefficient as a polynomial in one parameter.

    Computed by the q-Pascal recursion, so no division is involved; the
    classical binomial appears on substituting 1.
    """
    n, i = int(n), int(i)
    if i < 0 or i > n:
        raise ValueError("binomial index out of range")
    params = tuple(params)
    width = len(params)
    one = LaurentPoly.one(params)
    q_exps = tuple(1 if j == slot else 0 for j in range(width))
    row = [one]
    for level in range(1, n + 1):
        new = [one]
        for k in range(1, level):
            shift = LaurentPoly.monomial(params, tuple(e * k for e in q_exps))
            new.append(row[k - 1] + shift * row[k])
        new.append(one)
        row = new
    return row[i]


def q_integer(n, params=("q",), slot=0):
    """1 + q + ... + q^(n-1) in the designated parameter slot."""
    params = tuple(params)
    width = len(params)
    q_exps = tuple(1 if j == slot else 0 for j in range(width))
    terms = {}
    for k in range(int(n)):
        terms[tuple(e * k for e in q_exps)] = Fraction(1)
    return LaurentPoly(params, terms)


def q_binomial_at_unit(n, i, unit):
    """Gaussian binomial evaluated at a unit monomial scalar."""
    uni = q_binomial(n, i)
    total = LaurentPoly.zero(unit.params)
    for exps, coef in uni.terms.items():
        total = total + unit.pow(exps[0]).as_poly() * coef
    return total


def q_leibniz_expand(pres, i, npow, element, budget=None):
    """Expand x_i^npow * a through the twisted Leibniz rule.

    Returns sum_j C(npow, j)_{q_i} tau^(npow-j) delta^j (a) x_i^(npow-j),
    which agrees with nf_mul(x_i^npow, a) on well-formed presentations.
    """
    npow = int(npow)
    if npow < 0:
        raise ValueError("power must be nonnegative")
    if not element.in_tail_subalgebra(i):
        raise QsolvError(
            "Leibniz expansion needs an element of the later subalgebra"
        )
    q_i = pres.qskew[i]
    total = pres.zero()
    delta_j = element
    for j in range(npow + 1):
        if delta_j.is_zero():
            break
        coef = q_binomial_at_unit(npow, j, q_i)
        part = tau_apply(pres, i, delta_j, npow - j)
        part = nf_mul(part, pres.gen_power(i, npow - j), budget)
        total = total + part.scale(coef)
        if j < npow:
            delta_j = delta_apply(pres, i, delta_j, budget)
    return total
