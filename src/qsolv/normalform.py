"""PBW normal forms and the q-twisted multiplication engine.

Elements are finite sums of ordered monomials g_1^{t_1} ... g_N^{t_N}
where the first n generators are polynomial (exponents in N) and the
remaining m are invertible (exponents in Z).

Products come from one table per presentation, keyed by pairs of
monomials.  A right product M * g_a, an ordered monomial M free of
invertible letters times one polynomial letter g_a, is the entry of
(M, e_a), e_a the exponent key of g_a.  A letter after g_a q-commutes
with it when it is invertible, or polynomial with no tail T_ac; when
every letter of M after g_a does, g_a moves into place by one scalar,
the product of the commutation scalars it crosses, and no entry is
filled.  Otherwise M = M' g_b with b its last letter, and the relation
g_a g_b = u g_b g_a + T_ab gives

    M * g_a = u^-1 (M' * g_a) * g_b - u^-1 M' * T_ab,

with like terms merged after every letter.  A monomial times a monomial
folds right products over the letters of the right factor, and the
invertible block moves by commutation scalars alone.  This reduction
order fixes the leftmost out-of-order pair of a word first, so normal
forms are the same as those of a word rewriter that does so, including
on presentations whose relations are not confluent: a move past letters
with no tail makes no tail, so the rewriter reaches the same scalar.
An entry is a fixed function of the presentation, so the table lives
in its engine (_Engine), made on its first product, and every nf_mul
call reads and extends it.  Filling it terminates because every tail
lives in the subalgebra generated by strictly later generators; a cap
of DEFAULT_BUDGET new fills per call, which happen only where a letter
crosses a relation with a tail, and a check for fills that need their
own result turn malformed tails into RewriteBudgetError.  Every pair
multiplied so far holds how it multiplies: in order, by one scalar, or,
where it crosses a tail, as its product at coefficient one, built from
the longest prefix of the right monomial whose pair the table holds;
the build stores the products by the first prefixes it passes, up to
_PREFIX_TERMS terms.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .errors import QsolvError, RewriteBudgetError
from .params import (
    FracElem, Frozen, LaurentPoly, UnitMonomial, _as_exponent, _as_exponents, _set_field,
    monomial_text, normal_scalar, signed_sum, support, term_text, unit_product,
)

# The most table fills one nf_mul call may add.  The engine reads it at
# each fill, not at import, so a lowered value holds from the next call.
DEFAULT_BUDGET = 10**6

# The most entries a presentation's engine keeps in its table between
# nf_mul calls; a call that leaves more clears it.  A benchmark round,
# seeds 1-5, peaks at 983 entries (products), 423 (powers), 108 (spectra).
_TABLE_CAP = 2048

# The most terms one product's build stores in the products by the
# prefixes of its right monomial that it passes (see _Engine.product), so
# what a build adds to the pair table beyond its own product is bounded
# whatever the size of the monomials.  On a products round (seed 3) it
# makes 1,122 letter steps, against 1,118 with no bound and 2,192 with no
# prefix stored.
_PREFIX_TERMS = 8


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
            key = _as_exponents(key)
            if len(key) != n + m:
                raise ValueError("exponent key width does not match presentation")
            if any(v < 0 for v in key[:n]):
                raise ValueError(
                    "negative exponent on a polynomial generator; localize instead"
                )
            coef = _coerce_coef(pres, coef)
            if coef.params != pres.params:
                raise ValueError("coefficient parameters do not match presentation")
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
        """Multiply every coefficient by a central scalar.  The
        coefficient ring is a domain, so a nonzero scalar keeps every
        key, and a unit one is an exponent shift of each coefficient."""
        if isinstance(value, UnitMonomial):
            return NFElement._make(
                self.pres, {k: c.times_unit(value) for k, c in self.terms.items()}
            )
        value = _coerce_coef(self.pres, value)
        if not value:
            return NFElement._make(self.pres, {})
        return NFElement._make(
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


# -- the product engine ----------------------------------------------------


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


class _Engine:
    """The product engine of one presentation, shared by its nf_mul calls.

    It keeps only what it reads of the presentation, so the two form no
    reference cycle and are freed without the cyclic collector.  Its
    table ``pairs`` grows across calls and says how each pair of
    monomials met so far multiplies (see pair_entry), a product as a term
    dict; M * g_a is the entry of (M, ``letters[a]``), filled only where
    g_a crosses a letter of M with a tail against it.  ``tails`` holds
    each tail as (coefficient, ascending letter word, invertible
    exponents).  ``fills`` counts the right products a call adds, at most
    DEFAULT_BUDGET, and ``pending`` holds those it is filling, so a fill
    that needs itself is caught at once and an interrupted call leaves no
    half-filled entry behind.  Products are built at coefficient ``one``.
    """

    __slots__ = ("n", "zero_k", "gens", "params", "cu", "tailed_after", "tails",
                 "letters", "pairs", "pending", "fills", "one")

    def __init__(self, pres):
        n = self.n = pres.n
        self.zero_k, self.gens, self.params = (0,) * pres.m, pres.gens, pres.params
        self.cu, self.tailed_after = pres._cu, pres._tailed_after
        self.tails = {
            pair: tuple((coef, tuple(_word(key, n)), key[n:]) for key, coef in body.items())
            for pair, body in pres.tails.items()}
        self.letters = tuple(tuple(int(p == a) for p in range(n + pres.m)) for a in range(n))
        self.pairs, self.pending, self.fills, self.one = {}, set(), 0, LaurentPoly.one(pres.params)

    def begin(self):
        """Start an nf_mul call: no fill made, none in progress."""
        self.pending.clear()
        self.fills = 0

    def cap(self):
        """End an nf_mul call: clear the table past _TABLE_CAP entries."""
        if len(self.pairs) > _TABLE_CAP:
            self.pairs.clear()

    def unit(self, a, b):
        """Scalar u with g_a g_b = u * g_b g_a, as Presentation.commutation_unit."""
        return self.cu[a][b]

    def pair_entry(self, k1, k2):
        """The ``pairs`` entry of monomials k1 and k2: None when k1 * k2
        is in order, sigma(k1, k2), the one scalar of a product whose
        crossing letters q-commute, and otherwise, where a polynomial
        letter of k1 comes after a letter g_a of k2 and has a tail
        against it, the product k1 * k2 at coefficient one (see
        product)."""
        s1, s2 = support(k1), support(k2)
        if not s1 or not s2 or s1[-1] <= s2[0]:
            return None
        n, tailed = self.n, self.tailed_after
        if any(k1[c] for a in s2 if a < n for c in tailed[a]):
            return self.product(k1, k2)
        return normal_scalar(self.unit, k1, k2, self.params, s1, s2)

    def product(self, k1, k2):
        """k1 * k2 at coefficient one as a term dict: k1 is multiplied on
        the right by the letters of k2, lowest first, and the invertible
        block of k2 joins last.

        The walk starts from the longest proper prefix P of k2, the
        monomial of its first letters, whose pair (k1, P) is in ``pairs``:
        None reads as the key k1 + P at coefficient one, sigma as that key
        at sigma, and a stored product, a right product too, as itself,
        which no step changes.  Each proper prefix the walk then passes
        whose pair crosses a tail is stored under (k1, P) as pair_entry
        would store it, while the prefixes this build stores hold at most
        _PREFIX_TERMS terms in all; a walk cut short keeps only the
        prefixes it finished."""
        n, pairs, one, tailed = self.n, self.pairs, self.one, self.tailed_after
        word, kvec = _word(k2, n), k2[n:]
        prefix, stop = list(k2[:n] + self.zero_k), len(word)
        if not any(kvec):
            stop -= 1
            prefix[word[stop]] -= 1
        start, terms = stop, {k1: one}
        while start:
            key = tuple(prefix)
            if (k1, key) in pairs:
                entry, key = pairs.get((k1, key)), tuple(map(add, k1, key))
                terms = ({key: one} if entry is None else
                         {key: one.times_unit(entry)} if entry.__class__ is UnitMonomial
                         else entry)
                break
            start -= 1
            prefix[word[start]] -= 1
        crossing, stored = any(k1[c] for a in word[:start] for c in tailed[a]), 0
        for i in range(start, len(word)):
            a = word[i]
            terms = self.times_letter(terms, a)
            prefix[a] += 1
            crossing = crossing or any(k1[c] for c in tailed[a])
            if crossing and i < stop and stored + len(terms) <= _PREFIX_TERMS:
                stored += len(terms)
                pairs[k1, tuple(prefix)] = terms
        return self.times_kblock(terms, kvec) if any(kvec) else terms

    def times_kblock(self, terms, kvec):
        """Right product of a term map with the ordered invertible block k^kvec."""
        n, right = self.n, (0,) * self.n + kvec
        support_r = [n + t for t, e in enumerate(kvec) if e]
        out = {}
        for key, coef in terms.items():
            unit = normal_scalar(self.unit, key, right, self.params, support(key), support_r)
            _accumulate(out, tuple(map(add, key, right)), coef.times_unit(unit))
        return out

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
                self.pairs[need[0], self.letters[need[1]]] = value = done.value
                continue
            self._start_fill(request)
            stack.append((request, self._fill(*request)))
            value = None

    def _start_fill(self, request):
        """Count a fill and mark its entry as in progress; raise when the
        call has made DEFAULT_BUDGET fills or the entry is already being
        filled."""
        looped = request in self.pending
        if not looped:
            self.fills += 1
            if self.fills <= DEFAULT_BUDGET:
                self.pending.add(request)
                return
        mono, a = request
        pair = f"{self.gens[_last_letter(mono, self.n)]}*{self.gens[a]}"
        if looped:
            raise RewriteBudgetError(
                f"rewriting {pair} needs its own result after {self.fills} "
                "table fills; the tails are not well-founded"
            )
        raise RewriteBudgetError(
            f"rewriting exceeded {DEFAULT_BUDGET} table fills at {pair}; "
            "check tail well-formedness"
        )

    def _times_letter(self, terms, a):
        """Generator behind times_letter: yields each (M, a) entry it
        needs that is not filled yet and receives its term map.

        A term whose letters after g_a all q-commute with it, being
        invertible or polynomial with no tail against g_a, moves g_a into
        place by one scalar; the rest move only the invertible block and
        take M * g_a from the table, under (M, e_a)."""
        n, cu, tailed, one = self.n, self.cu, self.tailed_after[a], self.one
        pairs, letter = self.pairs, self.letters[a]
        out = {}
        for key, coef in terms.items():
            if not any(map(key.__getitem__, tailed)):
                after = key[a + 1:]
                if any(after):
                    coef = coef.times_unit(unit_product(
                        (cu[c][a], e) for c, e in enumerate(after, a + 1) if e))
                _accumulate(out, key[:a] + (key[a] + 1,) + after, coef)
                continue
            kvec = key[n:]
            shifted = any(kvec)
            if shifted:
                # k^kvec * g_a = unit * g_a * k^kvec
                coef = coef.times_unit(
                    unit_product((cu[n + t][a], e) for t, e in enumerate(kvec) if e))
            mono = key[:n] + self.zero_k if shifted else key
            entry = pairs.get((mono, letter))
            if entry is None:
                entry = yield (mono, a)
            if shifted:
                entry = self.times_kblock(entry, kvec)
            for ekey, ecoef in entry.items():
                _accumulate(out, ekey, ecoef if coef is one else coef * ecoef)
        return out

    def _fill(self, mono, a):
        """Generator for the entry M * g_a, where M = M' g_b holds a letter
        with a tail against g_a, so a comes before its last letter b:

            M * g_a = u^-1 (M' * g_a) * g_b - u^-1 M' * T_ab

        from g_a g_b = u g_b g_a + T_ab."""
        b = _last_letter(mono, self.n)
        prev = mono[:b] + (mono[b] - 1,) + mono[b + 1:]
        u_inv = self.cu[b][a].as_poly()  # the mirrored entry is u^-1
        swapped = yield from self._times_letter({prev: u_inv}, a)
        out = yield from self._times_letter(swapped, b)
        for t_coef, t_word, t_kvec in self.tails.get((a, b), ()):
            part = {prev: -u_inv * t_coef}
            for letter in t_word:
                part = yield from self._times_letter(part, letter)
            if any(t_kvec):
                part = self.times_kblock(part, t_kvec)
            for key, coef in part.items():
                _accumulate(out, key, coef)
        return out


def _engine_of(pres):
    """The engine of pres, made on its first product and kept in
    ``Presentation._engine``."""
    engine = pres._engine
    if engine is None:
        engine = _Engine(pres)
        _set_field(pres, "_engine", engine)
    return engine


def nf_mul(left, right):
    """Product of two normal-form elements, again in normal form.

    Each pair of terms multiplies as monomials, by the pair's entry in
    the engine's pair table (see _Engine.pair_entry), which a miss fills
    from the two supports.  A pair whose crossing letters all q-commute,
    having no tail against each other, is the sum of the exponent keys
    times one scalar, sigma(k1, k2), applied as a shift of the
    coefficient's exponents (``times_unit``); a pair already in order
    needs no scalar.  A pair that crosses a tail holds its product at
    coefficient one, built on its first miss through the right products
    M * g_a from the longest stored prefix of k2 (see _Engine.product),
    and each of its terms is taken times the product of the two
    coefficients.

    The call reads and extends the table, so it fills only the entries
    no earlier call has, and DEFAULT_BUDGET caps its new right products.
    Exceeding the cap, or a fill that needs its own result, raises
    RewriteBudgetError; a pair whose product was cut short that way, or
    by any other exception, gets no entry.
    """
    if left.pres is not right.pres:
        left._check(right)
    pres = left.pres
    engine = _engine_of(pres)
    engine.begin()
    pairs = engine.pairs
    rights = right.terms.items()
    out = {}
    for k1, c1 in left.terms.items():
        for k2, c2 in rights:
            try:
                entry = pairs[k1, k2]
            except KeyError:
                entry = pairs[k1, k2] = engine.pair_entry(k1, k2)
            coef = c1 * c2
            if entry is None:
                _accumulate(out, tuple(map(add, k1, k2)), coef)
            elif entry.__class__ is UnitMonomial:
                _accumulate(out, tuple(map(add, k1, k2)), coef.times_unit(entry))
            else:
                for key, c in entry.items():
                    _accumulate(out, key, coef * c)
    engine.cap()
    return NFElement._make(pres, out)


# -- skew actions -------------------------------------------------------


def tau_apply(pres, i, element, power=1):
    """Apply the diagonal automorphism attached to polynomial generator i
    (0-based), ``power`` times; negative powers are allowed."""
    if not 0 <= i < pres.n:
        raise QsolvError("tau index must name a polynomial generator")
    if element.pres is not pres:
        pres.zero()._check(element)
    power = _as_exponent(power)
    terms = {}
    for key, coef in element.terms.items():
        terms[key] = coef.times_unit(pres.key_weight(i, key).pow(power))
    return NFElement._make(pres, terms)


def delta_apply(pres, i, element):
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
    return nf_mul(x, element) - nf_mul(tau_apply(pres, i, element), x)


def skew_action(pres, i, kind, element):
    """Dispatch for the two skew operators: kind is 'tau' or 'delta'."""
    if kind == "tau":
        return tau_apply(pres, i, element)
    if kind == "delta":
        return delta_apply(pres, i, element)
    raise QsolvError(f"unknown skew action {kind!r}")


# -- Gaussian binomials and the twisted Leibniz rule ---------------------


def _gaussian_coefficients(n, i):
    """The Gaussian binomial [n choose i] as int coefficients of q^0, q^1, ...

    It is built as the entry itself, C(n, k) = C(n, k - 1) *
    (1 - q^(n-k+1)) / (1 - q^k) for k up to min(i, n - i), each step one
    exact division.  The quotient Q of P by 1 - q^k has Q[j] = P[j] +
    Q[j - k], so the division stays in the integers.
    """
    n, i = _as_exponent(n), _as_exponent(i)
    if i < 0 or i > n:
        raise ValueError("binomial index out of range")
    coeffs = [1]
    for k in range(1, min(i, n - i) + 1):
        shift = [0] * (n - k + 1)
        coeffs = list(map(sub, coeffs + shift, shift + coeffs))[:-k]
        for j in range(k, len(coeffs)):
            coeffs[j] += coeffs[j - k]
    return coeffs


def q_binomial(n, i):
    """Gaussian binomial coefficient as a polynomial in q, with int
    coefficients; the classical binomial appears on substituting 1."""
    coeffs = _gaussian_coefficients(n, i)
    return LaurentPoly._make(("q",), {(k,): c for k, c in enumerate(coeffs)})


def q_integer(n):
    """1 + q + ... + q^(n-1) as a polynomial in q, for n >= 0."""
    n = _as_exponent(n)
    if n < 0:
        raise ValueError("q-integer index must be nonnegative")
    return LaurentPoly(("q",), {(k,): 1 for k in range(n)})


def q_binomial_at_unit(n, i, unit):
    """Gaussian binomial evaluated at a unit monomial scalar, summed in
    one pass: the power of the unit steps up by ``times_unit``."""
    power = LaurentPoly.one(unit.params)
    total = {}
    for coef in _gaussian_coefficients(n, i):
        (exps, sign), = power.terms.items()
        coef = total.get(exps, 0) + sign * coef
        if coef:
            total[exps] = coef
        else:
            del total[exps]
        power = power.times_unit(unit)
    return LaurentPoly._make(power.params, total)


def q_leibniz_expand(pres, i, npow, element):
    """Expand x_i^npow * a through the twisted Leibniz rule.

    Returns sum_j C(npow, j)_{q_i} tau^(npow-j) delta^j (a) x_i^(npow-j),
    which agrees with nf_mul(x_i^npow, a) on well-formed presentations.
    """
    npow = _as_exponent(npow)
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
        part = nf_mul(part, pres.gen_power(i, npow - j))
        total = total + part.scale(coef)
        if j < npow:
            delta_j = delta_apply(pres, i, delta_j)
    return total
