"""Conjugation by a generator in the localized algebra.

Localizing at a polynomial generator x turns conjugation a -> x a x^(-1)
into a computable action on elements num * x^(-d).  Under WF tail
placement the action is triangular on numerator monomials with unit
monomial weights on the diagonal, so the minimal polynomial on an element
is peeled off those weights one linear factor at a time; the
eigencomponent formulas then split the generator into q-commuting
pieces, with denominators built from differences of the eigenvalues.
"""

from __future__ import annotations

from .errors import AdRootError, LocalizationError, RepeatedRootError
from .normalform import NFElement, _accumulate, nf_mul
from .params import (
    FracElem, Frozen, LaurentPoly, _as_exponent, _set_field, unit_product,
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
    out = {}
    for key, coef in elem.terms.items():
        if key[xidx] < 1:
            return None
        if any(key[g] for g in p._tailed_after[xidx]):
            return None
        scalar = _conjugation_weight(p, xidx, (0,) * xidx + key[xidx:])
        newkey = list(key)
        newkey[xidx] -= 1
        out[tuple(newkey)] = coef.times_unit(scalar)
    return NFElement._make(p, out)


class LocElement(Frozen):
    """An element num * x^(-d) of the algebra localized at one generator.

    Kept normalized: while d > 0 and every numerator term is exactly
    right-divisible by x, a factor is cancelled.
    """

    __slots__ = ("pres", "xidx", "num", "dpow")

    def __init__(self, pres, xidx, num, dpow=0):
        _check_site(pres, xidx)
        dpow = _as_exponent(dpow)
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
        """Multiply by a central scalar."""
        return self._renumbered(self.num.scale(value))

    def _renumbered(self, num):
        """num over self's power of x, for num zero or with self's keys.
        It is then as reduced as self: it is built at power 0, which
        tests no division, and then given self's."""
        out = LocElement(self.pres, self.xidx, num)
        if num:
            _set_field(out, "dpow", self.dpow)
        return out

    def _over(self, den):
        """self divided by a nonzero coefficient den.  LaurentPoly
        coefficients share one reduction by den; a fraction coefficient
        is multiplied by FracElem(1, den)."""
        terms = self.num.terms
        if not all(isinstance(c, LaurentPoly) for c in terms.values()):
            return self.scale(FracElem(LaurentPoly.one(den.params), den))
        fracs = FracElem._all_over(terms.values(), den)
        return self._renumbered(NFElement._make(self.pres, dict(zip(terms, fracs))))

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

    minpoly is monic with LaurentPoly coefficients listed from degree zero
    upward; roots are pairwise distinct with matching multiplicities;
    components are filled in by the eigencomponent pass and sum to the
    element.  Only the components' coefficients are fractions.
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

    def __eq__(self, other):
        if not isinstance(other, AdSpectrum):
            return NotImplemented
        fields = self.__slots__
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    # the presentation and the elements are unhashable
    __hash__ = None

    def __repr__(self):
        roots = ", ".join(str(r) for r in self.roots)
        return f"AdSpectrum(degree {self.degree}, roots [{roots}])"


def _conjugation_weight(p, xidx, key):
    """The scalar s with x * Y^key = s * Y^key * x, tails aside."""
    return unit_product(
        ((p.commutation_unit(xidx, g), e)
         for g, e in enumerate(key) if e and g != xidx),
        p.params,
    )


def ad_minimal_polynomial(p, xidx, a, degree_cap=16):
    """Minimal polynomial of the conjugation action on an element.

    Peels one linear factor per step: with b the current vector and w
    the conjugation weight of the leading monomial of b * x, the next
    vector is Ad(b) - w * b, that is x * b - w * b * x over one more
    power of x.  The weights taken are the roots, and the count of each
    is its multiplicity.

    The result is exact.  Under WF no tail uses a letter at or before its
    pair's first generator, so every rewrite lowers a monomial
    lexicographically, and x * Y^key * x^(-1) is the weight of key times
    Y^key plus lower terms.  The action is thus triangular on numerator
    monomials with the weights on the diagonal, and each step lowers the
    leading monomial.  The peeled vectors have strictly falling leading
    monomials, so they are independent, and the product of their factors
    has the minimal degree.  Tails that break WF placement can stop the
    fall, which raises AdRootError.
    """
    a, roots, mults, _ = _peel(p, xidx, a, degree_cap)
    return AdSpectrum(p, xidx, a, _minimal_polynomial(p, roots, mults), roots, mults)


def _minimal_polynomial(p, roots, mults):
    """prod (t - w)^m over the roots w with multiplicities m, from degree
    zero upward.  Each factor shifts the list up one degree and adds the
    list times the unit -w, an exponent shift of each entry."""
    poly = [LaurentPoly.one(p.params)]
    for root, mult in zip(roots, mults):
        neg = -root
        for _ in range(mult):
            low = [c.times_unit(neg) for c in poly]
            poly = [low[0], *map(LaurentPoly.__add__, poly, low[1:]), poly[-1]]
    return poly


def _peel(p, xidx, a, degree_cap, simple=False):
    """The peel of ad_minimal_polynomial: the element, its roots, their
    multiplicities and the steps.

    Step k is (w_k, num_k, num_k * x): the weight taken, the numerator
    of b_k over x^(a.dpow + k), and its lift, so that b_(k+1) has the
    numerator x * num_k - w_k * num_k * x.  With simple set, a repeated
    root raises RepeatedRootError.
    """
    _check_site(p, xidx)
    degree_cap = _as_exponent(degree_cap)
    if degree_cap < 0:
        raise ValueError("degree_cap must be nonnegative")
    a = loc_element(p, xidx, a)
    if a.is_zero():
        raise AdRootError("the zero element has no minimal polynomial")
    x = p.gen(xidx)
    num = a.num
    steps = []
    counts = {}
    for _ in range(degree_cap):
        if num.is_zero():
            break
        lifted = nf_mul(num, x)
        if lifted.is_zero():
            # only possible outside a domain, where a power of x kills the element
            raise AdRootError(
                "the element lifts to zero in the localization; "
                "it has no minimal polynomial"
            )
        lead = max(lifted.terms)
        weight = _conjugation_weight(p, xidx, lead)
        counts[weight] = counts.get(weight, 0) + 1
        steps.append((weight, num, lifted))
        # x * num - weight * lifted, as one sum
        terms, neg = dict(nf_mul(x, num).terms), -weight
        for key, coef in lifted.terms.items():
            _accumulate(terms, key, coef.times_unit(neg))
        num = NFElement._make(p, terms)
        if num and max(num.terms) >= lead:
            raise AdRootError(
                "conjugation does not lower the leading monomial; "
                "a tail breaks WF placement"
            )
    if not num.is_zero():
        raise AdRootError(
            f"no dependence within {degree_cap} conjugation steps; "
            "raise the degree cap or check the element"
        )

    roots = sorted(counts, key=lambda u: (sum(map(abs, u.exps)), u.exps, -u.sign))
    if simple:
        for root in roots:
            if counts[root] > 1:
                raise RepeatedRootError(root)
    return a, roots, [counts[r] for r in roots], steps


def _components(p, xidx, a, steps, roots):
    """The eigencomponents of the given roots, from the Newton form in
    ad_eigencomponents.

    Over x^(a.dpow + d - 1) the peeled vector b_k has the numerator
    L_k = num_k * x^(d-1-k): the last numerator, the peel's own lift
    before it, and one product each further back, made only from the
    first root wanted on.  Component r sums prod_(j > k) (w_r - w_j) * L_k
    over k >= r by Horner's rule, one difference per step, and divides
    once by prod_(j != r) (w_r - w_j).
    """
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
        out.append(LocElement(p, xidx, num, a.dpow + d - 1)._over(den))
    return out


def ad_eigencomponents(p, xidx, a, degree_cap=16):
    """Split an element into eigenvectors of the conjugation action.

    Component m is prod_(j != m) (Ad - gamma_j) applied to the element,
    divided by prod_(j != m) (gamma_m - gamma_j); requires all roots
    simple.  With the roots in the peel's order w_0, ..., w_(d-1) and
    the peeled vectors b_k = prod_(j < k) (Ad - w_j) a, this Lagrange
    projector has the Newton form

        l_r(Ad) a = sum_(k >= r) b_k / prod_(j <= k, j != r) (w_r - w_j),

    so the components are sums of the peel's own vectors, and the
    products that bring them to one denominator are shared by all of
    them.  The numerators stay in the coefficient ring like the minimal
    polynomial's LaurentPoly coefficients; only the one division per
    component makes fractions.
    """
    a, roots, mults, steps = _peel(p, xidx, a, degree_cap, simple=True)
    return AdSpectrum(p, xidx, a, _minimal_polynomial(p, roots, mults), roots, mults,
                      _components(p, xidx, a, steps, roots))


def replacement_generator(p, xidx, gidx, degree_cap=16):
    """The eigencomponent of generator gidx whose eigenvalue is the bare
    commutation scalar with the localized generator; it q-commutes with
    that generator and can replace the original one.  Only that
    component is built, and no minimal polynomial."""
    a, roots, _, steps = _peel(p, xidx, p.gen(gidx), degree_cap, simple=True)
    target = p.commutation_unit(xidx, gidx)
    if target not in roots:
        raise AdRootError(
            f"no component with eigenvalue {target}; cannot rebuild {p.gens[gidx]}"
        )
    return _components(p, xidx, a, steps, [target])[0]


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

    Returns (unit, list of (difference, exponent)), the unit a nonzero
    rational times a monomial; raises when some factor is not built from
    the difference set.  A single-term difference, such as q - (-q), is
    itself a unit and stays in the unit.
    """
    if isinstance(value, FracElem):
        if not value.den.is_one():
            raise AdRootError("expected a polynomial denominator")
        value = value.num
    factors = []
    for d in difference_set(roots):
        if len(d.terms) == 1:
            continue
        count = 0
        while True:
            quo = value.try_div(d)
            if quo is None:
                break
            value = quo
            count += 1
        if count:
            factors.append((d, count))
    if len(value.terms) != 1:
        raise AdRootError(
            f"residual factor {value} is not a unit; denominator escapes "
            "the difference set"
        )
    return value, factors
