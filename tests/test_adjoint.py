"""Conjugation operators on localized elements and their spectra."""

from fractions import Fraction

import pytest

from qsolv import adjoint, densepoly
from qsolv import (
    AdRootError,
    FracElem,
    LaurentPoly,
    LocElement,
    LocalizationError,
    NFElement,
    Presentation,
    PresentationError,
    RepeatedRootError,
    UnitMonomial,
    ad_apply,
    ad_eigencomponents,
    ad_minimal_polynomial,
    difference_set,
    factor_over_differences,
    loc_element,
    nf_mul,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    replacement_generator,
)


@pytest.fixture
def weyl():
    return quantum_weyl(1)


@pytest.fixture
def plane():
    return quantum_plane()


def cvar(p, power=1):
    return LaurentPoly.var(p.params, "c", power)


def test_loc_element_normalizes(plane):
    q = LaurentPoly.var(plane.params, "q")
    elem = LocElement(plane, 0, nf_mul(plane.gen(0), plane.gen(1)), 1)
    # (x*y) * x^-1 = q*y, a genuine algebra element again
    assert elem.dpow == 0
    assert elem.num == plane.gen(1).scale(q)
    assert elem == loc_element(plane, 0, plane.gen(1).scale(q))


def test_loc_element_blocked_by_tail(weyl):
    # y*x does not divide by y on the right because the pair has a tail
    elem = LocElement(weyl, 0, nf_mul(weyl.gen(0), weyl.gen(1)), 1)
    assert elem.dpow == 1


def test_loc_element_arithmetic(plane):
    x, y = plane.gen(0), plane.gen(1)
    a = LocElement(plane, 0, y, 1)
    b = loc_element(plane, 0, y)
    s = a + b
    assert s - b == a
    assert (a - a).is_zero()
    two = a.scale(2)
    assert two == a + a
    # mixing localization sites is an error
    c = LocElement(plane, 1, x, 1)
    with pytest.raises(LocalizationError):
        a + c


def test_loc_element_lift_checks(plane):
    a = LocElement(plane, 0, plane.gen(1), 2)
    assert a.lifted(3) == nf_mul(plane.gen(1), plane.gen(0))
    with pytest.raises(LocalizationError):
        a.lifted(1)
    with pytest.raises(LocalizationError):
        LocElement(plane, 5, plane.gen(1), 0)


@pytest.mark.parametrize("dpow, bad", [(1.5, "1.5"), (0.5, "0.5")])
def test_denominator_power_is_an_integer(weyl, dpow, bad):
    # 1.5 used to leave the power -0.5 after one division, printed y^--0.5
    y = weyl.gen(0)
    for num in (nf_mul(y, y), y):
        with pytest.raises(TypeError, match=f"expected an integer exponent, got {bad}"):
            LocElement(weyl, 0, num, dpow)
    elem = LocElement(weyl, 0, nf_mul(y, y), Fraction(4, 2))
    assert elem.dpow == 0 and type(elem.dpow) is int
    assert elem.num == weyl.one()


def test_ad_apply_plane(plane):
    q = LaurentPoly.var(plane.params, "q")
    out = ad_apply(plane, 0, loc_element(plane, 0, plane.gen(1)))
    assert out == loc_element(plane, 0, plane.gen(1).scale(q))


def test_weyl_minimal_polynomial(weyl):
    spec = ad_minimal_polynomial(weyl, 0, weyl.gen(1))
    f = FracElem
    assert spec.minpoly == (
        f(cvar(weyl, -1)),
        f(-1 - cvar(weyl, -1)),
        f(LaurentPoly.one(weyl.params)),
    )
    assert spec.degree == 2
    assert spec.roots == (
        UnitMonomial.one(weyl.params),
        UnitMonomial.var(weyl.params, "c", -1),
    )
    assert spec.multiplicities == (1, 1)
    assert spec.is_semisimple()


def test_weyl_eigencomponents(weyl):
    x = weyl.gen(1)
    spec = ad_eigencomponents(weyl, 0, x)
    assert len(spec.components) == 2
    comp1, comp2 = spec.components

    c = cvar(weyl)
    # the weight-1 part is c/(c-1) * y^-1
    expected1 = LocElement(weyl, 0, weyl.scalar(FracElem(c, c - 1)), 1)
    assert comp1 == expected1

    # components reassemble the generator
    assert comp1 + comp2 == loc_element(weyl, 0, x)

    # each component satisfies its eigenvalue equation exactly
    for root, comp in zip(spec.roots, spec.components):
        assert ad_apply(weyl, 0, comp) == comp.scale(root)


def test_eigencomponents_of_fraction_coefficients(weyl):
    # the components of x sum to an element with fraction coefficients,
    # and adding x gives one with mixed ones; each is divided in the
    # fraction field, as every element was before the shared reduction
    comp1, comp2 = ad_eigencomponents(weyl, 0, weyl.gen(1)).components
    printed = []
    for a in (comp1 + comp2, comp2 + loc_element(weyl, 0, weyl.gen(1))):
        spec = ad_eigencomponents(weyl, 0, a)
        printed.append([(str(root), comp.dpow, str(comp))
                        for root, comp in zip(spec.roots, spec.components)])
    assert printed == [
        [("1", 1, "(c/(c - 1))*y^-1"),
         ("c^-1", 2, "((-c^3/(c - 1))*y + c^2*y^2*x)*y^-2")],
        [("1", 1, "(c/(c - 1))*y^-1"),
         ("c^-1", 2, "((-2*c^3/(c - 1))*y + 2*c^2*y^2*x)*y^-2")],
    ]


def test_eigencomponent_denominators_factor(weyl):
    spec = ad_eigencomponents(weyl, 0, weyl.gen(1))
    diffs = difference_set(spec.roots)
    assert len(diffs) == 2
    for comp in spec.components:
        for coef in comp.num.terms.values():
            if not isinstance(coef, FracElem):
                continue
            unit, factors = factor_over_differences(coef.den, spec.roots)
            rebuilt = unit
            for diff, exp in factors:
                rebuilt = rebuilt * diff ** exp
            assert rebuilt == coef.den


def test_factor_over_differences_rejects_foreign_factors(weyl):
    spec = ad_minimal_polynomial(weyl, 0, weyl.gen(1))
    c = cvar(weyl)
    with pytest.raises(AdRootError):
        factor_over_differences(c + 2, spec.roots)


def test_matrices_adjoint_roots():
    p = quantum_matrices(2)
    h2 = UnitMonomial.var(p.params, "h", 2)
    q12 = UnitMonomial.var(p.params, "q12")
    expected = {
        0: (UnitMonomial.one(p.params), h2),
        1: (h2 * q12.inverse(),),
        2: (q12,),
    }
    for g, roots in expected.items():
        spec = ad_eigencomponents(p, 3, p.gen(g))
        assert spec.roots == roots
        total = spec.components[0]
        for comp in spec.components[1:]:
            total = total + comp
        assert total == loc_element(p, 3, p.gen(g))


def test_identity_is_a_fixed_point(weyl):
    spec = ad_minimal_polynomial(weyl, 0, weyl.one())
    assert spec.degree == 1
    assert spec.roots == (UnitMonomial.one(weyl.params),)


def test_jordan_block_detected():
    # q = 1 with a constant tail: Ad_x(y) = y + x^-1, a rank-2 Jordan block
    one = LaurentPoly.one(("q",))
    p = Presentation("jordan", ("q",), ("x", "y"), 2, tails={(0, 1): {(0, 0): one}})
    spec = ad_minimal_polynomial(p, 0, p.gen(1))
    assert spec.roots == (UnitMonomial.one(p.params),)
    assert spec.multiplicities == (2,)
    assert not spec.is_semisimple()
    with pytest.raises(RepeatedRootError) as info:
        ad_eigencomponents(p, 0, p.gen(1))
    assert info.value.root == UnitMonomial.one(p.params)


def test_degree_cap(weyl):
    with pytest.raises(AdRootError):
        ad_minimal_polynomial(weyl, 0, weyl.gen(1), degree_cap=1)


CAPPED = [
    lambda p, cap: ad_minimal_polynomial(p, 0, p.gen(1), degree_cap=cap),
    lambda p, cap: ad_eigencomponents(p, 0, p.gen(1), degree_cap=cap),
    lambda p, cap: replacement_generator(p, 0, 1, degree_cap=cap),
]


@pytest.mark.parametrize("call", CAPPED, ids=["minpoly", "eigencomponents", "replacement"])
def test_degree_cap_is_a_nonnegative_integer(weyl, call):
    # a cap of -1 used to report no dependence within -1 steps, and 2.5
    # a bare TypeError from range
    with pytest.raises(ValueError, match="^degree_cap must be nonnegative$"):
        call(weyl, -1)
    with pytest.raises(TypeError, match="expected an integer exponent, got 2.5"):
        call(weyl, 2.5)
    assert repr(call(weyl, Fraction(4, 2))) == repr(call(weyl, 2))


def test_spectra_compare_by_value(weyl):
    # spectra of one input used to compare unequal, as distinct objects
    x = weyl.gen(1)
    spec = ad_minimal_polynomial(weyl, 0, x, degree_cap=2)
    assert spec == ad_minimal_polynomial(weyl, 0, x, degree_cap=2)
    assert ad_eigencomponents(weyl, 0, x) == ad_eigencomponents(weyl, 0, x)
    assert spec != ad_eigencomponents(weyl, 0, x)  # components filled in
    assert spec != ad_minimal_polynomial(weyl, 0, x.scale(2))
    assert spec != ad_minimal_polynomial(quantum_weyl(1), 0, nf_mul(x, x))
    assert spec != repr(spec)
    with pytest.raises(TypeError, match="unhashable"):
        hash(spec)


def counting(monkeypatch, calls, owner, name):
    """Record owner.name's calls in calls, by name, from now on."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args: calls.append(name) or original(*args))


def test_replacement_generator_builds_no_minimal_polynomial(weyl, monkeypatch):
    built = []
    counting(monkeypatch, built, adjoint, "_minimal_polynomial")
    counting(monkeypatch, built, densepoly, "mul")
    replacement_generator(weyl, 0, 1)
    assert built == []
    ad_eigencomponents(weyl, 0, weyl.gen(1))
    assert built == ["_minimal_polynomial"]


def test_each_component_takes_its_denominator_content_once(weyl, monkeypatch):
    calls = []
    counting(monkeypatch, calls, LaurentPoly, "content")
    spec = ad_eigencomponents(weyl, 0, weyl.gen_power(1, 5))
    assert len(spec.components) == 6
    assert len(calls) == 6


def test_gen_power_builds_no_checked_coefficient(weyl, monkeypatch):
    want, one = weyl.monomial((0, 3)), LaurentPoly.one(weyl.params)
    built = []
    counting(monkeypatch, built, LaurentPoly, "__init__")
    power, gen = weyl.gen_power(1, 3), weyl.gen(0)
    assert built == []
    assert power == want and gen.terms == {(1, 0): one}


def spectra_inputs():
    weyl, matrices = quantum_weyl(1), quantum_matrices(3)
    # the components of Ad_a11 on a23 have coefficients over h^2 - 1
    return [(weyl, 0, 1, weyl.gen_power(1, 5)), (matrices, 0, 5, matrices.gen(5))]


@pytest.mark.parametrize("p, xidx, gidx, a", spectra_inputs(), ids=["weyl1-x^5", "matrices3"])
def test_spectra_build_no_checked_element(p, xidx, gidx, a, monkeypatch):
    calls = []
    counting(monkeypatch, calls, NFElement, "__init__")
    spec = ad_eigencomponents(p, xidx, a)
    replacement_generator(p, xidx, gidx)
    assert calls == []
    assert any(not c.den.is_one() for comp in spec.components for c in comp.num.terms.values())


def test_tail_that_breaks_placement_is_named():
    # y*x = q*x*y + x*y: the tail keeps the leading monomial x*y, so
    # conjugation by y does not lower it and no weight peels off
    qu = UnitMonomial.var(("q",), "q")
    one = LaurentPoly.one(("q",))
    p = Presentation("t", ("q",), ("x", "y"), 2, qmat={(0, 1): qu},
                     tails={(0, 1): {(1, 1): one}})
    with pytest.raises(AdRootError, match="a tail breaks WF placement"):
        ad_minimal_polynomial(p, 1, p.gen(0))


def test_factor_over_differences_keeps_single_term_differences_in_the_unit():
    # q - (-q) = 2q divides every value, so dividing it out never ends
    qu = UnitMonomial.var(("q",), "q")
    three = LaurentPoly.const(("q",), 3)
    assert factor_over_differences(three, [qu, -qu]) == (3, [])


@pytest.fixture
def products(monkeypatch):
    """Counts of the nf_mul and ad_apply calls made from the adjoint
    module and of every LocElement.lifted call."""
    counts = {"nf_mul": 0, "lifts": 0, "ad_apply": 0}
    mul, lifted, apply = adjoint.nf_mul, LocElement.lifted, adjoint.ad_apply

    def counted_mul(left, right):
        counts["nf_mul"] += 1
        return mul(left, right)

    def counted_lifted(self, dpow):
        counts["lifts"] += 1
        return lifted(self, dpow)

    def counted_apply(p, xidx, a):
        counts["ad_apply"] += 1
        return apply(p, xidx, a)

    monkeypatch.setattr(adjoint, "nf_mul", counted_mul)
    monkeypatch.setattr(LocElement, "lifted", counted_lifted)
    monkeypatch.setattr(adjoint, "ad_apply", counted_apply)
    return counts


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_weyl_roots_are_peeled_from_the_weights(weyl, products, k):
    # the roots 1, c^-1, ..., c^-k, one peel of two products each
    spec = ad_minimal_polynomial(weyl, 0, weyl.gen_power(1, k))
    assert spec.roots == tuple(UnitMonomial.var(weyl.params, "c", -j)
                               for j in range(k + 1))
    assert products == {"nf_mul": 2 * (k + 1), "lifts": 0, "ad_apply": 0}


def test_matrices_roots_are_peeled_from_the_weights(products):
    p = quantum_matrices(3)
    spec = ad_minimal_polynomial(p, 0, p.gen(8))
    assert spec.degree == 2
    assert products == {"nf_mul": 4, "lifts": 0, "ad_apply": 0}


# d = k + 1 simple roots: 2d products to peel, then one product for each
# peeled vector but the last two, shared by the d components
COMPONENT_PRODUCTS = {1: 4, 2: 7, 3: 10, 4: 13, 5: 16}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_weyl_components_take_the_peeling_step(weyl, products, k):
    spec = ad_eigencomponents(weyl, 0, weyl.gen_power(1, k))
    assert len(spec.components) == k + 1
    assert products == {"nf_mul": COMPONENT_PRODUCTS[k], "lifts": 0, "ad_apply": 0}
    assert all(type(c) is LaurentPoly for c in spec.minpoly)


@pytest.fixture
def divisions(monkeypatch):
    """The number of right-division tests made by LocElement."""
    counts = {"divide": 0}
    divide = adjoint._divide_right_once

    def counted_divide(p, xidx, elem):
        counts["divide"] += 1
        return divide(p, xidx, elem)

    monkeypatch.setattr(adjoint, "_divide_right_once", counted_divide)
    return counts


def test_replacement_builds_one_component(products, divisions):
    # a11 on a33 has two roots; only the target's component is built, from
    # the peel's own vectors, and its scaling tests no division again
    p = quantum_matrices(3)
    replacement_generator(p, 0, 8)
    assert products == {"nf_mul": 4, "lifts": 0, "ad_apply": 0}
    assert divisions == {"divide": 1}


@pytest.mark.parametrize("build", [
    lambda: quantum_weyl(1), lambda: quantum_weyl(2), lambda: quantum_matrices(2),
], ids=["weyl1", "weyl2", "matrices2"])
def test_scale_keeps_the_reduced_form(build, monkeypatch):
    p = build()
    comps = [c for x in range(p.n) for g in range(p.n + p.m)
             for c in ad_eigencomponents(p, x, p.gen(g)).components]
    assert any(c.dpow for c in comps)
    t = LaurentPoly.var(p.params, p.params[0])
    values = [3, t, t - 1, FracElem(LaurentPoly.one(p.params), t + 2), 0]
    checked = [LocElement(p, c.xidx, c.num.scale(v), c.dpow) for c in comps for v in values]
    calls = []
    monkeypatch.setattr(adjoint, "_divide_right_once", lambda *args: calls.append(args))
    scaled = [c.scale(v) for c in comps for v in values]
    assert calls == []
    for got, want in zip(scaled, checked):
        assert (str(got), got.dpow, got.num) == (str(want), want.dpow, want.num)


def test_zero_element_rejected(weyl):
    with pytest.raises(AdRootError):
        ad_minimal_polynomial(weyl, 0, weyl.zero())


def test_laurent_site_rejected():
    qu = UnitMonomial.var(("q",), "q")
    p = Presentation("t", ("q",), ("x", "k"), 1, qmat={(0, 1): qu})
    with pytest.raises(LocalizationError):
        loc_element(p, 1, p.gen(0))


def test_replacement_generator(weyl):
    z = replacement_generator(weyl, 0, 1)
    cu = weyl.commutation_unit(0, 1)
    # the replacement commutes with y by the bare unit, tail gone
    assert ad_apply(weyl, 0, z) == z.scale(cu)
    # the site generator is its own replacement
    assert replacement_generator(weyl, 0, 0) == loc_element(weyl, 0, weyl.gen(0))


@pytest.mark.parametrize("build", [
    lambda: quantum_weyl(1), lambda: quantum_weyl(2),
    lambda: quantum_matrices(2), lambda: quantum_matrices(3),
], ids=["weyl1", "weyl2", "matrices2", "matrices3"])
def test_replacement_generators_q_commute_on_every_pair(build):
    p = build()
    for x in range(p.n):
        for g in range(p.n):
            z = replacement_generator(p, x, g)
            assert ad_apply(p, x, z) == z.scale(p.commutation_unit(x, g))


def test_element_that_lifts_to_zero_has_no_minimal_polynomial():
    # the tail breaks WF and gives y*x = 0, so y vanishes once x is inverted
    one = LaurentPoly.one(("q",))
    p = Presentation("bad", ("q",), ("x", "y"), 2, tails={(0, 1): {(1, 1): one}})
    for compute in (ad_minimal_polynomial, ad_eigencomponents):
        with pytest.raises(AdRootError, match="lifts to zero"):
            compute(p, 0, p.gen(1))


@pytest.mark.parametrize("gidx", [-1, 2, 5])
def test_replacement_generator_checks_the_position(weyl, gidx):
    # -1 used to give the component of the last generator
    with pytest.raises(PresentationError, match="outside 0..1"):
        replacement_generator(weyl, 0, gidx)


def test_replacement_generator_needs_a_split():
    one = LaurentPoly.one(("q",))
    p = Presentation("jordan", ("q",), ("x", "y"), 2, tails={(0, 1): {(0, 0): one}})
    with pytest.raises(RepeatedRootError):
        replacement_generator(p, 0, 1)
