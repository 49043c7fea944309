"""Conjugation operators on localized elements and their spectra."""

import pytest

from qsolv import adjoint
from qsolv import (
    AdRootError,
    FracElem,
    LaurentPoly,
    LocElement,
    LocalizationError,
    Presentation,
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
    """Counts of the nf_mul calls made from the adjoint module and of
    every LocElement.lifted call."""
    counts = {"nf_mul": 0, "lifts": 0}
    mul, lifted = adjoint.nf_mul, LocElement.lifted

    def counted_mul(left, right):
        counts["nf_mul"] += 1
        return mul(left, right)

    def counted_lifted(self, dpow):
        counts["lifts"] += 1
        return lifted(self, dpow)

    monkeypatch.setattr(adjoint, "nf_mul", counted_mul)
    monkeypatch.setattr(LocElement, "lifted", counted_lifted)
    return counts


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_weyl_roots_are_peeled_from_the_weights(weyl, products, k):
    # the roots 1, c^-1, ..., c^-k, one peel of two products each
    spec = ad_minimal_polynomial(weyl, 0, weyl.gen_power(1, k))
    assert spec.roots == tuple(UnitMonomial.var(weyl.params, "c", -j)
                               for j in range(k + 1))
    assert products == {"nf_mul": 2 * (k + 1), "lifts": 0}


def test_matrices_roots_are_peeled_from_the_weights(products):
    p = quantum_matrices(3)
    spec = ad_minimal_polynomial(p, 0, p.gen(8))
    assert spec.degree == 2
    assert products == {"nf_mul": 4, "lifts": 0}


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


def test_replacement_generator_needs_a_split():
    one = LaurentPoly.one(("q",))
    p = Presentation("jordan", ("q",), ("x", "y"), 2, tails={(0, 1): {(0, 0): one}})
    with pytest.raises(RepeatedRootError):
        replacement_generator(p, 0, 1)
