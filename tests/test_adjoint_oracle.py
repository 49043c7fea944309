"""The adjoint's weight peeling against the Krylov elimination it replaced.

reference_adjoint.py keeps the old elimination over the fraction field
with its wide root pool, and the old component loop that took d - 1
numerator steps per component.  Swapped in for ad_minimal_polynomial and
ad_eigencomponents, they must give the same minimal polynomial, roots,
multiplicities and components, and every root must be a weight of the
lifted Krylov vectors.  The components of the Newton form must also print
exactly as the old loop's, on seeded elements at degree one to three,
on inputs with a denominator, on the weyl1 ladder x^k and on a large
quantum_matrices(3) sample, where nf_mul is not associative.  The
elements are seeded over the built-in families, a Jordan block and a
plane with invertible letters, and drawn by hypothesis over small
presentations whose one or two tails use no letter at or before their
pair's first generator.  At degree three, where the elimination is too
slow to serve, the minimal polynomial is checked without an oracle: it
annihilates the element, and no factor of it with one linear factor
dropped does.
"""

import random

import pytest

from qsolv import (
    LaurentPoly,
    LocElement,
    Presentation,
    QsolvError,
    RepeatedRootError,
    UnitMonomial,
    ad_apply,
    ad_eigencomponents,
    adjoint,
    as_field_element,
    densepoly,
    loc_element,
    quantum_matrices,
    quantum_weyl,
)
from reference_adjoint import reference_eigencomponents, reference_minimal_polynomial
from test_mul_table import plane_torus

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

DEGREE_CAP = 6


def jordan():
    one = LaurentPoly.one(("q",))
    return Presentation("jordan", ("q",), ("x", "y"), 2, tails={(0, 1): {(0, 0): one}})


def spectrum(p, xidx, a, eigencomponents=ad_eigencomponents):
    """The eigencomponent spectrum, the bare minimal polynomial data when
    a root repeats, or the error type."""
    try:
        spec = eigencomponents(p, xidx, a, DEGREE_CAP)
    except RepeatedRootError:
        spec = adjoint.ad_minimal_polynomial(p, xidx, a, DEGREE_CAP)
    except QsolvError as exc:
        return type(exc)
    return spec.minpoly, spec.roots, spec.multiplicities, spec.components


def lift_weights(p, xidx, a, degree):
    """Conjugation weights of a, Ad(a), ..., Ad^degree(a) lifted to one
    common denominator."""
    vectors = [loc_element(p, xidx, a)]
    for _ in range(degree):
        vectors.append(ad_apply(p, xidx, vectors[-1]))
    d = max(v.dpow for v in vectors)
    return {adjoint._conjugation_weight(p, xidx, key)
            for v in vectors for key in v.lifted(d).terms}


def assert_matches_reference(p, xidx, a, monkeypatch):
    got = spectrum(p, xidx, a)
    with monkeypatch.context() as m:
        m.setattr(adjoint, "ad_minimal_polynomial", reference_minimal_polynomial)
        want = spectrum(p, xidx, a, reference_eigencomponents)
    assert got == want, (p.name, xidx, str(a))
    if isinstance(got, tuple):
        minpoly, roots = got[:2]
        assert set(roots) <= lift_weights(p, xidx, a, len(minpoly) - 1)


def random_element(p, rng, degree=2):
    """One or two terms of at most the given degree, each invertible
    letter possibly inverted, with small integer coefficients.  Degree
    three already costs tens of seconds on quantum_matrices(3) in the
    reference elimination."""
    width = p.n + p.m
    out = p.zero()
    for _ in range(rng.randint(1, 2)):
        key = [0] * width
        for _ in range(rng.randint(0, degree)):
            key[rng.randrange(width)] += 1
        for pos in range(p.n, width):
            key[pos] -= rng.randint(0, 1)
        out = out + p.monomial(tuple(key), rng.choice([-2, -1, 1, 2, 3]))
    return out


FAMILIES = pytest.mark.parametrize("build", [
    lambda: quantum_weyl(1), lambda: quantum_weyl(2),
    lambda: quantum_matrices(2), lambda: quantum_matrices(3),
    jordan, plane_torus,
], ids=["weyl1", "weyl2", "matrices2", "matrices3", "jordan", "plane_torus"])


@FAMILIES
def test_weight_roots_match_the_reference_pool(build, monkeypatch):
    p = build()
    rng = random.Random(p.name)
    for _ in range(24):
        assert_matches_reference(p, rng.randrange(p.n), random_element(p, rng),
                                 monkeypatch)


def printed_components(eigencomponents, p, xidx, a, degree_cap=DEGREE_CAP):
    """Each root with its component's denominator power and text, or the
    error."""
    try:
        spec = eigencomponents(p, xidx, a, degree_cap)
    except QsolvError as exc:
        return f"{type(exc).__name__}: {exc}"
    return " | ".join(f"{root}: {comp.dpow} {comp}"
                      for root, comp in zip(spec.roots, spec.components))


def assert_prints_as_reference(p, xidx, a, degree_cap=DEGREE_CAP):
    got = printed_components(ad_eigencomponents, p, xidx, a, degree_cap)
    want = printed_components(reference_eigencomponents, p, xidx, a, degree_cap)
    assert got == want, (p.name, xidx, str(a))


@FAMILIES
def test_newton_components_print_as_the_reference(build):
    p = build()
    rng = random.Random(p.name + " newton")
    for degree in (1, 2, 3):
        for _ in range(6):
            a = random_element(p, rng, degree)
            for xidx in range(p.n):
                assert_prints_as_reference(p, xidx, a)
                # an input over x^-1 .. x^-3, reduced by the constructor
                assert_prints_as_reference(
                    p, xidx, LocElement(p, xidx, a, rng.randint(1, 3)))


def test_newton_components_print_as_the_reference_on_the_weyl_ladder():
    # Ad_y on x^k has the k + 1 roots 1, c^-1, ..., c^-k
    p = quantum_weyl(1)
    for k in range(1, 11):
        assert_prints_as_reference(p, 0, p.gen_power(1, k), degree_cap=16)


def test_newton_components_print_as_the_reference_on_matrices3():
    # nf_mul is not associative here (ROADMAP item 2); the Newton form
    # multiplies in another order than the old loop, and no line may move
    p = quantum_matrices(3)
    rng = random.Random("matrices3 newton")
    lines = 0
    for _ in range(230):
        a = random_element(p, rng, rng.randint(1, 3))
        for xidx in range(p.n):
            assert_prints_as_reference(p, xidx, a)
            lines += 1
    assert lines >= 2000


def units(params):
    return st.builds(
        lambda sign, exps: UnitMonomial(params, sign, tuple(exps)),
        st.sampled_from([1, -1]),
        st.lists(st.integers(-2, 2), min_size=len(params), max_size=len(params)),
    )


@st.composite
def placed_presentations(draw):
    """Two or three polynomial letters and at most one invertible one,
    random commutation scalars in q and p, and one or two tails whose
    monomials use only letters after their pair's first generator."""
    params = ("q", "p")
    n = draw(st.integers(2, 3))
    total = n + draw(st.integers(0, 1))
    pairs = [(a, b) for a in range(total) for b in range(a + 1, total)]
    qmat = {pair: draw(units(params)) for pair in pairs}
    tails = {}
    tail_pairs = [(i, j) for i, j in pairs if j < n]
    for i, j in draw(st.lists(st.sampled_from(tail_pairs), min_size=1, max_size=2,
                              unique=True)):
        body = {}
        for _ in range(draw(st.integers(1, 2))):
            key = [0] * total
            for g in range(i + 1, total):
                key[g] = draw(st.integers(-1 if g >= n else 0, 1))
            body[tuple(key)] = draw(st.sampled_from([-1, 1, 2]))
        tails[(i, j)] = body
    gens = ("x", "y", "z", "k")[:n] + ("k",) * (total - n)
    return Presentation("placed", params, gens, n, qmat=qmat, tails=tails)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=placed_presentations(), seed=st.integers(0, 2**16))
def test_weight_roots_match_the_reference_pool_on_drawn_presentations(p, seed):
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_reference(p, rng.randrange(p.n), random_element(p, rng),
                                 monkeypatch)


def ad_value(p, xidx, a, coeffs):
    """The polynomial with the given coefficients in Ad, applied to a."""
    power = loc_element(p, xidx, a)
    total = power.scale(coeffs[0])
    for c in coeffs[1:]:
        power = ad_apply(p, xidx, power)
        total = total + power.scale(c)
    return total


def assert_minimal(p, xidx, a):
    """The minimal polynomial kills a, and dropping any one linear factor
    leaves a polynomial that does not, so no proper divisor kills a."""
    try:
        spec = adjoint.ad_minimal_polynomial(p, xidx, a, DEGREE_CAP)
    except QsolvError:
        return
    assert ad_value(p, xidx, a, spec.minpoly).is_zero(), (p.name, xidx, str(a))
    # the division needs field coefficients; the minimal polynomial's are Laurent
    minpoly = [as_field_element(c, p.params) for c in spec.minpoly]
    for root in spec.roots:
        factor = [-root.as_poly(), 1]
        quotient, rest = densepoly.divmod(minpoly, factor)
        assert not rest
        assert not ad_value(p, xidx, a, quotient).is_zero(), (p.name, xidx, str(a))


@FAMILIES
def test_degree_three_minimal_polynomials_are_minimal(build):
    p = build()
    rng = random.Random(p.name + " degree three")
    for _ in range(12):
        assert_minimal(p, rng.randrange(p.n), random_element(p, rng, degree=3))


def test_slow_elimination_case_is_minimal():
    # Ad_a21 on this element took about 20 s in the Krylov elimination
    p = quantum_matrices(3)
    a = p.monomial((1, 0, 0, 0, 0, 0, 0, 1, 1), 1) + p.monomial((0,) * 9, -2)
    spec = adjoint.ad_minimal_polynomial(p, 3, a)
    assert [str(r) for r in spec.roots] == [
        "1", "q12^-2*q13^-1*q23^2", "h^-2*q12^-2*q13^-1*q23^2",
        "h^2*q12^-2*q13^-1*q23^2",
    ]
    assert_minimal(p, 3, a)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(p=placed_presentations(), seed=st.integers(0, 2**16))
def test_degree_three_minimal_polynomials_are_minimal_on_drawn_presentations(p, seed):
    rng = random.Random(seed)
    assert_minimal(p, rng.randrange(p.n), random_element(p, rng, degree=3))
