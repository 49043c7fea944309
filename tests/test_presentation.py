"""Presentation data, builders, and the structural validator."""

import re
from fractions import Fraction

import pytest

from qsolv import (
    LaurentPoly,
    Presentation,
    PresentationError,
    UnitMonomial,
    builtin_presentation,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    rank2,
    validate_presentation,
)


def u(params, name, power=1, sign=1):
    return UnitMonomial.var(params, name, power, sign=sign)


def test_plane_structure():
    p = quantum_plane()
    assert p.params == ("q",)
    assert p.gens == ("x", "y")
    assert p.n == 2 and p.m == 0
    assert p.commutation_unit(0, 1) == u(p.params, "q")
    assert p.commutation_unit(1, 0) == u(p.params, "q", -1)
    assert p.commutation_unit(0, 0).is_one()
    assert not p.has_tails


def test_weyl_structure():
    p = quantum_weyl(1)
    assert p.gens == ("y", "x")
    assert p.qskew == (u(p.params, "c", -1), UnitMonomial.one(p.params))
    assert p.tails == {(0, 1): {(0, 0): LaurentPoly.one(p.params)}}
    # the weight table is explicit: tau_y scales x by c^-1 and y by c
    assert p.hweight(0, 0) == u(p.params, "c")
    assert p.hweight(0, 1) == u(p.params, "c", -1)
    assert p.hweight(1, 0).is_one()


def test_weyl2_structure():
    p = quantum_weyl(2)
    assert p.gens == ("y1", "y2", "x2", "x1")
    assert p.commutation_unit(1, 2) == u(p.params, "c", -1)
    assert p.commutation_unit(0, 1) == u(p.params, "c") * u(p.params, "r12", -1)
    assert set(p.tails) == {(0, 3), (1, 2)}
    # the outer pair picks up a tail supported on the inner pair
    c = LaurentPoly.var(p.params, "c")
    assert p.tails[(0, 3)] == {(0, 0, 0, 0): c, (0, 1, 1, 0): 1 - c}


def test_matrices_structure():
    p = quantum_matrices(2)
    assert p.gens == ("a11", "a12", "a21", "a22")
    assert p.qskew[0] == u(p.params, "h", 2)
    assert p.commutation_unit(1, 2) == u(p.params, "h", -2) * u(p.params, "q12", 2)
    assert p.commutation_unit(0, 3).is_one()
    assert set(p.tails) == {(0, 3)}


@pytest.mark.parametrize(
    "p",
    [
        quantum_plane(),
        quantum_affine(3),
        quantum_weyl(1),
        quantum_weyl(2),
        quantum_matrices(2),
        quantum_matrices(3),
        rank2(0),
    ],
    ids=lambda p: p.name,
)
def test_builders_validate(p):
    report = validate_presentation(p)
    assert report.passed
    assert report.findings == ()


def test_quantum_affine_custom_exponents():
    p = quantum_affine(2, exponents=[[0, -3], [3, 0]])
    assert p.commutation_unit(0, 1) == u(p.params, "q", -3)
    report = validate_presentation(p)
    assert report.passed
    # the exponent matrix must be antisymmetric
    with pytest.raises(Exception):
        quantum_affine(2, exponents=[[0, 1], [1, 0]])


@pytest.mark.parametrize("build, bad", [
    (lambda: quantum_affine(2, [[0, 1.5], [-1.5, 0]]), "1.5"),
    (lambda: quantum_affine(2, [[0, Fraction(1, 2)], [Fraction(-1, 2), 0]]),
     "Fraction(1, 2)"),
    (lambda: quantum_affine(2.5), "2.5"),
    (lambda: quantum_matrices(2.5), "2.5"),
    (lambda: quantum_matrices("3"), "'3'"),
    (lambda: quantum_weyl(2.0), "2.0"),
    (lambda: rank2({1.5: 1}), "1.5"),
], ids=["affine-exponent", "affine-fraction-exponent", "affine-size", "matrices-size",
        "matrices-str", "weyl-size", "rank2-exponent"])
def test_builders_take_integer_sizes_and_exponents(build, bad):
    # each of these used to be truncated by int(): quantum_matrices(2.5)
    # built the 2x2 algebra, and the 1.5 exponents x1 x2 = q x2 x1
    with pytest.raises(TypeError, match=re.escape(f"expected an integer exponent, got {bad}")):
        build()


def test_builders_read_integral_fractions_as_ints():
    assert quantum_matrices(Fraction(4, 2)) == quantum_matrices(2)
    assert quantum_weyl(Fraction(2)).name == "quantum_weyl2"
    p = quantum_affine(Fraction(2), [[0, Fraction(-6, 2)], [Fraction(3), 0]])
    assert p.name == "quantum_affine2"
    assert p.commutation_unit(0, 1) == u(p.params, "q", -3)


def test_rank2_takes_rational_values():
    # Fraction(0.1) used to store the float's binary expansion as the tail
    with pytest.raises(TypeError, match=re.escape("expected a rational value, got 0.1")):
        rank2({0: 0.1})
    q = LaurentPoly.var(("q",), "q")
    assert rank2({0: Fraction(6, 2), 1: -1}) == rank2(3 - q)


def b_plane(**kwargs):
    q = u(("q",), "q")
    kwargs.setdefault("qmat", {(0, 1): q, (0, 2): q, (1, 2): q})
    return Presentation("B", ("q",), ("x", "y", "z"), kwargs.pop("npoly", 3), **kwargs)


@pytest.mark.parametrize("kwargs, bad", [
    (dict(npoly=1.9), "1.9"),
    (dict(qmat={(0, 1.5): u(("q",), "q")}), "1.5"),
    (dict(tails={(0, 2.5): {(0, 1, 0): 1}}), "2.5"),
    (dict(tails={(0, 2): {(0, 1.7, 0): 1}}), "1.7"),
    (dict(hweights={(0, Fraction(3, 2)): u(("q",), "q")}), "Fraction(3, 2)"),
], ids=["npoly", "qmat-index", "tail-index", "tail-key", "weight-index"])
def test_presentation_takes_integer_counts_and_indices(kwargs, bad):
    # each of these used to be truncated by int(): npoly 1.9 gave one
    # polynomial generator, and the tail key (0, 1.7, 0) read as (0, 1, 0)
    with pytest.raises(TypeError, match=re.escape(f"expected an integer exponent, got {bad}")):
        b_plane(**kwargs)


def test_presentation_reads_integral_fractions_as_ints():
    p = b_plane(npoly=Fraction(6, 2), tails={(0, Fraction(4, 2)): {(0, Fraction(1), 0): 1}})
    assert p.n == 3 and type(p.n) is int
    assert p.tails == {(0, 2): {(0, 1, 0): LaurentPoly.one(("q",))}}
    assert all(type(e) is int for pair in p.tails for e in pair)


def test_builtin_dispatch():
    assert builtin_presentation("quantum_plane") == quantum_plane()
    assert builtin_presentation("quantum_weyl", 2) == quantum_weyl(2)
    with pytest.raises(Exception):
        builtin_presentation("heisenberg")


def test_equality_ignores_name():
    qv = u(("q",), "q")
    p = Presentation("anything", ("q",), ("x", "y"), 2, qmat={(0, 1): qv})
    assert p == quantum_plane()
    assert quantum_plane() != rank2(0) or quantum_plane() == rank2(0)
    # rank2(0) and the plane share the same relations
    assert rank2(0) == quantum_plane()


def test_tail_placement_rejected_by_validator():
    qv = u(("q",), "q")
    one = LaurentPoly.one(("q",))
    # a tail touching the earlier generator is flagged as a WF failure
    p = Presentation(
        "bad", ("q",), ("x", "y"), 2,
        qmat={(0, 1): qv}, tails={(0, 1): {(1, 0): one}},
    )
    report = validate_presentation(p)
    assert not report.passed
    assert "WF" in {f.condition for f in report.findings}


def test_tail_on_laurent_pair_rejected():
    qv = u(("q",), "q")
    one = LaurentPoly.one(("q",))
    with pytest.raises(PresentationError):
        Presentation(
            "bad", ("q",), ("x", "k"), 1,
            qmat={(0, 1): qv}, tails={(0, 1): {(0, 1): one}},
        )


def test_zero_tail_coefficients_dropped():
    qv = u(("q",), "q")
    zero = LaurentPoly.zero(("q",))
    p = Presentation(
        "t", ("q",), ("x", "y"), 2, qmat={(0, 1): qv}, tails={(0, 1): {(0, 0): zero}},
    )
    assert not p.has_tails
    assert p == quantum_plane()


def test_key_weight_multiplicative():
    p = quantum_matrices(2)
    k1 = (1, 0, 2, 0)
    k2 = (0, 1, 0, 3)
    ksum = tuple(a + b for a, b in zip(k1, k2))
    for i in range(4):
        assert p.key_weight(i, ksum) == p.key_weight(i, k1) * p.key_weight(i, k2)


def test_element_constructors():
    p = quantum_plane()
    assert p.zero().is_zero()
    assert p.one() == p.scalar(1)
    assert p.gen(0) == p.generator("x")
    assert p.gen_power(1, 3) == p.monomial((0, 3))
    with pytest.raises(PresentationError):
        p.gen_power(0, -2)
    with pytest.raises(PresentationError):
        p.generator("z")


@pytest.mark.parametrize("pos", [-1, 2, 5])
def test_generator_positions_are_checked(pos):
    # a negative position used to wrap to the last generator, and one past
    # the end raised a bare IndexError
    p = quantum_plane()
    with pytest.raises(PresentationError, match=f"generator position {pos} is outside 0..1"):
        p.gen(pos)
    with pytest.raises(PresentationError, match="outside"):
        p.gen_power(pos, 2)
    with pytest.raises(PresentationError, match="outside"):
        p.gen_power(pos, -1)


def test_generator_positions_are_read_exactly():
    # a float position raised "list indices must be integers"
    p = quantum_plane()
    with pytest.raises(TypeError, match="expected an integer exponent"):
        p.gen_power(1.0, 2)
    assert p.gen_power(Fraction(1), 2) == p.gen_power(1, 2)


def test_replace_tail_breaks_homogeneity():
    p = quantum_weyl(1)
    one = LaurentPoly.one(p.params)
    # adding a bare x term makes the tail weight-inhomogeneous
    mutated = p.replace_tail(0, 1, {(0, 0): one, (0, 1): one})
    report = validate_presentation(mutated)
    assert not report.passed
    conditions = {f.condition for f in report.findings}
    assert "Q3" in conditions
    for f in report.findings:
        assert f.severity == "error"


def test_validator_reports_q1_breakage():
    qv = u(("q",), "q")
    one = LaurentPoly.one(("q",))
    # a plane with a constant tail but no skew scaling cannot satisfy Q1
    p = Presentation(
        "bad", ("q",), ("x", "y"), 2, qmat={(0, 1): qv}, tails={(0, 1): {(0, 0): one}},
    )
    report = validate_presentation(p)
    assert not report.passed
    assert "Q1" in {f.condition for f in report.findings}


def test_tail_element_accessor():
    p = quantum_weyl(2)
    t = p.tail_element(1, 2)
    assert t == p.one()
    assert p.tail_element(0, 1).is_zero()
