"""Evaluating presentations at numeric and root-of-unity parameter values."""

from fractions import Fraction

import pytest

from qsolv import (
    CycNumber,
    LaurentPoly,
    SpecTarget,
    SpecializationError,
    classify_specialization,
    cyclotomic_polynomial,
    is_central_at,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    root_of_unity_witness,
    specialize_presentation,
    validate_presentation,
)
from qsolv import special
from qsolv.special import MAX_CYCLOTOMIC_ORDER, rational_torsionfree


def F(*args):
    return Fraction(*args)


def qvar():
    return LaurentPoly.var(("q",), "q")


@pytest.mark.parametrize(
    "N, coeffs",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (8, (1, 0, 0, 0, 1)),
        (9, (1, 0, 0, 1, 0, 0, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_cyclotomic_polynomials(N, coeffs):
    assert cyclotomic_polynomial(N) == tuple(F(c) for c in coeffs)


def test_cyclotomic_product_identity():
    # prod over divisors of Phi_d recovers z^N - 1
    import math

    for N in (6, 12):
        prod = [F(1)]
        for d in range(1, N + 1):
            if N % d:
                continue
            phi = cyclotomic_polynomial(d)
            out = [F(0)] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        expected = [F(-1)] + [F(0)] * (N - 1) + [F(1)]
        assert prod == expected


def test_cyclotomic_order_cap():
    with pytest.raises(SpecializationError):
        cyclotomic_polynomial(MAX_CYCLOTOMIC_ORDER + 1)
    with pytest.raises(SpecializationError):
        cyclotomic_polynomial(0)


def test_cyc_number_arithmetic():
    z = CycNumber.zeta(4, 1)
    assert z * z == CycNumber.const(4, -1)
    assert z ** 4 == CycNumber.const(4, 1)
    assert (z + 1) - 1 == z
    assert z * z.inverse() == CycNumber.const(4, 1)
    assert z ** -1 == z ** 3
    w = CycNumber.zeta(3, 1)
    assert w * w + w + 1 == CycNumber.const(3, 0)


def test_cyc_number_is_primitive():
    for N in range(1, 13):
        z = CycNumber.zeta(N, 1)
        powers = [z ** k for k in range(1, N)]
        assert all(not p.is_one() for p in powers)
        assert (z ** N).is_one()


def test_cyc_number_fraction_coercion():
    z = CycNumber.zeta(5, 1)
    half = F(1, 2)
    assert (z * half) + (z * half) == z
    assert half + z - z == CycNumber.const(5, half)


def test_spec_target_construction():
    t = SpecTarget.rational({"q": F(3)})
    assert t.kind == "rational"
    assert t.assignment(("q",)) == {"q": F(3)}
    z = SpecTarget.cyclotomic(4, {"q": 1})
    assert z.assignment(("q",)) == {"q": CycNumber.zeta(4, 1)}
    assert SpecTarget.transcendental().assignment(("q",)) is None


def test_spec_target_rejects_degenerate_values():
    with pytest.raises(SpecializationError):
        SpecTarget.rational({"q": F(0)})
    with pytest.raises(SpecializationError):
        SpecTarget.cyclotomic(MAX_CYCLOTOMIC_ORDER + 1, {"q": 1})
    with pytest.raises(SpecializationError):
        SpecTarget.cyclotomic(0, {"q": 1})
    # a parameter missing from the assignment surfaces at lookup time
    t = SpecTarget.rational({"q": F(2)})
    with pytest.raises(SpecializationError):
        t.assignment(("q", "r"))


@pytest.mark.parametrize(
    "values, expected",
    [
        ([F(-2)], True),
        ([F(-1)], False),
        ([F(2), F(3)], True),
        ([F(-2), F(2)], False),
        ([F(-2), F(-3), F(6)], True),
        ([F(-1), F(1)], False),
        ([F(1)], True),
    ],
)
def test_rational_torsionfree(values, expected):
    assert rational_torsionfree(values) is expected


def test_positive_values_skip_factoring(monkeypatch):
    # positive rationals generate a torsion-free group: no factoring
    def refuse(v):
        raise AssertionError(f"factored {v}")

    monkeypatch.setattr(special, "_factor_rational", refuse)
    assert rational_torsionfree([F(1000000000039), F(2, 3), F(1)]) is True
    assert rational_torsionfree([]) is True
    target = SpecTarget.rational({"q": F(1000000000039)})
    assert specialize_presentation(quantum_plane(), target).passed
    with pytest.raises(AssertionError):
        rational_torsionfree([F(-2), F(3)])


@pytest.mark.parametrize(
    "p, target",
    [
        (quantum_plane().replace_tail(0, 1, {(1, 0): 1}), SpecTarget.rational({"q": F(2)})),
        (quantum_plane().replace_tail(0, 1, {(1, 0): 1}), SpecTarget.cyclotomic(6, {"q": 1})),
        (quantum_weyl(1).replace_tail(0, 1, {(0, 0): 1, (0, 1): 1}),
         SpecTarget.rational({"c": F(5)})),
        (quantum_plane().replace_tail(0, 1, {(0, 0): 1}), SpecTarget.rational({"q": F(3)})),
        (quantum_affine(3).replace_tail(1, 2, {(0, 0, 0): 1})
         .replace_tail(0, 1, {(0, 0, 2): 1}), SpecTarget.rational({"q": F(2)})),
    ],
    ids=["wf-placement", "wf-placement-zeta6", "weyl-q3", "plane-q1", "affine3-two-tails"],
)
def test_specialize_reports_validator_findings(p, target):
    # the targets keep every symbolic failure, so the WF/Q1/Q3 findings
    # there are the validator's, in its order; a WF failure stops Q1/Q3
    def relations(findings):
        return [f for f in findings if f.condition != "Q2"]

    symbolic = relations(validate_presentation(p).findings)
    assert symbolic
    assert relations(specialize_presentation(p, target).findings.findings) == symbolic


def test_specialize_plane_rational():
    sp = specialize_presentation(quantum_plane(), SpecTarget.rational({"q": F(3)}))
    assert sp.passed
    assert sp.commutation_value(0, 1) == F(3)
    assert sp.commutation_value(1, 0) == F(1, 3)
    assert sp.qskew_values == (F(1), F(1))


def test_specialize_plane_at_root_of_unity_fails_q2():
    sp = specialize_presentation(quantum_plane(), SpecTarget.cyclotomic(4, {"q": 1}))
    assert not sp.passed
    conditions = {f.condition for f in sp.findings.findings}
    assert conditions == {"Q2"}


def test_specialize_plane_at_one_passes():
    # q = 1 is the commutative point: nothing to generate torsion with
    sp = specialize_presentation(quantum_plane(), SpecTarget.cyclotomic(1, {"q": 1}))
    assert sp.passed


def test_specialize_weyl_and_matrices():
    w = specialize_presentation(quantum_weyl(1), SpecTarget.rational({"c": F(5)}))
    assert w.passed
    assert w.tail_values == {(0, 1): {(0, 0): F(1)}}
    m = specialize_presentation(
        quantum_matrices(2), SpecTarget.rational({"h": F(2), "q12": F(3)})
    )
    assert m.passed


def test_specialize_negative_value_passes():
    sp = specialize_presentation(quantum_plane(), SpecTarget.rational({"q": F(-2)}))
    assert sp.passed


def test_specialize_transcendental_passthrough():
    sp = specialize_presentation(quantum_weyl(2), SpecTarget.transcendental())
    assert sp.passed


def test_classify_specialization():
    f = qvar() ** 2 - 5 * qvar() + 6
    for v in (1, 2, 3):
        assert classify_specialization(f, SpecTarget.rational({"q": F(v)})) is False
    assert classify_specialization(f, SpecTarget.rational({"q": F(7)})) is True
    assert classify_specialization(f, SpecTarget.transcendental()) is True
    with pytest.raises(SpecializationError):
        classify_specialization(f, SpecTarget.cyclotomic(3, {"q": 1}))


def test_classify_zero_tail():
    # with no tail only q = 1 is excluded
    assert classify_specialization(0, SpecTarget.rational({"q": F(1)})) is False
    assert classify_specialization(0, SpecTarget.rational({"q": F(5)})) is True


def test_is_central_at():
    p = quantum_plane()
    xsq = p.monomial((2, 0))
    assert is_central_at(p, xsq, SpecTarget.cyclotomic(2, {"q": 1})) is True
    assert is_central_at(p, xsq, SpecTarget.transcendental()) is False
    assert is_central_at(p, p.one(), SpecTarget.transcendental()) is True


def test_root_of_unity_witness():
    p = quantum_plane()
    for N in (1, 2, 3, 5):
        central, K, rank = root_of_unity_witness(p, N)
        assert central == (True, True)
        assert rank == N * N
        basis = tuple(tuple(N if i == j else 0 for j in range(2)) for i in range(2))
        assert K.basis == basis if N > 1 else K.is_full()


def test_root_of_unity_witness_needs_tail_free():
    with pytest.raises(SpecializationError):
        root_of_unity_witness(quantum_weyl(1), 3)
