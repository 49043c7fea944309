"""Evaluating presentations at numeric and root-of-unity parameter values."""

import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

import reference_conditions

from qsolv import (
    CycNumber,
    FracElem,
    LaurentPoly,
    Presentation,
    SpecTarget,
    SpecializationError,
    UnitMonomial,
    classify_specialization,
    cyclotomic_polynomial,
    is_central_at,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    rank2,
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


@pytest.mark.parametrize("make", [
    lambda: CycNumber.zeta(6) ** 2.5,
    lambda: CycNumber.zeta(6, 1.5),
    lambda: CycNumber.zeta(6.0),
    lambda: cyclotomic_polynomial(2.5),
], ids=["power", "zeta-power", "zeta-order", "cyclotomic-order"])
def test_cyclotomic_integers_must_be_integers(make):
    # zeta_6 ** 2.5 was zeta_6 ** 2, and the others raised "can't multiply
    # sequence by non-int"
    with pytest.raises(TypeError, match="expected an integer exponent"):
        make()


def test_cyclotomic_integers_read_fractions_exactly():
    assert cyclotomic_polynomial(F(6)) == cyclotomic_polynomial(6)
    z = CycNumber.zeta(F(6), F(3))
    assert z == CycNumber.zeta(6, 3) and type(z.N) is int
    assert CycNumber.zeta(6) ** F(2) == CycNumber.zeta(6) ** 2


@pytest.mark.parametrize("make", [
    lambda: CycNumber.const(5, 0.1),
    lambda: CycNumber(5, [F(1, 2), 0.5]),
    lambda: CycNumber(5, ["1/2"]),
    lambda: rational_torsionfree([0.1, 3]),
    lambda: rational_torsionfree(["1/2", -2]),
], ids=["const-float", "vector-float", "vector-string", "torsionfree-float",
        "torsionfree-string"])
def test_cyclotomic_and_unit_values_must_be_rational(make):
    # const(5, 0.1) stored the float's binary fraction
    # 3602879701896397/36028797018963968, the strings were parsed, and
    # rational_torsionfree([0.1, 3]) decided on 0.1's binary expansion
    with pytest.raises(TypeError, match="expected a rational value"):
        make()


def test_cyclotomic_values_are_kept_as_fractions():
    c = CycNumber(5, [2, F(3, 1), F(1, 3)])
    assert c.vec == (2, 3, F(1, 3), 0)
    assert {type(v) for v in c.vec} == {Fraction}
    assert {type(v) for v in CycNumber.const(5, 7).vec} == {Fraction}


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


def test_cyc_number_prints_like_other_sums():
    assert str(CycNumber.zeta(3, 2)) == "-1 - z"
    assert str(CycNumber.zeta(4, 3)) == "-z"
    assert repr(CycNumber.zeta(4, 3)) == "CycNumber(zeta_4: -z)"
    assert str(CycNumber(12, [0, 2, 0, -1])) == "2*z - z^3"
    assert str(CycNumber(5, [F(1, 2), 0, F(-1, 3)])) == "1/2 - 1/3*z^2"
    assert str(CycNumber.const(6, 0)) == "0"


def test_spec_target_construction():
    t = SpecTarget.rational({"q": F(3)})
    assert t.kind == "rational"
    assert t.assignment(("q",)) == {"q": F(3)}
    z = SpecTarget.cyclotomic(4, {"q": 1})
    assert z.assignment(("q",)) == {"q": CycNumber.zeta(4, 1)}
    assert SpecTarget.transcendental().assignment(("q",)) is None


def _random_unit(rng, params):
    return UnitMonomial(params, rng.choice((1, -1)),
                        tuple(rng.randint(-9, 9) for _ in params))


def test_unit_value_at_roots_of_unity_matches_evaluation():
    rng = random.Random(61)
    names = ("q", "r", "s")
    for N in range(1, MAX_CYCLOTOMIC_ORDER + 1):
        params = names[:N % 3 + 1]
        target = SpecTarget.cyclotomic(N, {n: rng.randrange(N) for n in params})
        assignment = target.assignment(params)
        for sign in (1, -1):
            unit = _random_unit(rng, params)
            unit = unit if unit.sign == sign else -unit
            assert target.unit_value(unit) == unit.as_poly().eval_map(assignment)
        # memoized: equal units give the very same value
        assert target.unit_value(unit) is target.unit_value(unit)


def test_unit_value_at_rational_and_generic_targets():
    rng = random.Random(3)
    params = ("q", "r")
    target = SpecTarget.rational({"q": F(-3, 4), "r": F(5)})
    for _ in range(50):
        unit = _random_unit(rng, params)
        assert target.unit_value(unit) == reference_conditions.unit_value(unit, target)
    unit = _random_unit(rng, params)
    assert SpecTarget.transcendental().unit_value(unit) is unit
    sp = specialize_presentation(quantum_plane(), SpecTarget.transcendental())
    assert sp.commutation_value(0, 1) == UnitMonomial.var(("q",), "q")


def _tail_coefficients():
    """Distinct tail coefficients of the families, by parameter tuple."""
    families = [quantum_weyl(1), quantum_weyl(2), quantum_affine(3), quantum_matrices(2),
                quantum_matrices(3), rank2((qvar() - 3) * (qvar() ** 2 + qvar() - 5))]
    coefs = {}
    for p in families:
        for terms in p.tails.values():
            for coef in terms.values():
                coefs.setdefault(p.params, {})[str(coef)] = coef
    return {params: list(found.values()) for params, found in coefs.items()}


def test_tail_values_at_roots_of_unity_match_evaluation():
    rng = random.Random(64)
    by_params = _tail_coefficients()
    assert sum(map(len, by_params.values())) >= 5
    for N in range(1, MAX_CYCLOTOMIC_ORDER + 1):
        for params, coefs in by_params.items():
            target = SpecTarget.cyclotomic(N, {n: rng.randrange(-N, N) for n in params})
            # the reference is slow: three coefficients per order, in turn
            for k in range(min(3, len(coefs))):
                coef = coefs[(3 * N + k) % len(coefs)]
                got = special._eval_coef(coef, target)
                want = reference_conditions.eval_coef(coef, target)
                assert got == want and type(got) is type(want), (N, params, str(coef))


def test_fraction_coefficients_at_targets_match_evaluation():
    rng = random.Random(5)
    q = qvar()
    values = [q - 1, q ** 3 + 2 * q ** -2 - F(1, 2), 3 * q ** 2, LaurentPoly.const(("q",), 7)]
    for N in (1, 2, 3, 4, 6, 12, 17, 30, 64):
        target = SpecTarget.cyclotomic(N, {"q": rng.randrange(N)})
        for num, den in itertools.product(values, repeat=2):
            coef = FracElem(num, den)
            try:
                want = reference_conditions.eval_coef(coef, target)
            except SpecializationError:
                with pytest.raises(SpecializationError):
                    special._eval_coef(coef, target)
                continue
            assert special._eval_coef(coef, target) == want
    target = SpecTarget.rational({"q": F(-2, 3)})
    for num, den in itertools.product(values, repeat=2):
        coef = FracElem(num, den)
        assert special._eval_coef(coef, target) == reference_conditions.eval_coef(coef, target)


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


@pytest.mark.parametrize("make", [
    lambda: SpecTarget.rational({"q": 0.1}),
    lambda: SpecTarget.cyclotomic(5, {"q": 1.5}),
    lambda: SpecTarget.cyclotomic(5.0, {"q": 1}),
], ids=["rational", "exponent", "order"])
def test_spec_target_rejects_floats(make):
    # these stored 3602879701896397/36028797018963968, used zeta^1 and
    # printed zeta_5.0: q=zeta^1.0
    with pytest.raises(TypeError):
        make()


def test_spec_target_reads_ints_and_fractions_exactly():
    rational = SpecTarget.rational({"q": 3, "r": F(-2, 3)})
    assert rational.values == {"q": F(3), "r": F(-2, 3)}
    assert all(type(v) is Fraction for v in rational.values.values())
    assert repr(rational) == "SpecTarget(rational: q=3, r=-2/3)"
    cyclotomic = SpecTarget.cyclotomic(F(5), {"q": F(7), "r": -1})
    assert (cyclotomic.order, cyclotomic.exponents) == (5, {"q": 2, "r": 4})
    assert type(cyclotomic.order) is int
    assert repr(cyclotomic) == "SpecTarget(zeta_5: q=zeta^2, r=zeta^4)"


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
    # positive rationals generate a torsion-free group: no coprime base
    def refuse(numbers):
        raise AssertionError(f"refined {numbers}")

    monkeypatch.setattr(special, "_coprime_base", refuse)
    assert rational_torsionfree([F(1000000000039), F(2, 3), F(1)]) is True
    assert rational_torsionfree([]) is True
    target = SpecTarget.rational({"q": F(1000000000039)})
    assert specialize_presentation(quantum_plane(), target).passed
    with pytest.raises(AssertionError):
        rational_torsionfree([F(-2), F(3)])


def _random_rational(rng):
    # shared factors (6, 10, 15), perfect powers and +-1 are all common
    pool = (2, 3, 5, 6, 7, 10, 12, 15, 4, 8, 9, 27, 49, 30, 11, 121, 1001)
    if rng.random() < 0.15:
        return F(rng.choice((1, -1)))

    def part():
        out = 1
        for _ in range(rng.randint(0, 3)):
            out *= rng.choice(pool) ** rng.randint(1, 3)
        return out

    return F(rng.choice((1, -1)) * part(), part())


def test_rational_torsionfree_matches_trial_division():
    rng = random.Random(20260518)
    verdicts = set()
    for _ in range(300):
        values = [_random_rational(rng) for _ in range(rng.randint(1, 5))]
        if all(v > 0 for v in values):
            values[0] = -values[0]
        expected = reference_conditions.rational_torsionfree(values)
        assert rational_torsionfree(values) is expected, values
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_coprime_base():
    assert special._coprime_base([12, 18, 1, 35]) == (2, 3, 35)
    assert special._coprime_base([6, 10, 15]) == (2, 3, 5)
    assert special._coprime_base([]) == ()
    rng = random.Random(7)
    for _ in range(100):
        numbers = [rng.randint(1, 10 ** 6) for _ in range(rng.randint(1, 6))]
        base = special._coprime_base(numbers)
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
        for n in numbers:
            for b in base:
                n //= b ** special._valuation(n, b)
            assert n == 1


BIG = 10 ** 18 + 3  # prime
P1, P2 = 10 ** 9 + 7, 10 ** 9 + 9  # primes


@pytest.mark.parametrize(
    "values, expected",
    [
        ([F(-BIG)], True),
        ([F(-BIG), F(BIG)], False),
        ([F(-BIG), F(1, BIG)], False),
        ([F(-P1 * P2), F(P1)], True),
        ([F(-P1 * P2), F(P1), F(P2)], False),
        ([F(-P1 * P2), F(P1 ** 2 * P2, 3)], True),
        ([F(-(P1 * P2) ** 3), F(P1 * P2, 1) ** 2], True),
        ([F(-(P1 * P2) ** 3), F(P1 * P2)], False),
    ],
)
def test_rational_torsionfree_large_values(values, expected):
    # trial division would need about 10^9 divisions for each of these
    assert rational_torsionfree(values) is expected


@pytest.mark.parametrize("q", [BIG, -BIG, -P1 * P2])
def test_specialize_at_large_values(q):
    plane = specialize_presentation(quantum_plane(), SpecTarget.rational({"q": F(q)}))
    assert plane.passed
    weyl = specialize_presentation(quantum_weyl(1), SpecTarget.rational({"c": F(q)}))
    assert weyl.passed
    # two parameters at q and -q put -1 into the group
    two = Presentation("two", ("q", "r"), ("x", "y", "z"), 3, qmat={
        (0, 1): UnitMonomial.var(("q", "r"), "q"),
        (0, 2): UnitMonomial.var(("q", "r"), "r"),
    })
    sp = specialize_presentation(two, SpecTarget.rational({"q": F(q), "r": F(-q)}))
    assert [f.condition for f in sp.findings.findings] == ["Q2"]


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


def test_spec_target_pickles_without_its_roots():
    target = SpecTarget.cyclotomic(12, {"q": 1})
    size = len(pickle.dumps(target))
    unit = UnitMonomial.var(("q",), "q", 5, sign=-1)
    value = target.unit_value(unit)
    assert target._roots
    assert len(pickle.dumps(target)) == size
    dup = pickle.loads(pickle.dumps(target))
    assert dup._roots is None and dup.unit_value(unit) == value
