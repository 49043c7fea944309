"""The hand-written immutable value classes behave as the frozen
dataclasses they replaced: equality, hashing, repr and refusal to change."""

import pytest

from qsolv import (
    Finding,
    LaurentPoly,
    StratumDescriptor,
    UnitMonomial,
    ValidationReport,
    quantum_affine,
    quantum_plane,
    stratify_affine,
    stratify_rank2,
    validate_presentation,
)
from qsolv.strat import Rank2Stratum

M1 = ("primes avoiding u; localizing at the normal element u gives a twisted "
      "Laurent model")


def wf_finding():
    p = quantum_plane()
    bad = p.replace_tail(0, 1, {(1, 0): LaurentPoly.const(p.params, 1)})
    return validate_presentation(bad).findings[0]


# (instance, an equal instance built separately, its repr as the dataclass
# printed it)
CASES = {
    "Finding": (
        wf_finding,
        lambda: Finding("WF", "tail x y", "monomial uses x, not after x"),
        "Finding(condition='WF', location='tail x y', "
        "message='monomial uses x, not after x', severity='error')",
    ),
    "Finding-note": (
        lambda: Finding("Q2", "unit group", "msg", "note"),
        lambda: Finding("Q2", "unit group", "msg", severity="note"),
        "Finding(condition='Q2', location='unit group', message='msg', severity='note')",
    ),
    "ValidationReport": (
        lambda: ValidationReport(False, (wf_finding(),)),
        lambda: ValidationReport(passed=False, findings=(wf_finding(),)),
        "ValidationReport(passed=False, findings=(Finding(condition='WF', "
        "location='tail x y', message='monomial uses x, not after x', "
        "severity='error'),))",
    ),
    "ValidationReport-empty": (
        lambda: validate_presentation(quantum_plane()),
        lambda: ValidationReport(True, ()),
        "ValidationReport(passed=True, findings=())",
    ),
    "Rank2Stratum": (
        lambda: stratify_rank2(LaurentPoly.var(("q",), "q") - 3).strata[0],
        lambda: Rank2Stratum("M1", False, M1),
        f"Rank2Stratum(label='M1', containsU=False, description={M1!r})",
    ),
    "UnitMonomial": (
        lambda: UnitMonomial(("q", "r"), -1, (2, -1)),
        lambda: UnitMonomial.var(("q", "r"), "q", 2, -1) * UnitMonomial.var(("q", "r"), "r", -1),
        "UnitMonomial(-q^2*r^-1)",
    ),
}


@pytest.mark.parametrize("make, make_equal, text", CASES.values(), ids=CASES)
def test_equal_values_compare_and_hash_equal(make, make_equal, text):
    a, b = make(), make_equal()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("make, make_equal, text", CASES.values(), ids=CASES)
def test_repr_is_the_dataclass_repr(make, make_equal, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, make_equal, text", CASES.values(), ids=CASES)
def test_fields_cannot_change(make, make_equal, text):
    record = make()
    assert list(vars(record))  # the fields live in the instance dict
    for name in list(vars(record)):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == make_equal()


def test_different_values_or_classes_differ():
    a = Finding("Q1", "x", "m")
    assert a != Finding("Q1", "x", "m", "note")
    assert a != ("Q1", "x", "m", "error")
    assert UnitMonomial.one(("q",)) != UnitMonomial(("q",), -1, (0,))
    assert UnitMonomial.one(("q",)) != UnitMonomial.one(("r",))
    assert Rank2Stratum("M1", False, "d") != Rank2Stratum("M1", True, "d")


def test_stratum_descriptor():
    strata = stratify_affine(quantum_affine(2))
    s = strata[1]
    assert repr(s) == ("StratumDescriptor(composition=(0, 1), vanishing=('x1',), "
                       "inverted=('x2',), torus=TorusPresentation(rank 1: commutative))")
    again = stratify_affine(quantum_affine(2))[1]
    assert s == again and s != strata[0]
    # the torus defines equality but no hash, so the stratum has none either
    with pytest.raises(TypeError):
        hash(s)
    with pytest.raises(AttributeError):
        s.torus = None
    assert StratumDescriptor(s.composition, s.vanishing, s.inverted, s.torus) == s


def test_unit_monomial_checks_its_fields():
    with pytest.raises(ValueError, match="sign"):
        UnitMonomial(("q",), 2, (1,))
    with pytest.raises(ValueError, match="sign"):
        UnitMonomial(("q",), 0, (1,))
    with pytest.raises(ValueError, match="width"):
        UnitMonomial(("q",), 1, (1, 2))
    with pytest.raises(ValueError, match="width"):
        UnitMonomial((), -1, (0,))
