"""The exact value classes, the presentation and the computed results share
one immutability guard; the values also share the operators that follow
from ``_coerce``."""

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import qsolv
from qsolv import (
    CycNumber,
    FracElem,
    LatticeSubgroup,
    LaurentPoly,
    LocElement,
    SpecTarget,
    TorusPresentation,
    UnitMonomial,
    ad_eigencomponents,
    compatible_basis,
    params,
    quantum_plane,
    quantum_weyl,
    specialize_presentation,
    stratify_rank2,
)

P = ("q",)


def q():
    return LaurentPoly.var(P, "q")


VALUES = {
    "LaurentPoly": lambda: q() ** 2 - 3,
    "FracElem": lambda: FracElem(q(), q() + 1),
    "NFElement": lambda: quantum_plane().gen(0) + quantum_plane().gen(1),
    "LocElement": lambda: LocElement(quantum_plane(), 0, quantum_plane().gen(1), 1),
    "CycNumber": lambda: CycNumber.zeta(6),
    "TorusPresentation": lambda: TorusPresentation(2, P, {(0, 1): UnitMonomial.var(P, "q")}),
    "LatticeSubgroup": lambda: LatticeSubgroup(2, [(2, 4), (0, 3)]),
}


# The presentation and the computed results; the results compare by identity.
RESULTS = {
    "Presentation": lambda: quantum_weyl(1),
    "SpecTarget": lambda: SpecTarget.cyclotomic(6, {"q": 1}),
    "SpecializedPresentation": lambda: specialize_presentation(
        quantum_plane(), SpecTarget.rational({"q": 3})),
    "AdSpectrum": lambda: ad_eigencomponents(
        quantum_weyl(1), 0, quantum_weyl(1).generator("x")),
    "Rank2Strata": lambda: stratify_rank2(0),
    "CenterDescription": lambda: compatible_basis(
        LatticeSubgroup(2, [(1, 2)]), 2, VALUES["TorusPresentation"]()),
}


MUTATIONS = {
    "assign": (lambda value, name: setattr(value, name, None), "cannot assign to field"),
    "delete": (delattr, "cannot delete field"),
}


@pytest.mark.parametrize("change, text", MUTATIONS.values(), ids=MUTATIONS)
@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
def test_fields_cannot_change(make, change, text):
    value = make()
    _refuse_change(value, change, text)
    assert value == make()


@pytest.mark.parametrize("change, text", MUTATIONS.values(), ids=MUTATIONS)
@pytest.mark.parametrize("make", RESULTS.values(), ids=RESULTS)
def test_result_fields_cannot_change(make, change, text):
    _refuse_change(make(), change, text)


def _refuse_change(value, change, text):
    """Every field and a new name refuse ``change``, and each field keeps
    its value object."""
    assert not hasattr(value, "__dict__")
    fields = type(value).__slots__
    before = [getattr(value, name) for name in fields]
    shown = repr(value)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"{text} '{name}'"):
            change(value, name)
    assert all(getattr(value, name) is old for name, old in zip(fields, before))
    assert repr(value) == shown


def test_spec_target_order_cannot_go_stale():
    target = SpecTarget.cyclotomic(6, {"q": 1})
    unit = UnitMonomial.var(P, "q")
    assert target.unit_value(unit) == CycNumber.zeta(6)
    with pytest.raises(AttributeError, match="cannot assign to field 'order'"):
        target.order = 4
    assert repr(target) == "SpecTarget(zeta_6: q=zeta^1)"
    assert target.unit_value(unit) == CycNumber.zeta(6)


# Every value class, a signed unit and a presentation with tails, through
# each way of copying: pickle and copy restore fields through the base.
COPIED = dict(
    VALUES,
    UnitMonomial=lambda: UnitMonomial.var(P, "q", -2, sign=-1),
    Presentation=lambda: quantum_weyl(2),
)
COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("duplicate", COPIES.values(), ids=COPIES)
@pytest.mark.parametrize("make", COPIED.values(), ids=COPIED)
def test_copies_are_equal_and_frozen(make, duplicate):
    value = make()
    dup = duplicate(value)
    assert type(dup) is type(value)
    assert dup == value
    assert repr(dup) == repr(value) and str(dup) == str(value)
    fields = type(dup).__slots__ if not hasattr(dup, "__dict__") else tuple(vars(dup))
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(dup, name, None)
    assert dup == value


def test_copied_presentation_still_multiplies():
    w = quantum_weyl(1)
    dup = pickle.loads(pickle.dumps(w))
    y, x = dup.gen(0), dup.gen(1)
    assert y * x == w.gen(0) * w.gen(1)
    assert (x * y).pres is dup


FRAC = FracElem(q(), q() + 1)
ZETA = CycNumber.zeta(6)

# (expression, its value built without subtraction or division)
DERIVED = {
    "2 - q": (lambda: 2 - q(), LaurentPoly(P, {(0,): 2, (1,): -1})),
    "q - 2": (lambda: q() - 2, LaurentPoly(P, {(1,): 1, (0,): -2})),
    "q - unit": (lambda: q() - UnitMonomial.var(P, "q", 2),
                 LaurentPoly(P, {(1,): 1, (2,): -1})),
    "1 - frac": (lambda: 1 - FRAC, FracElem(LaurentPoly.one(P), q() + 1)),
    "frac - 1": (lambda: FRAC - 1, FracElem(LaurentPoly.const(P, -1), q() + 1)),
    "1 / frac": (lambda: 1 / FRAC, FracElem(q() + 1, q())),
    "1 - cyc": (lambda: 1 - ZETA, CycNumber(6, [1, -1])),
    "cyc - 1": (lambda: ZETA - 1, CycNumber(6, [-1, 1])),
    "1 / cyc": (lambda: 1 / ZETA, CycNumber.zeta(6, 5)),
}


@pytest.mark.parametrize("compute, expected", DERIVED.values(), ids=DERIVED)
def test_derived_operators(compute, expected):
    result = compute()
    assert type(result) is type(expected)
    assert result == expected
    assert str(result) == str(expected)


@pytest.mark.parametrize("value", [q(), FRAC, ZETA], ids=["poly", "frac", "cyc"])
def test_foreign_operands_are_refused(value):
    with pytest.raises(TypeError):
        value - "x"
    with pytest.raises(TypeError):
        "x" - value


def test_laurent_poly_has_no_division():
    with pytest.raises(TypeError, match="unsupported operand type"):
        1 / q()


def _qsolv_classes():
    for info in pkgutil.iter_modules(qsolv.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"qsolv.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_frozen_is_the_only_guard():
    classes = list(_qsolv_classes())
    assert params.Frozen in classes
    guarded = [
        cls.__qualname__ for cls in classes
        if {"__setattr__", "__delattr__"} & vars(cls).keys()
    ]
    assert guarded == ["Frozen"]


def test_every_public_class_is_frozen():
    # the parser's cursor and the product engine are private working
    # objects that change as they run
    working = {"_Cursor", "_Engine"}
    loose = [
        cls.__qualname__ for cls in _qsolv_classes()
        if not issubclass(cls, (params.Frozen, Exception)) and cls.__qualname__ not in working
    ]
    assert loose == []
