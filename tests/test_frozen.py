"""The exact value classes share one immutability guard and the operators
that follow from ``_coerce``."""

import importlib
import inspect
import pkgutil

import pytest

import qsolv
from qsolv import (
    CycNumber,
    FracElem,
    LatticeSubgroup,
    LaurentPoly,
    LocElement,
    TorusPresentation,
    UnitMonomial,
    params,
    quantum_plane,
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


MUTATIONS = {
    "assign": (lambda value, name: setattr(value, name, None), "cannot assign to field"),
    "delete": (delattr, "cannot delete field"),
}


@pytest.mark.parametrize("change, text", MUTATIONS.values(), ids=MUTATIONS)
@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
def test_fields_cannot_change(make, change, text):
    value = make()
    assert not hasattr(value, "__dict__")
    fields = type(value).__slots__
    before = [getattr(value, name) for name in fields]
    shown = repr(value)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"{text} '{name}'"):
            change(value, name)
    assert all(getattr(value, name) is old for name, old in zip(fields, before))
    assert repr(value) == shown
    assert value == make()


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
