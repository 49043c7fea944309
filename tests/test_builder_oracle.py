"""The presentation builders against the former ones in
reference_presentation.py, and a count gate on the unit work they do.

The builders and the constructor work on integer exponent vectors: no
presentation is built through ``UnitMonomial.pow`` or unit products, a
build makes at most one unit for each scalar it stores or mirrors, and
the Weyl tails are written down without Laurent arithmetic.  Counts are
the same on every machine, so a lost fast path fails here.
"""

import collections
import hashlib
from pathlib import Path

import pytest

from qsolv import (
    LaurentPoly,
    Presentation,
    UnitMonomial,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    rank2,
)
from qsolv.cli import parse_presentation, print_presentation
from qsolv.presentation import _weyl_pair_names
from reference_presentation import (
    quantum_matrices_data,
    quantum_weyl_data,
    reference_dense_table,
    reference_weight_rows,
)

DATA = Path(__file__).parent / "data"

# sha256 of print_presentation(quantum_matrices(n)) from the former builder
PRINTED = {
    1: "7952a60c4b988ebd56e84678e176ecd109a11d4519154029d8f0b769fa38bbc8",
    2: "7a46d95e6f3b22b3f016a1f9617daaf374f1c43e6f7f709d2212e6993fc2b752",
    3: "f96f935d5a94ad2b739581d989e1c8b9b23f48fce201ea92a446c3294c78ea2e",
    4: "069198c3d36e07c6a8df970b76a60e6d2d609ca13b0b2e2310e23c02cc3cdbf4",
    5: "8df899f17b2c201ab7bbcd17b66149d7ed591b16fe3e98c6f19d0df9e1ee9fb5",
    6: "8d8dde3cf468054dadf3e3888a3a82d67adf39f8283332923faa16da245a61f8",
    7: "965951fe3f72a2ca12819905b25a42a6134852152462a694b1820d19c65d5293",
    8: "1c004e930a3dde05e5ee7805ce281e92554a46d48004cab11f0c166acd153c2e",
    9: "332bf359a4b9c500571e088f7f4652c04b07c7771715b54fc795906261c24d3f",
}
# sha256 of print_presentation(quantum_weyl(n)) from the former builder
WEYL_PRINTED = {
    1: "9bec92da39cb2ee2268ef3a05c53ffdbe0e23690e4e6a6f6ea36c030664046f5",
    2: "ca10111f6db29625931e5cc6e5c7e2ac31919d1648c10f98b018ceabb4f5f93a",
    3: "b86376c3b385b1279e130041e36d6d80046e31df3a0dc8144803d90e8f2cae80",
    4: "12a09a5c7d8831078f90ef0b2fbba59072ae89eb76e4829792657ce08ba16b2d",
    5: "0ce77637ce68941052a3840a9d4c08119e3beb8d7e7eb4f850a5b6f1cd638475",
    6: "6ee4f0c0ac63caccf9fc1272e834c07e8b2d3efccc10a101dd7205004b5b83ad",
    7: "71e167b03cd8a0d56e6e4ac5b391c1205f261f25021ed392e632f6b9acb9640a",
}


@pytest.mark.parametrize("n", range(1, 10))
def test_quantum_matrices_match_reference(n):
    name, params, gens, npoly, qmat, tails, qskew, hweights = quantum_matrices_data(n)
    p = quantum_matrices(n)
    assert (p.name, p.params, p.gens, p.n, p.m) == (name, params, gens, npoly, 0)
    assert p.qmat == qmat and list(p.qmat) == list(qmat)
    assert p.tails == tails and list(p.tails) == list(tails)
    assert p.qskew == tuple(qskew)
    assert p.hweights == tuple(map(tuple, hweights))
    assert p._cu == reference_dense_table(p)
    ref = Presentation(name, params, gens, npoly,
                       qmat=qmat, tails=tails, qskew=qskew, hweights=hweights)
    text = print_presentation(p)
    assert text == print_presentation(ref)
    assert hashlib.sha256(text.encode()).hexdigest() == PRINTED[n]
    if n <= 6:
        assert parse_presentation(text) == p


@pytest.mark.parametrize("n", range(1, 8))
def test_quantum_weyl_matches_reference(n):
    name, params, gens, npoly, qmat, tails, qskew, hweights = quantum_weyl_data(n)
    p = quantum_weyl(n)
    assert (p.name, p.params, p.gens, p.n, p.m) == (name, params, gens, npoly, 0)
    assert p.qmat == qmat
    assert p.tails == tails
    assert p.qskew == tuple(qskew)
    assert p.hweights == tuple(map(tuple, hweights))
    assert p._cu == reference_dense_table(p)
    ref = Presentation(name, params, gens, npoly,
                       qmat=qmat, tails=tails, qskew=qskew, hweights=hweights)
    text = print_presentation(p)
    assert text == print_presentation(ref)
    assert hashlib.sha256(text.encode()).hexdigest() == WEYL_PRINTED[n]
    assert parse_presentation(text) == p


def test_weyl_pair_names_stay_unique():
    # without a separator r_(1,112) and r_(11,12) were both r1112, and
    # quantum_weyl(112) raised duplicate parameter names
    n = 112
    names = _weyl_pair_names(n, [(i, j) for i in range(1, n + 1)
                                 for j in range(i + 1, n + 1)])
    assert len(set(names)) == len(names) == n * (n - 1) // 2
    assert {"r1_112", "r11_12"} <= set(names)
    assert _weyl_pair_names(9, [(1, 9)]) == ("r19",)
    assert _weyl_pair_names(10, [(1, 10), (2, 3)]) == ("r1_10", "r2_3")


def test_quantum_weyl_12_parses_back():
    p = quantum_weyl(12)
    assert p.params[1:3] == ("r1_2", "r1_3")
    assert parse_presentation(print_presentation(p)) == p


def signed_torus():
    """Negative scalars, Laurent generators, a skew constant and one
    explicit weight: the constructor fills the rest of the table."""
    params = ("q", "r")
    q = UnitMonomial.var(params, "q")
    r = UnitMonomial.var(params, "r")
    return Presentation(
        "signed", params, ("x", "y", "k"), 2,
        qmat={(0, 1): -(q * q), (0, 2): q * r.pow(-3), (1, 2): -r},
        qskew=[-q, UnitMonomial.one(params)],
        hweights={(1, 0): r},
    )


BUILT = {
    "plane": quantum_plane,
    "affine4": lambda: quantum_affine(4),
    "weyl1": lambda: quantum_weyl(1),
    "weyl3": lambda: quantum_weyl(3),
    "rank2": lambda: rank2(LaurentPoly.var(("q",), "q") - 3),
    "rank2_zero": lambda: rank2(0),
    "signed": signed_torus,
}
FILES = sorted(DATA.glob("*.alg"))


@pytest.mark.parametrize("make", [*BUILT.values(), *FILES],
                         ids=[*BUILT, *(f.stem for f in FILES)])
def test_dense_table_matches_reference(make):
    p = parse_presentation(make.read_text()) if isinstance(make, Path) else make()
    assert p._cu == reference_dense_table(p)


def test_default_weights_match_reference():
    p = signed_torus()
    r = UnitMonomial.var(p.params, "r")
    assert p.hweights == reference_weight_rows(p, {(1, 0): r})
    assert p.hweight(0, 0) == UnitMonomial(p.params, -1, (-1, 0))
    plane = quantum_plane()
    assert plane.hweights == reference_weight_rows(plane)


@pytest.fixture
def unit_calls(monkeypatch):
    """Count UnitMonomial constructions, powers and products, and
    LaurentPoly sums, differences and products, by qualified name."""
    calls = collections.Counter()
    for cls, names in ((UnitMonomial, ("__init__", "pow", "__mul__")),
                       (LaurentPoly, ("__add__", "__sub__", "__mul__"))):
        for name in names:
            original = getattr(cls, name)
            key = f"{cls.__name__}.{name}"

            def counted(*args, _key=key, _original=original):
                calls[_key] += 1
                return _original(*args)

            monkeypatch.setattr(cls, name, counted)
    return calls


def test_building_quantum_matrices_makes_one_unit_per_scalar(unit_calls):
    # the former builder made 2,511 powers and 13,816 units for n = 6
    p = quantum_matrices(6)
    assert unit_calls["UnitMonomial.pow"] == 0
    stored = len(p.qmat) + len(p.qskew) + p.n * len(p.gens)
    mirrored = len(p.qmat)
    assert unit_calls["UnitMonomial.__init__"] <= stored + mirrored


def test_building_quantum_weyl_makes_no_arithmetic(unit_calls):
    # the former builder added and multiplied Laurent polynomials for
    # every n, in its tail recursion and in c^-1 - 1
    p = quantum_weyl(6)
    arithmetic = ("UnitMonomial.pow", "UnitMonomial.__mul__", "LaurentPoly.__add__",
                  "LaurentPoly.__sub__", "LaurentPoly.__mul__")
    assert {name: unit_calls[name] for name in arithmetic} == dict.fromkeys(arithmetic, 0)
    stored = len(p.qmat) + len(p.qskew) + p.n * len(p.gens)
    mirrored = len(p.qmat)
    assert unit_calls["UnitMonomial.__init__"] <= stored + mirrored


def test_parsing_makes_no_unit_powers(unit_calls):
    text = (DATA / "matrices3.alg").read_text()
    p = parse_presentation(text)
    assert unit_calls["UnitMonomial.pow"] == 0
    assert p == quantum_matrices(3)
