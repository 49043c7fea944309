"""Drawn properties of the unit scaling and of sigma, against the helpers
kept in reference_scalars.py.

``times_unit`` must return what the product with the unit's one-term
polynomial returns, down to the coefficient types and the denominator;
sigma over the supports of two keys must equal sigma over every pair of
their positions.
"""

import random

import pytest

from qsolv import (
    FracElem,
    LaurentPoly,
    TorusPresentation,
    UnitMonomial,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    rank2,
    torus_normal_scalar,
)
from qsolv.params import normal_scalar, support

from reference_scalars import reference_normal_scalar, reference_scale
from test_mul_table import plane_torus
from test_unit_scaling import assert_same_coefficient

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NAMES = ("q", "r", "s", "t")
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def exponents(width):
    return st.tuples(*[st.integers(-3, 3)] * width)


@st.composite
def polys(draw, width, max_terms=5):
    terms = draw(st.dictionaries(exponents(width), coefficients, max_size=max_terms))
    return LaurentPoly(NAMES[:width], terms)


@st.composite
def scaled_pairs(draw):
    """A coefficient over 0-4 parameters and a unit over the same ones;
    a third of the coefficients are FracElem over a drawn denominator."""
    width = draw(st.integers(0, 4))
    coef = draw(polys(width))
    if draw(st.integers(0, 2)) == 0:
        den = draw(polys(width))
        if den:
            coef = FracElem(coef, den)
    unit = UnitMonomial(NAMES[:width], draw(st.sampled_from((1, -1))), draw(exponents(width)))
    return coef, unit


@SETTINGS
@given(scaled_pairs())
def test_times_unit_matches_the_product(pair):
    coef, unit = pair
    assert_same_coefficient(coef.times_unit(unit), reference_scale(coef, unit))


def seeded_torus(seed):
    rng = random.Random(seed)
    rank, params = rng.randint(2, 7), ("q", "r")
    pmat = {(i, j): UnitMonomial(params, rng.choice((1, -1)),
                                 (rng.randint(-3, 3), rng.randint(-3, 3)))
            for i in range(rank) for j in range(i + 1, rank) if rng.random() < 0.7}
    return TorusPresentation(rank, params, pmat)


FAMILIES = [
    quantum_plane(),
    quantum_affine(3),
    quantum_weyl(1),
    quantum_weyl(2),
    quantum_matrices(2),
    quantum_matrices(3),
    rank2(LaurentPoly.var(("q",), "q") - 3),
    plane_torus(),  # invertible letters, drawn with negative exponents
]
TORI = [seeded_torus(seed) for seed in range(8)]


def keys(n, width):
    """Exponent keys, mostly zero; polynomial entries 0..3, the others
    -3..3."""
    entry = st.integers(0, 3) | st.just(0)
    return st.tuples(*[entry if pos < n else st.integers(-3, 3) for pos in range(width)])


@SETTINGS
@given(st.data())
def test_sigma_over_supports_matches_every_pair(data):
    p = data.draw(st.sampled_from(FAMILIES), label="family")
    a, b = (data.draw(keys(p.n, p.n + p.m)) for _ in range(2))
    got = normal_scalar(p.commutation_unit, a, b, p.params, support(a), support(b))
    assert got == reference_normal_scalar(p.commutation_unit, a, b, p.params)


@SETTINGS
@given(st.data())
def test_torus_sigma_matches_every_pair(data):
    P = data.draw(st.sampled_from(TORI), label="torus")
    a, b = (data.draw(keys(0, P.rank)) for _ in range(2))
    assert torus_normal_scalar(P, a, b) == reference_normal_scalar(P.pairing, a, b, P.params)
