"""Torus weights of monomials and the homogeneous decomposition."""

from fractions import Fraction

import pytest

from qsolv import (
    UnitMonomial,
    element_weight,
    is_homogeneous,
    monomial_weight,
    nf_mul,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    split_ideal_generators,
    weight_components,
)


def test_monomial_weight_entries():
    p = quantum_plane()
    # weight of x under conjugation by (x, y)
    assert monomial_weight(p, (1, 0)) == (
        UnitMonomial.one(p.params),
        UnitMonomial.var(p.params, "q", -1),
    )
    assert monomial_weight(p, (0, 0)) == (
        UnitMonomial.one(p.params),
        UnitMonomial.one(p.params),
    )


@pytest.mark.parametrize("key", [(1,), (1, 0, 5), ()])
def test_monomial_weight_checks_the_key_width(key):
    # (1,) returned a weight and (1, 0, 5) raised a bare IndexError
    with pytest.raises(ValueError, match="exponent key width does not match"):
        monomial_weight(quantum_plane(), key)


def test_monomial_weight_reads_the_key_exactly():
    p = quantum_plane()
    # (1.5, 0) returned the unit q^-1.5
    with pytest.raises(TypeError, match="expected an integer exponent"):
        monomial_weight(p, (1.5, 0))
    assert monomial_weight(p, [Fraction(2), 0]) == monomial_weight(p, (2, 0))


def test_monomial_weight_multiplicative():
    p = quantum_matrices(2)
    k1, k2 = (1, 0, 2, 0), (0, 3, 0, 1)
    ksum = tuple(a + b for a, b in zip(k1, k2))
    w1, w2, ws = (monomial_weight(p, k) for k in (k1, k2, ksum))
    assert ws == tuple(a * b for a, b in zip(w1, w2))


def test_weyl_tail_is_isoweight():
    # y*x and 1 share a weight, which is what keeps nf_mul(x, y) homogeneous
    p = quantum_weyl(1)
    assert monomial_weight(p, (1, 1)) == monomial_weight(p, (0, 0))
    product = nf_mul(p.gen(1), p.gen(0))
    assert is_homogeneous(product)


def test_element_weight():
    p = quantum_weyl(1)
    x = p.gen(1)
    assert element_weight(x) == (
        UnitMonomial.var(p.params, "c", -1),
        UnitMonomial.one(p.params),
    )
    assert element_weight(p.zero()) is None
    assert element_weight(x + p.one()) is None


def test_weight_components_split():
    p = quantum_weyl(1)
    x = p.gen(1)
    mixed = x + nf_mul(x, p.gen(0)) + p.one()
    comps = weight_components(mixed)
    assert len(comps) == 2
    total = p.zero()
    for weight, part in comps:
        assert is_homogeneous(part)
        assert element_weight(part) == weight
        total = total + part
    assert total == mixed


def test_weight_components_ordering_is_stable():
    p = quantum_weyl(1)
    mixed = p.gen(1) + p.one()
    assert weight_components(mixed) == weight_components(mixed + p.zero())


def test_weight_of_product():
    p = quantum_matrices(2)
    a = p.gen(1)
    b = p.gen(2)
    ab = nf_mul(a, b)
    assert element_weight(ab) == tuple(
        wa * wb for wa, wb in zip(element_weight(a), element_weight(b))
    )


def test_split_ideal_generators():
    p = quantum_weyl(1)
    x = p.gen(1)
    mixed = x + nf_mul(x, p.gen(0))
    parts = split_ideal_generators([mixed])
    assert len(parts) == 2
    assert all(is_homogeneous(g) for g in parts)
    assert sum(parts, p.zero()) == mixed
    # already homogeneous inputs pass through
    assert split_ideal_generators([x]) == [x]
    assert split_ideal_generators([]) == []
