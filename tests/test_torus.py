"""Quantum torus commutation data and center lattices."""

import random

import pytest

from qsolv import (
    LatticeError,
    LatticeSubgroup,
    Presentation,
    TorusPresentation,
    UnitMonomial,
    center_lattice,
    commutation_factor,
    compatible_basis,
    nf_mul,
    quantum_affine,
    quantum_plane,
    root_of_unity_structure,
    torus_normal_scalar,
    torus_of_presentation,
)
from qsolv import intlinalg
from reference_intlinalg import abs_det
from reference_rewriter import reference_mul

Q = ("q",)


def qu(power=1, sign=1):
    return UnitMonomial.var(Q, "q", power, sign=sign)


def rank2_torus(power=1):
    return TorusPresentation(2, Q, {(0, 1): qu(power)})


def _random_torus(rng, rank):
    pmat = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            e = rng.randint(-2, 2)
            if e:
                pmat[(i, j)] = qu(e)
    return TorusPresentation(rank, Q, pmat)


def _random_signed_torus(rng, rank):
    params = ("q", "r")
    pmat = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            if rng.random() < 0.8:
                pmat[(i, j)] = UnitMonomial(params, rng.choice((1, -1)),
                                            (rng.randint(-3, 3), rng.randint(-3, 3)))
    return TorusPresentation(rank, params, pmat)


def _window(rank, radius=3):
    def go(prefix):
        if len(prefix) == rank:
            yield tuple(prefix)
            return
        for v in range(-radius, radius + 1):
            yield from go(prefix + [v])

    return go([])


def test_pairing_antisymmetry():
    P = rank2_torus()
    assert P.pairing(0, 1) == qu()
    assert P.pairing(1, 0) == qu(-1)
    assert P.pairing(0, 0).is_one()


def test_pairing_orientations_are_inverse():
    rng = random.Random(5)
    params = ("q", "r")
    pmat = {}
    for i in range(5):
        for j in range(i + 1, 5):
            if rng.random() < 0.8:
                pmat[(i, j)] = UnitMonomial(params, rng.choice((1, -1)),
                                            (rng.randint(-3, 3), rng.randint(-3, 3)))
    P = TorusPresentation(5, params, pmat)
    for i in range(5):
        for j in range(5):
            assert (P.pairing(i, j) * P.pairing(j, i)).is_one()
            if i < j:
                assert P.pairing(i, j) == pmat.get((i, j), UnitMonomial.one(params))


def test_normal_scalar_values():
    P = rank2_torus()
    assert torus_normal_scalar(P, (0, 1), (1, 0)) == qu(-1)
    assert torus_normal_scalar(P, (1, 0), (0, 1)).is_one()
    assert commutation_factor(P, (1, 0), (0, 1)) == qu()
    assert commutation_factor(P, (0, 1), (1, 0)) == qu(-1)


def test_normal_scalar_cocycle():
    # sigma(a, b) sigma(a+b, c) = sigma(b, c) sigma(a, b+c), also with
    # signs and two parameters
    for make, seed in ((_random_torus, 7), (_random_signed_torus, 8)):
        rng = random.Random(seed)
        for _ in range(60):
            rank = rng.randint(1, 4)
            P = make(rng, rank)
            a, b, c = (
                tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(3)
            )
            ab = tuple(x + y for x, y in zip(a, b))
            bc = tuple(x + y for x, y in zip(b, c))
            lhs = torus_normal_scalar(P, a, b) * torus_normal_scalar(P, ab, c)
            rhs = torus_normal_scalar(P, b, c) * torus_normal_scalar(P, a, bc)
            assert lhs == rhs


def test_normal_scalar_matches_products_in_the_invertible_block():
    # a torus as a presentation with no polynomial generators, where
    # nf_mul and the word rewriter reorder k^a * k^b
    rng = random.Random(13)
    for _ in range(40):
        rank = rng.randint(2, 5)
        P = _random_signed_torus(rng, rank)
        gens = tuple(f"k{i}" for i in range(rank))
        p = Presentation("torus", P.params, gens, 0, qmat=P.pmat)
        for _ in range(5):
            a, b = (tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in "ab")
            ab = tuple(x + y for x, y in zip(a, b))
            want = p.monomial(ab, torus_normal_scalar(P, a, b))
            assert nf_mul(p.monomial(a), p.monomial(b)) == want
            assert reference_mul(p.monomial(a), p.monomial(b)) == want


def test_commutation_factor_is_bimultiplicative():
    P = _random_torus(random.Random(3), 3)
    a, b, c = (1, -2, 0), (0, 1, 1), (2, 0, -1)
    ac = tuple(x + y for x, y in zip(a, c))
    lhs = commutation_factor(P, ac, b)
    rhs = commutation_factor(P, a, b) * commutation_factor(P, c, b)
    assert lhs == rhs


def test_center_lattice_examples():
    assert center_lattice(rank2_torus()).is_zero()

    P3 = TorusPresentation(3, Q, {(0, 1): qu()})
    G3 = center_lattice(P3)
    assert G3.basis == ((0, 0, 1),)

    trivial = TorusPresentation(2, Q, {})
    assert center_lattice(trivial).is_full()


def test_center_lattice_matches_brute_force():
    rng = random.Random(41)
    for _ in range(12):
        rank = rng.randint(1, 3)
        P = _random_torus(rng, rank)
        G = center_lattice(P)
        basis = [tuple(0 for _ in range(rank)) for _ in range(0)]
        for m in _window(rank):
            central = all(
                commutation_factor(P, m, e).is_one()
                for e in ([0] * i + [1] + [0] * (rank - i - 1) for i in range(rank))
            )
            assert G.contains(m) == central


def test_signs_rejected():
    P = TorusPresentation(2, Q, {(0, 1): qu(1, sign=-1)})
    with pytest.raises(LatticeError):
        center_lattice(P)
    with pytest.raises(LatticeError):
        root_of_unity_structure(P, 2)


def test_lattice_subgroup_canonical():
    a = LatticeSubgroup(2, [(2, 4), (0, 2)])
    b = LatticeSubgroup(2, [(2, 0), (0, 2)])
    assert a == b
    assert a.basis == ((2, 0), (0, 2))
    assert a.rank == 2
    assert a.contains((4, -2)) and not a.contains((1, 0))
    assert not a.is_full() and not a.is_zero()


def test_compatible_basis_examples():
    assert compatible_basis(LatticeSubgroup(2, []), 2).changeOfBasis == (
        (1, 0),
        (0, 1),
    )
    assert compatible_basis(LatticeSubgroup(2, [(1, 1)]), 2).changeOfBasis == (
        (1, 0),
        (1, 1),
    )
    assert compatible_basis(LatticeSubgroup(3, [(0, 0, 1)]), 3).changeOfBasis == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    # a saturated but skew line still completes, by fallback
    assert compatible_basis(LatticeSubgroup(2, [(2, 3)]), 2).changeOfBasis == (
        (1, 1),
        (2, 3),
    )


def test_compatible_basis_random():
    rng = random.Random(19)
    for _ in range(60):
        dim = rng.randint(1, 4)
        vectors = [
            tuple(rng.randint(-3, 3) for _ in range(dim))
            for _ in range(rng.randint(0, dim))
        ]
        P = _random_torus(rng, dim)
        G = center_lattice(P)
        desc = compatible_basis(G, dim, P)
        cols = desc.changeOfBasis
        assert abs_det(cols) == 1
        # the last rank(G) columns span G exactly
        tail_cols = cols[dim - G.rank:]
        assert LatticeSubgroup(dim, tail_cols) == G


def test_compatible_basis_quotient_form():
    P = rank2_torus()
    desc = compatible_basis(center_lattice(P), 2, P)
    assert desc.quotientForm == {(0, 1): qu()}
    # without the torus no commutation data is produced
    assert compatible_basis(center_lattice(P), 2).quotientForm is None


def test_root_of_unity_structure():
    P = rank2_torus()
    expected = {1: ((1, 0), (0, 1)), 2: ((2, 0), (0, 2)), 5: ((5, 0), (0, 5))}
    for N, basis in expected.items():
        K, rank = root_of_unity_structure(P, N)
        assert K.basis == basis
        assert rank == N * N
    with pytest.raises(Exception):
        root_of_unity_structure(P, 0)


def test_root_of_unity_no_parameters():
    P = TorusPresentation(2, Q, {})
    K, rank = root_of_unity_structure(P, 7)
    assert K.is_full()
    assert rank == 1


def test_multi_parameter_reduction_rejected():
    u = UnitMonomial.var(("a", "b"), "a") * UnitMonomial.var(("a", "b"), "b")
    P = TorusPresentation(2, ("a", "b"), {(0, 1): u})
    with pytest.raises(LatticeError):
        root_of_unity_structure(P, 3)


@pytest.fixture
def hnf_calls(monkeypatch):
    """The shapes of the column HNFs computed, in call order."""
    calls = []
    hnf = intlinalg.column_hnf

    def counted(rows, m, n):
        calls.append((m, n))
        return hnf(rows, m, n)

    monkeypatch.setattr(intlinalg, "column_hnf", counted)
    return calls


def test_lattice_index_is_read_off_the_hermite_pivots(hnf_calls):
    # one HNF for the congruence kernel and one for K's basis; the index
    # needs none, nor does is_full
    P = torus_of_presentation(quantum_affine(6), range(6))
    K, rank = root_of_unity_structure(P, 5)
    made = len(hnf_calls)
    full = LatticeSubgroup(6, [[1 if i == j else 0 for i in range(6)] for j in range(6)])
    del hnf_calls[:]
    assert not K.is_full() and full.is_full()
    assert (rank, made, len(hnf_calls)) == (15625, 2, 0)


def test_lattice_index_matches_the_determinant():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.randint(1, 4)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(dim))
                   for _ in range(rng.randint(dim, dim + 2))]
        L = LatticeSubgroup(dim, vectors)
        rows = [[col[r] for col in L.basis] for r in range(dim)]
        assert L.is_full() == (L.rank == dim and abs_det(rows) == 1)
        P = _random_torus(rng, dim)
        N = rng.randint(1, 6)
        try:
            K, rank = root_of_unity_structure(P, N)
        except LatticeError:
            continue
        assert rank == abs_det([[col[r] for col in K.basis] for r in range(dim)])


def test_torus_of_presentation():
    p = quantum_plane()
    T = torus_of_presentation(p, (0, 1))
    assert T.rank == 2
    assert T.pairing(0, 1) == qu()
    assert center_lattice(T).is_zero()
