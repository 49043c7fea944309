"""Stratum enumeration for tail-free algebras and the rank-2 family."""

from fractions import Fraction

import pytest

from qsolv import (
    FamilyError,
    LaurentPoly,
    admissible_compositions,
    classify_affine_prime,
    nf_mul,
    quantum_affine,
    quantum_plane,
    quantum_weyl,
    rank2,
    stratify_affine,
    stratify_rank2,
)
from qsolv.strat import _divisors, rational_roots


def qpoly():
    return LaurentPoly.var(("q",), "q")


def test_compositions_small():
    assert admissible_compositions(0) == [(0,)]
    assert admissible_compositions(1) == [(1,), (0, 0)]
    assert admissible_compositions(2) == [(2,), (0, 1), (1, 0), (0, 0, 0)]


def test_compositions_read_n_exactly():
    # an integral Fraction raised, as range() refuses it
    assert admissible_compositions(Fraction(2)) == admissible_compositions(2)
    with pytest.raises(TypeError, match="expected an integer exponent"):
        admissible_compositions(2.0)


def test_compositions_invariant_and_count():
    for n in range(9):
        comps = admissible_compositions(n)
        assert len(comps) == 2 ** n
        assert len(set(comps)) == len(comps)
        for comp in comps:
            # parts plus the k-1 separating inversions fill the chain
            assert sum(comp) + len(comp) - 1 == n
            assert all(i >= 0 for i in comp)


def test_compositions_ordering():
    comps = admissible_compositions(3)
    lengths = [len(c) for c in comps]
    assert lengths == sorted(lengths)
    for k in set(lengths):
        block = [c for c in comps if len(c) == k]
        assert block == sorted(block)


def test_stratify_plane():
    strata = stratify_affine(quantum_plane())
    table = {s.composition: (s.vanishing, s.inverted) for s in strata}
    assert table == {
        (0, 0, 0): ((), ("x", "y")),
        (0, 1): (("x",), ("y",)),
        (1, 0): (("y",), ("x",)),
        (2,): (("x", "y"), ()),
    }
    # descriptors come back sorted by composition
    assert [s.composition for s in strata] == sorted(s.composition for s in strata)


def test_stratum_tori():
    strata = {s.composition: s for s in stratify_affine(quantum_plane())}
    top = strata[(0, 0, 0)]
    assert top.torus.rank == 2
    assert top.torus.pairing(0, 1) == qpoly().as_unit_monomial()
    assert strata[(2,)].torus.rank == 0


def test_stratify_counts():
    for n in (1, 2, 3):
        assert len(stratify_affine(quantum_affine(n))) == 2 ** n


def test_classify_round_trip():
    p = quantum_affine(3)
    for s in stratify_affine(p):
        back = classify_affine_prime(p, s.vanishing)
        assert back.composition == s.composition
        assert back.inverted == s.inverted


def test_classify_accepts_indices():
    p = quantum_plane()
    by_name = classify_affine_prime(p, ("x",))
    by_index = classify_affine_prime(p, (0,))
    assert by_name == by_index
    with pytest.raises(Exception):
        classify_affine_prime(p, ("z",))


def test_tails_block_affine_stratification():
    with pytest.raises(FamilyError):
        stratify_affine(quantum_weyl(1))


def test_rational_roots():
    q = qpoly()
    assert rational_roots(q ** 2 - 5 * q + 6) == ([2, 3], None)
    roots, residual = rational_roots((q - 2) * (q ** 2 + q + 1))
    assert roots == [2]
    assert residual == q ** 2 + q + 1
    # denominators are found too
    assert rational_roots(6 * q ** 2 - 5 * q + 1)[0] == [
        Fraction(1, 3),
        Fraction(1, 2),
    ]
    # Laurent shifts do not change the nonzero root set
    shifted = (q ** 2 - 5 * q + 6) * LaurentPoly.var(("q",), "q", -4)
    assert rational_roots(shifted)[0] == [2, 3]


def test_rank2_generic():
    q = qpoly()
    rs = stratify_rank2(q ** 2 - 5 * q + 6)
    p = rank2(q ** 2 - 5 * q + 6)
    x, y = p.gen(0), p.gen(1)

    # u is the commutator bracket in normal form
    assert rs.uNormalForm == nf_mul(x, y) - nf_mul(y, x)
    qinv = LaurentPoly.var(("q",), "q", -1)
    assert rs.uNormalForm == p.monomial((1, 1), 1 - qinv) + p.scalar(
        (q ** 2 - 5 * q + 6) * qinv
    )

    assert rs.exceptionalSet == (1, 2, 3)
    assert rs.residualFactor is None
    assert rs.weylAtOne is True

    labels = {s.label: s for s in rs.strata}
    assert set(labels) == {"M1", "M2"}
    assert labels["M2"].containsU and not labels["M1"].containsU


def test_rank2_u_is_normal():
    q = qpoly()
    rs = stratify_rank2(q ** 2 - 5 * q + 6)
    p = rank2(q ** 2 - 5 * q + 6)
    u = rs.uNormalForm
    x, y = p.gen(0), p.gen(1)
    assert nf_mul(u, y) == nf_mul(y, u).scale(q)
    assert nf_mul(x, u) == nf_mul(u, x).scale(q)


def test_rank2_residual_cofactor():
    q = qpoly()
    rs = stratify_rank2((q - 2) * (q ** 2 + q + 1))
    assert rs.exceptionalSet == (1, 2)
    assert rs.residualFactor == q ** 2 + q + 1


def test_rank2_zero_tail():
    rs = stratify_rank2(0)
    qinv = LaurentPoly.var(("q",), "q", -1)
    assert rs.uNormalForm == rank2(0).monomial((1, 1), 1 - qinv)
    assert rs.exceptionalSet == (1,)
    assert rs.tail == 0 or rs.tail.is_zero()
    # f(1) = 0, so the q = 1 fiber is not a Weyl algebra
    assert rs.weylAtOne is False


def test_rank2_on_a_presentation_of_the_family():
    q = qpoly()
    f = q ** 2 - 5 * q + 6
    by_tail, by_pres = stratify_rank2(f), stratify_rank2(rank2(f))
    assert by_pres.uNormalForm == by_tail.uNormalForm
    assert by_pres.exceptionalSet == by_tail.exceptionalSet
    assert by_pres.tail == f
    # y*x = c^-1*x*y + 1 scales by c^-1, not by the parameter
    with pytest.raises(FamilyError, match="rank-2 single-tail family only"):
        stratify_rank2(quantum_weyl(1))


def test_rank2_weyl_at_one_flag():
    q = qpoly()
    assert stratify_rank2(q - 3).weylAtOne is True
    assert stratify_rank2(q - 1).weylAtOne is False


def test_divisors_match_brute_force():
    assert _divisors(0) == []
    for n in range(1, 501):
        expected = [d for d in range(1, n + 1) if n % d == 0]
        assert _divisors(n) == expected
        assert _divisors(-n) == expected


def test_rational_roots_of_a_large_prime():
    # the candidates come from divisors found up to the square root
    p = 10 ** 12 + 39
    assert rational_roots(qpoly() - p) == ([p], None)
