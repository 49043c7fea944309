"""End-to-end acceptance checks.

Every check here is exact: symbolic equality on the nose, no numeric
tolerance anywhere.  Each function prints a one-line summary so a
verbose run reads as a checklist.
"""

import random
from fractions import Fraction

import pytest

from qsolv import (
    FracElem,
    LaurentPoly,
    SpecTarget,
    TorusPresentation,
    UnitMonomial,
    ad_apply,
    ad_eigencomponents,
    admissible_compositions,
    center_lattice,
    classify_affine_prime,
    classify_specialization,
    commutation_factor,
    compatible_basis,
    difference_set,
    factor_over_differences,
    loc_element,
    nf_mul,
    q_leibniz_expand,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    rank2,
    root_of_unity_witness,
    stratify_affine,
    stratify_rank2,
    validate_presentation,
)
from qsolv.torus import LatticeSubgroup
from reference_intlinalg import abs_det


def _random_element(p, rng, max_terms=3, max_degree=3):
    width = p.n + p.m
    out = p.zero()
    for _ in range(rng.randint(1, max_terms)):
        key = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            key[rng.randrange(width)] += 1
        coef = LaurentPoly.monomial(
            p.params,
            tuple(rng.randint(-1, 1) for _ in p.params),
            rng.choice([-2, -1, 1, 2, 3]),
        )
        out = out + p.monomial(tuple(key), coef)
    return out


def test_criterion_1_ring_axioms_hold_exactly():
    rng = random.Random(101)
    presentations = [
        quantum_plane(),
        quantum_weyl(1),
        quantum_weyl(2),
        quantum_matrices(2),
    ]
    triples = 0
    for p in presentations:
        for _ in range(200):
            a = _random_element(p, rng)
            b = _random_element(p, rng)
            c = _random_element(p, rng)
            assert nf_mul(nf_mul(a, b), c) == nf_mul(a, nf_mul(b, c))
            assert nf_mul(a, b + c) == nf_mul(a, b) + nf_mul(a, c)
            assert nf_mul(a + b, c) == nf_mul(a, c) + nf_mul(b, c)
            triples += 1
    print(f"criterion 1: associativity and distributivity exact on "
          f"{triples} random triples across {len(presentations)} algebras")


def _random_tail_subalgebra_element(p, rng, site, max_exp=2):
    width = p.n + p.m
    out = p.zero()
    for _ in range(rng.randint(1, 3)):
        key = [0] * width
        for g in range(site + 1, width):
            key[g] = rng.randint(0, max_exp)
        out = out + p.monomial(tuple(key), rng.choice([-2, -1, 1, 2]))
    return out


def test_criterion_2_leibniz_expansion_matches_multiplication():
    rng = random.Random(202)
    checked = 0
    for p in (quantum_weyl(1), quantum_matrices(2)):
        for n in range(1, 6):
            for _ in range(4):
                a = _random_tail_subalgebra_element(p, rng, 0)
                lhs = q_leibniz_expand(p, 0, n, a)
                rhs = nf_mul(p.gen_power(0, n), a)
                assert lhs == rhs
                checked += 1

    # closed form on the rank-1 pair: y^2 x = c^-2 x y^2 + (1 + c^-1) y
    w = quantum_weyl(1)
    cinv = LaurentPoly.var(w.params, "c", -1)
    y = w.gen(0)
    rhs = nf_mul(w.gen(1), nf_mul(y, y)).scale(cinv ** 2) + y.scale(1 + cinv)
    assert rhs == w.monomial((2, 1))
    assert q_leibniz_expand(w, 0, 2, w.gen(1)) == w.monomial((2, 1))
    print(f"criterion 2: Leibniz expansion equals direct product on "
          f"{checked} cases, closed rank-1 identity verified")


def test_criterion_3_validator_accepts_and_rejects():
    for p in (quantum_matrices(2), quantum_weyl(2)):
        report = validate_presentation(p)
        assert report.passed, [f.message for f in report.findings]

    # knocking the tail off-weight must surface as a Q3 failure
    p = quantum_weyl(2)
    one = LaurentPoly.one(p.params)
    old = p.tails[(0, 3)]
    mutated_terms = dict(old)
    mutated_terms[(0, 1, 0, 0)] = one
    mutated = p.replace_tail(0, 3, mutated_terms)
    report = validate_presentation(mutated)
    assert not report.passed
    assert "Q3" in {f.condition for f in report.findings}
    print("criterion 3: Q1-Q3 pass on the matrix and Weyl families; "
          "an off-weight tail is rejected by Q3")


def test_criterion_4_adjoint_spectrum_of_weyl_generator():
    p = quantum_weyl(1)
    x = p.gen(1)
    spec = ad_eigencomponents(p, 0, x)

    cinv = UnitMonomial.var(p.params, "c", -1)
    assert spec.roots == (UnitMonomial.one(p.params), cinv)
    assert spec.multiplicities == (1, 1)
    assert len(spec.components) == 2

    total = spec.components[0] + spec.components[1]
    assert total == loc_element(p, 0, x)
    for root, comp in zip(spec.roots, spec.components):
        assert ad_apply(p, 0, comp) == comp.scale(root)

    diffs = difference_set(spec.roots)
    for comp in spec.components:
        for coef in comp.num.terms.values():
            if isinstance(coef, FracElem) and not coef.den.is_one():
                unit, factors = factor_over_differences(coef.den, spec.roots)
                rebuilt = unit
                for diff, exp in factors:
                    rebuilt = rebuilt * diff ** exp
                assert rebuilt == coef.den
                assert all(diff in diffs for diff, _ in factors)
    print("criterion 4: Ad_y splits x into two exact eigencomponents with "
          "eigenvalues {1, c^-1}; denominators factor over eigenvalue "
          "differences")


def _unit_vectors(rank):
    return [tuple(int(i == j) for j in range(rank)) for i in range(rank)]


def _window(rank, radius):
    if rank == 0:
        yield ()
        return
    for rest in _window(rank - 1, radius):
        for v in range(-radius, radius + 1):
            yield (v,) + rest


def test_criterion_5_torus_centers_match_brute_force():
    rng = random.Random(505)
    for trial in range(50):
        rank = rng.randint(1, 4)
        pmat = {}
        for i in range(rank):
            for j in range(i + 1, rank):
                e = rng.randint(-2, 2)
                if e:
                    pmat[(i, j)] = UnitMonomial.var(("q",), "q", e)
        P = TorusPresentation(rank, ("q",), pmat)
        G = center_lattice(P)
        units = _unit_vectors(rank)
        for m in _window(rank, 3):
            central = all(commutation_factor(P, m, e).is_one() for e in units)
            assert G.contains(m) == central

        desc = compatible_basis(G, rank, P)
        cols = desc.changeOfBasis
        assert abs_det(cols) == 1
        assert LatticeSubgroup(rank, cols[rank - G.rank:]) == G
    print("criterion 5: 50 random tori agree with brute-force centrality on "
          "the full |m| <= 3 window; all change-of-basis matrices unimodular")


def test_criterion_6_stratification_counts():
    for n, expected in ((1, 2), (2, 4), (3, 8)):
        p = quantum_affine(n)
        strata = stratify_affine(p)
        assert len(strata) == expected
        for s in strata:
            back = classify_affine_prime(p, s.vanishing)
            assert back.composition == s.composition
            assert back.inverted == s.inverted
    for n in range(13):
        assert len(admissible_compositions(n)) == 2 ** n
    print("criterion 6: affine stratifications have 2^n strata for n = 1, 2, 3 "
          "with a consistent classifier; composition counts reach n = 12")


def test_criterion_7_rank2_family_end_to_end():
    q = LaurentPoly.var(("q",), "q")
    f = q ** 2 - 5 * q + 6
    rs = stratify_rank2(f)
    p = rank2(f)
    x, y = p.gen(0), p.gen(1)

    qinv = LaurentPoly.var(("q",), "q", -1)
    u = rs.uNormalForm
    assert u == nf_mul(x, y) - nf_mul(y, x)
    assert u == p.monomial((1, 1), 1 - qinv) + p.scalar(f * qinv)

    assert nf_mul(u, y) == nf_mul(y, u).scale(q)
    assert nf_mul(x, u) == nf_mul(u, x).scale(q)

    assert rs.exceptionalSet == (1, 2, 3)
    for v in (1, 2, 3):
        assert classify_specialization(f, SpecTarget.rational({"q": Fraction(v)})) is False
    assert classify_specialization(f, SpecTarget.rational({"q": Fraction(7)})) is True
    assert classify_specialization(f, SpecTarget.transcendental()) is True
    print("criterion 7: rank-2 family with f = q^2 - 5q + 6 gives normal "
          "u = (1 - q^-1)xy + q^-1 f and exceptional values {1, 2, 3}")


def test_criterion_8_root_of_unity_witness():
    p = quantum_plane()
    for N in (1, 2, 3, 5):
        central, K, rank = root_of_unity_witness(p, N)
        assert central == (True, True)
        assert rank == N * N
    print("criterion 8: at zeta_N the plane's generator powers x^N, y^N are "
          "central and the torus center has index N^2 for N in {1, 2, 3, 5}")
