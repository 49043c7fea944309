"""The Q1/Q3 kernel against the per-key reference loop.

``relation_findings`` tests each tail key through its weight difference
K - e_i - e_j; ``reference_conditions.relation_findings`` multiplies one
unit per generator for every key.  They must give the same findings, in
the same order, on presentations whose weight tables and tails are
mutated, at the identity and at rational and cyclotomic targets.
"""

import random
from fractions import Fraction

import pytest

import reference_conditions
from qsolv import (
    LaurentPoly,
    Presentation,
    SpecTarget,
    UnitMonomial,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    rank2,
    specialize_presentation,
)
from qsolv.presentation import relation_findings

FAMILIES = {
    "plane": quantum_plane,
    "weyl1": lambda: quantum_weyl(1),
    "weyl2": lambda: quantum_weyl(2),
    "affine3": lambda: quantum_affine(3),
    "matrices2": lambda: quantum_matrices(2),
    "matrices3": lambda: quantum_matrices(3),
    "rank2": lambda: rank2(LaurentPoly.var(("q",), "q") - 3),
}


def _random_unit(rng, params):
    return UnitMonomial(params, rng.choice((1, 1, -1)),
                        tuple(rng.randint(-2, 2) for _ in params))


def _perturb_weights(rng, p):
    rows = [list(row) for row in p.hweights]
    for _ in range(rng.randint(1, 2)):
        h = rng.randrange(p.n)
        # entries at or before the diagonal escape WF, so Q1 and Q3 run
        g = rng.randint(0, h) if rng.random() < 0.7 else rng.randrange(len(p.gens))
        # a sign alone changes no exponent, only the parity of the weight
        factor = -UnitMonomial.one(p.params)
        if rng.random() < 0.7:
            factor = _random_unit(rng, p.params)
        rows[h][g] = rows[h][g] * factor
    return Presentation(p.name, p.params, p.gens, p.n, qmat=p.qmat,
                        tails=p.tails, qskew=p.qskew, hweights=rows)


def _replace_tail(rng, p):
    i = rng.randrange(p.n - 1)
    j = rng.randrange(i + 1, p.n)
    terms = {}
    for _ in range(rng.randint(1, 2)):
        key = [0] * len(p.gens)
        for g in rng.sample(range(len(p.gens)), rng.randint(0, 2)):
            # mostly after i, as WF asks; sometimes not
            if g > i or rng.random() < 0.2:
                key[g] = rng.randint(1, 2)
        terms[tuple(key)] = rng.choice((1, -2, LaurentPoly.var(p.params, p.params[0])))
    return p.replace_tail(i, j, terms)


def _mutants(name, count=10):
    rng = random.Random(name)
    base = FAMILIES[name]()
    out = [base]
    for _ in range(count):
        kind = rng.randrange(3)
        p = base
        if kind in (0, 2):
            p = _perturb_weights(rng, p)
        if kind in (1, 2):
            p = _replace_tail(rng, p)
        out.append(p)
    return out


def _targets(rng, p):
    values = (2, -1, 3, Fraction(1, 2), -5, 1)
    yield "identity", None
    yield "rational", SpecTarget.rational({n: rng.choice(values) for n in p.params})
    N = rng.randint(1, 12)
    yield "cyclotomic", SpecTarget.cyclotomic(N, {n: rng.randrange(N) for n in p.params})


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_relation_findings_match_reference(name):
    rng = random.Random(f"targets {name}")
    seen = set()
    for p in _mutants(name, count=6 if name == "matrices3" else 10):
        for kind, target in _targets(rng, p):
            if target is None:
                new = relation_findings(p, lambda u: u, p.tails)
                old = reference_conditions.relation_findings(p, lambda u: u, p.tails)
            else:
                new = relation_findings(p, target.unit_value, p.tails)
                old = reference_conditions.relation_findings(
                    p, lambda u: reference_conditions.unit_value(u, target), p.tails)
            assert new == old, (p, kind, target)
            seen.update(f.condition for f in new)
            seen.add("fail" if new else "pass")
    assert {"Q1", "Q3", "fail", "pass"} <= seen


@pytest.mark.parametrize("name", ["weyl1", "weyl2", "matrices2", "affine3"])
def test_specialize_findings_match_reference(name):
    # specialize checks only the tail keys that survive at the target
    rng = random.Random(f"specialize {name}")
    for p in _mutants(name, count=6):
        for kind, target in _targets(rng, p):
            if target is None:
                continue
            sp = specialize_presentation(p, target)
            got = [f for f in sp.findings.findings if f.condition != "Q2"]
            want = reference_conditions.relation_findings(
                p, lambda u: reference_conditions.unit_value(u, target), sp.tail_values)
            assert got == want, (p, kind, target)



@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_key_weight_matches_unit_products(name):
    rng = random.Random(f"keys {name}")
    for p in _mutants(name, count=3):
        for _ in range(20):
            key = tuple(rng.randint(0, 4) for _ in p.gens)
            for h in range(p.n):
                assert p.key_weight(h, key) == reference_conditions.key_weight(p, h, key)
