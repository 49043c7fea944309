"""The right-product table behind nf_mul, against the word rewriter.

reference_rewriter.py keeps the word rewriter that nf_mul replaced.  The
two must give the same normal form term for term, also on
quantum_matrices(3), whose relations are not confluent.
"""

import itertools
import pickle
import random
import sys
from pathlib import Path

import pytest

import qsolv
from qsolv import (
    LaurentPoly,
    Presentation,
    RewriteBudgetError,
    UnitMonomial,
    nf_mul,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    rank2,
    validate_presentation,
)
from qsolv import normalform
from qsolv.normalform import NFElement, _RightTable
from reference_rewriter import reference_mul

ROOT = Path(__file__).resolve().parent.parent


def plane_torus():
    """Quantum plane with invertible k, l and the tail x*y = q*y*x + k."""
    params = ("q",)

    def u(e):
        return UnitMonomial.var(params, "q", e)

    qmat = {(0, 1): u(1), (0, 2): u(1), (1, 2): u(-1),
            (0, 3): u(2), (1, 3): u(1), (2, 3): u(3)}
    return Presentation("plane_torus", params, ("x", "y", "k", "l"), 2,
                        qmat=qmat, tails={(0, 1): {(0, 0, 1, 0): 1}})


def _random_element(p, rng, max_terms=3, max_degree=3):
    width = p.n + p.m
    out = p.zero()
    for _ in range(rng.randint(1, max_terms)):
        key = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            key[rng.randrange(width)] += 1
        for pos in range(p.n, width):
            key[pos] -= rng.randint(0, 1)
        coef = LaurentPoly.monomial(
            p.params,
            tuple(rng.randint(-1, 1) for _ in p.params),
            rng.choice([-2, -1, 1, 2, 3]),
        )
        out = out + p.monomial(tuple(key), coef)
    return out


def assert_same_normal_form(got, want):
    assert set(got.terms) == set(want.terms)
    for key, coef in want.terms.items():
        assert got.terms[key] == coef, key


FAMILIES = [
    quantum_plane(),
    quantum_affine(3),
    quantum_weyl(1),
    quantum_weyl(2),
    quantum_matrices(2),
    quantum_matrices(3),
    rank2(LaurentPoly.var(("q",), "q") - 3),
    plane_torus(),
]


@pytest.mark.parametrize("p", FAMILIES, ids=lambda p: p.name)
def test_random_products_match_word_rewriter(p):
    rng = random.Random(41)
    for _ in range(40):
        a = _random_element(p, rng)
        b = _random_element(p, rng)
        assert_same_normal_form(nf_mul(a, b), reference_mul(a, b))


def mixed_presentation(rng):
    """3-5 polynomial and 0-2 invertible generators with random scalars and
    a random subset of the polynomial pairs carrying a tail.  A tail of
    (i, j) uses letters after i only, among them invertible ones."""
    params = ("q", "r")
    n, m = rng.randint(3, 5), rng.randint(0, 2)
    total = n + m
    qmat = {
        (a, b): UnitMonomial(params, rng.choice([1, -1]),
                             (rng.randint(-2, 2), rng.randint(-1, 1)))
        for a in range(total) for b in range(a + 1, total) if rng.random() < 0.8
    }
    pairs = list(itertools.combinations(range(n), 2))
    tails = {}
    for i, j in rng.sample(pairs, rng.randint(1, len(pairs) - 1)):
        body = {}
        for _ in range(rng.randint(1, 2)):
            key = [0] * total
            for _ in range(rng.randint(0, 2)):
                key[rng.randrange(i + 1, n)] += 1
            for pos in range(n, total):
                key[pos] = rng.randint(-1, 1)
            body[tuple(key)] = rng.choice([-2, -1, 1, 3])
        tails[i, j] = body
    gens = tuple(f"g{a}" for a in range(n)) + tuple(f"k{t}" for t in range(m))
    return Presentation("mixed", params, gens, n, qmat=qmat, tails=tails)


@pytest.mark.parametrize("seed", range(12))
def test_mixed_tails_match_word_rewriter(seed):
    # a letter moves by one scalar across the pairs without a tail and
    # through the table across the others; both must agree with the
    # rewriter, which swaps one adjacent pair at a time
    rng = random.Random(seed)
    p = mixed_presentation(rng)
    for _ in range(25):
        a = _random_element(p, rng)
        b = _random_element(p, rng)
        assert_same_normal_form(nf_mul(a, b), reference_mul(a, b))


def test_invertible_tail_moves_across_later_letters():
    # the tail k of x*y must pass y and x on its way to the right
    p = plane_torus()
    x, y, k = p.gen(0), p.gen(1), p.gen(2)
    left = nf_mul(nf_mul(y, y), p.gen_power(3, -2))
    right = nf_mul(nf_mul(x, x), nf_mul(y, k))
    assert_same_normal_form(nf_mul(left, right), reference_mul(left, right))
    assert any(key[2] for key in nf_mul(left, right).terms)


def test_matrices3_triples_match_word_rewriter():
    p = quantum_matrices(3)
    gens = [p.gen(i) for i in range(p.n)]
    for a, b, c in itertools.product(gens, repeat=3):
        assert_same_normal_form(nf_mul(nf_mul(a, b), c),
                                reference_mul(reference_mul(a, b), c))
        assert_same_normal_form(nf_mul(a, nf_mul(b, c)),
                                reference_mul(a, reference_mul(b, c)))


@pytest.mark.parametrize("k, terms, fills", [(7, 8, 49), (8, 9, 64)])
def test_weyl_power_fill_counts(k, terms, fills):
    # x^k * y^k has k+1 terms; the word rewriter needed over 10^6 steps
    # at k = 8, the table needs one fill per entry it stores
    w = quantum_weyl(1)
    y, x = w.gen(0), w.gen(1)
    product = nf_mul(w.gen_power(1, k), w.gen_power(0, k), budget=fills)
    assert len(product.terms) == terms
    assert product == nf_mul(x, nf_mul(w.gen_power(1, k - 1), w.gen_power(0, k)))
    with pytest.raises(RewriteBudgetError) as err:
        nf_mul(w.gen_power(1, k), w.gen_power(0, k), budget=fills - 1)
    message = str(err.value)
    assert "x*y" in message and str(fills - 1) in message


# g^k * h^k and the table fills it needs: only a move across a relation
# with a tail fills an entry (64, 16, 96 and 96 fills when every
# out-of-order letter moved through the table)
POWER_FILLS = [
    (quantum_plane(), "y", "x", 8, 0),
    (quantum_matrices(3), "a22", "a13", 4, 0),
    (quantum_matrices(3), "a33", "a11", 4, 30),
    (quantum_weyl(2), "x1", "y1", 4, 48),
]


@pytest.mark.parametrize("p, left, right, k, fills", POWER_FILLS,
                         ids=lambda v: getattr(v, "name", str(v)))
def test_power_fill_counts(p, left, right, k, fills):
    gk, hk = p.gen_power(p.position(left), k), p.gen_power(p.position(right), k)
    product = nf_mul(gk, hk, budget=fills)
    assert_same_normal_form(product, nf_mul(gk, hk))
    if fills:
        with pytest.raises(RewriteBudgetError):
            nf_mul(gk, hk, budget=fills - 1)


def _least_budget(left, right):
    """The fewest table fills that nf_mul(left, right) succeeds with."""
    def fits(budget):
        try:
            nf_mul(left, right, budget=budget)
        except RewriteBudgetError:
            return False
        return True

    low, high = -1, 1
    while not fits(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if fits(mid) else (mid, high)
    return high


def power_ladders():
    """g_j^k * g_i^k for every i < j and k up to kmax, the ladder of the
    powers benchmark."""
    for p, kmax in ((quantum_weyl(1), 6), (quantum_weyl(2), 4),
                    (quantum_matrices(2), 5), (quantum_matrices(3), 4)):
        for i, j in itertools.combinations(range(p.n), 2):
            for k in range(1, kmax + 1):
                yield p.gen_power(j, k), p.gen_power(i, k)


def test_power_ladder_fill_count():
    # 3,161 fills when every out-of-order letter moved through the table
    total = 0
    for left, right in power_ladders():
        total += _least_budget(left, right)
    assert total == 751


def test_budgeted_calls_ignore_the_shared_table():
    # a call with a budget fills a table of its own, so what it needs does
    # not depend on the entries earlier calls left on the presentation
    w = quantum_weyl(1)
    x8, y8 = w.gen_power(1, 8), w.gen_power(0, 8)
    product = nf_mul(x8, y8)
    assert len(w._rtable) == 64
    with pytest.raises(RewriteBudgetError):
        nf_mul(x8, y8, budget=63)
    assert nf_mul(x8, y8, budget=64) == product
    total = 0
    for left, right in power_ladders():
        nf_mul(left, right)
        total += _least_budget(left, right)
    assert total == 751


def _round_fills(monkeypatch, workload):
    """Table fills made by the timed calls of one benchmark round, seed 3."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    fills = []
    start = _RightTable._start_fill
    monkeypatch.setattr(_RightTable, "_start_fill",
                        lambda table, request: fills.append(1) or start(table, request))
    context = workloads.Context("full", None, None, True)
    for op in workloads.build(workload, qsolv, random.Random(3), context):
        op.run()
    return len(fills)


def test_products_round_fill_count(monkeypatch):
    # one round of the products benchmark made 11,344 fills when every
    # out-of-order letter moved through the table
    assert _round_fills(monkeypatch, "products") <= 3558


@pytest.mark.parametrize("workload, fills", [("products", 327), ("powers", 419),
                                             ("spectra", 54)])
def test_round_fills_each_entry_once(monkeypatch, workload, fills):
    # nf_mul calls share their presentation's table, so a round fills each
    # (presentation, entry) pair once; 3,558, 751 and 1,052 fills when
    # every call filled a table of its own
    assert _round_fills(monkeypatch, workload) <= fills


def test_fills_read_the_inverse_from_the_dense_table(monkeypatch):
    # each of the 64 fills of x^8 * y^8 takes u^-1 from the mirrored entry
    w = quantum_weyl(1)
    x8, y8 = w.gen_power(1, 8), w.gen_power(0, 8)
    calls = []
    for name in ("pow", "inverse"):
        original = getattr(UnitMonomial, name)
        monkeypatch.setattr(UnitMonomial, name,
                            lambda *args, _name=name, _original=original:
                            calls.append(_name) or _original(*args))
    product = nf_mul(x8, y8)
    assert calls == []
    assert len(product.terms) == 9


def test_deep_monomial_does_not_recurse():
    p = quantum_plane()
    qpow = LaurentPoly.var(p.params, "q", -1500)
    assert nf_mul(p.gen_power(1, 1500), p.gen(0)) == p.monomial((1, 1500), qpow)


def looping_presentation():
    """Tails a*b = b*a + b*c and a*c = c*a + a^2; the second is not
    well-founded, since a^2 does not lie after a."""
    return Presentation(
        "loop", ("q",), ("a", "b", "c"), 3,
        tails={(0, 1): {(0, 1, 1): 1}, (0, 2): {(2, 0, 0): 1}},
    )


def test_tails_that_fail_wf_raise_at_once():
    p = looping_presentation()
    assert [f.condition for f in validate_presentation(p).findings] == ["WF"]
    a, bc = p.gen(0), nf_mul(p.gen(1), p.gen(2))
    # b*c*a -> b*a*c + b*a*a, and b*a*a -> a*b*a + b*c*a: the word recurs,
    # so the word rewriter runs out of any budget
    for budget in (10**3, 10**4):
        with pytest.raises(RewriteBudgetError):
            reference_mul(bc, a, budget=budget)
    with pytest.raises(RewriteBudgetError) as err:
        nf_mul(bc, a)
    message = str(err.value)
    assert "c*a" in message and "not well-founded" in message


def assert_entries_finished(p):
    """Every entry of the presentation's shared table is the whole normal
    form of its right product M * g_a."""
    for (mono, a), entry in p._rtable.items():
        assert_same_normal_form(NFElement(p, entry), reference_mul(p.monomial(mono), p.gen(a)))


class Interrupted(Exception):
    pass


def test_interrupted_call_leaves_only_finished_entries(monkeypatch):
    w = quantum_weyl(1)
    x5, y5 = w.gen_power(1, 5), w.gen_power(0, 5)
    fill, started = _RightTable._fill, []

    def fill_until_tenth(table, mono, a):
        started.append((mono, a))
        if len(started) == 10:
            raise Interrupted
        return fill(table, mono, a)

    monkeypatch.setattr(_RightTable, "_fill", fill_until_tenth)
    with pytest.raises(Interrupted):
        nf_mul(x5, y5)
    monkeypatch.undo()
    # the fills still open when the call stopped left nothing behind
    assert 0 < len(w._rtable) < 9
    assert_entries_finished(w)
    assert_same_normal_form(nf_mul(x5, y5), reference_mul(x5, y5))
    assert len(w._rtable) == 25
    assert_entries_finished(w)


def test_fill_that_needs_itself_leaves_no_marker():
    p = looping_presentation()
    a, bc = p.gen(0), nf_mul(p.gen(1), p.gen(2))
    for _ in range(2):
        with pytest.raises(RewriteBudgetError, match="not well-founded"):
            nf_mul(bc, a)
        assert all(isinstance(entry, dict) for entry in p._rtable.values())


def test_interleaved_products_match_word_rewriter():
    # the non-confluent family and the invertible block, one shared table
    # each, multiplied in a random order
    rng = random.Random(17)
    pair = (quantum_matrices(3), plane_torus())
    for _ in range(60):
        p = rng.choice(pair)
        a, b = _random_element(p, rng), _random_element(p, rng)
        assert_same_normal_form(nf_mul(a, b), reference_mul(a, b))
    for p in pair:
        assert p._rtable
        assert_entries_finished(p)


def test_table_cap_bounds_the_shared_entries(monkeypatch):
    monkeypatch.setattr(normalform, "_TABLE_CAP", 8)
    w = quantum_weyl(1)
    held = []
    for i, j in itertools.product(range(1, 6), repeat=2):
        left, right = w.gen_power(1, i), w.gen_power(0, j)
        assert_same_normal_form(nf_mul(left, right), reference_mul(left, right))
        held.append(len(w._rtable))
    # kept while under the cap, cleared by a call that leaves more
    assert max(held) == 8 and held.count(0) > 1


def test_pickles_leave_the_memo_tables_behind():
    w = quantum_weyl(1)
    size = len(pickle.dumps(w))
    products = [nf_mul(w.gen_power(1, k), w.gen_power(0, k)) for k in range(1, 9)]
    assert w._rtable and w._tailcache
    assert len(pickle.dumps(w)) == size
    dup = pickle.loads(pickle.dumps(w))
    assert dup._rtable == {} and dup._tailcache == {}
    for k, product in enumerate(products, 1):
        again = nf_mul(dup.gen_power(1, k), dup.gen_power(0, k))
        assert again.pres is dup
        assert_same_normal_form(again, product)
