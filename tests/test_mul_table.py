"""The engine behind nf_mul and its one product table, against the word
rewriter and the reference scalars.

The table is keyed by pairs of monomials.  A right product M * g_a, an
ordered monomial free of invertible letters times one polynomial letter,
is the entry of the pair (M, e_a), e_a the exponent key of g_a, and
``right_products`` picks those entries out.

reference_rewriter.py keeps the word rewriter that nf_mul replaced.  The
two must give the same normal form term for term, also on
quantum_matrices(3), whose relations are not confluent.
"""

import copy
import gc
import itertools
import pickle
import random
import sys
from pathlib import Path

import pytest

import qsolv
from qsolv import (
    FracElem,
    LaurentPoly,
    Presentation,
    RewriteBudgetError,
    UnitMonomial,
    ad_eigencomponents,
    nf_mul,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    rank2,
    validate_presentation,
)
from qsolv import normalform
from qsolv.normalform import NFElement, _Engine, _engine_of
from qsolv.params import support
from reference_rewriter import reference_mul
from reference_scalars import reference_normal_scalar

ROOT = Path(__file__).resolve().parent.parent


def engine(p):
    """The product engine of p, made if p has none yet; its tables are
    ``pairs`` and ``tails``."""
    return _engine_of(p)


def right_products(p):
    """The right products M * g_a in the table of p's engine, keyed by
    (M, a): the entries under (M, e_a) with M free of invertible letters
    and a letter of M crossing a tail against g_a."""
    n, out = p.n, {}
    for (mono, key), entry in engine(p).pairs.items():
        if (not any(mono[n:]) and not any(key[n:]) and sum(key) == 1
                and crosses_a_tail(p, mono, key)):
            out[mono, key.index(1)] = entry
    return out


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


def record_fills(monkeypatch):
    """A list that gets one entry per table fill from now on."""
    fills = []
    start = _Engine._start_fill
    monkeypatch.setattr(_Engine, "_start_fill",
                        lambda table, request: fills.append(request) or start(table, request))
    return fills


def clear_tables(p):
    """Empty the product table of p's engine: no right product and no
    monomial pair, whose product would stand in for its fills."""
    engine(p).pairs.clear()


def pair_entries(left, right):
    """The pair-table entries of the term pairs of left * right."""
    pairs = engine(left.pres).pairs
    return [pairs[key] for key in term_pairs([(left, right)]) if key in pairs]


def term_pairs(products):
    """The monomial pairs that nf_mul(a, b) looks up, for each (a, b)."""
    return {key for a, b in products for key in itertools.product(a.terms, b.terms)}


def cold_mul(a, b):
    """a * b on a fresh copy of their presentation, whose tables start
    empty."""
    fresh = copy.copy(a.pres)
    return nf_mul(NFElement(fresh, a.terms), NFElement(fresh, b.terms))


def fill_count(monkeypatch, left, right):
    """nf_mul(left, right) on empty tables, the number of table fills it
    makes, and the error it raises when DEFAULT_BUDGET is one fill short
    (None when it makes no fill)."""
    with monkeypatch.context() as m:
        fills = record_fills(m)
        clear_tables(left.pres)
        product = nf_mul(left, right)
    short = None
    if fills:
        with monkeypatch.context() as m:
            m.setattr(normalform, "DEFAULT_BUDGET", len(fills) - 1)
            clear_tables(left.pres)
            with pytest.raises(RewriteBudgetError) as err:
                nf_mul(left, right)
        short = str(err.value)
        # the pair whose product ran out of fills keeps no entry, and a
        # prefix its walk finished and stored is the whole product
        assert not pair_entries(left, right)
        assert_pair_entries(left.pres, term_pairs([(left, right)]), cold_mul)
    return product, len(fills), short


@pytest.mark.parametrize("k, terms, fills", [(7, 8, 49), (8, 9, 64)])
def test_weyl_power_fill_counts(monkeypatch, k, terms, fills):
    # x^k * y^k has k+1 terms; the word rewriter needed over 10^6 steps
    # at k = 8, the table needs one fill per entry it stores
    w = quantum_weyl(1)
    y, x = w.gen(0), w.gen(1)
    product, count, short = fill_count(monkeypatch, w.gen_power(1, k), w.gen_power(0, k))
    assert count == fills
    # the walk cut one fill short stored its first prefixes y and y^2, whose
    # 2 and 3 terms leave too few of _PREFIX_TERMS for the 4 of y^3; the
    # entry of y is the right product x^k * y
    xk = w.gen_power(1, k).terms.keys()
    assert [k2 for k1, k2 in engine(w).pairs if k1 in xk] == [(1, 0), (2, 0)]
    assert len(engine(w).pairs) - len(right_products(w)) == 1
    assert len(product.terms) == terms
    assert product == nf_mul(x, nf_mul(w.gen_power(1, k - 1), w.gen_power(0, k)))
    assert short == (f"rewriting exceeded {fills - 1} table fills at x*y; "
                     "check tail well-formedness")


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
def test_power_fill_counts(monkeypatch, p, left, right, k, fills):
    gk, hk = p.gen_power(p.position(left), k), p.gen_power(p.position(right), k)
    product, count, _ = fill_count(monkeypatch, gk, hk)
    assert count == fills
    # read back from the filled table, the product is the same
    assert_same_normal_form(nf_mul(gk, hk), product)


def power_ladders():
    """g_j^k * g_i^k for every i < j and k up to kmax, the ladder of the
    powers benchmark."""
    for p, kmax in ((quantum_weyl(1), 6), (quantum_weyl(2), 4),
                    (quantum_matrices(2), 5), (quantum_matrices(3), 4)):
        for i, j in itertools.combinations(range(p.n), 2):
            for k in range(1, kmax + 1):
                yield p.gen_power(j, k), p.gen_power(i, k)


def test_power_ladder_fill_count(monkeypatch):
    # 3,161 fills when every out-of-order letter moved through the table
    total = 0
    for left, right in power_ladders():
        total += fill_count(monkeypatch, left, right)[1]
    assert total == 751


class CountingPairs(dict):
    """A pair table that counts its lookups and its misses."""

    def __init__(self):
        super().__init__()
        self.lookups = self.misses = 0

    def __getitem__(self, key):
        self.lookups += 1
        try:
            return super().__getitem__(key)
        except KeyError:
            self.misses += 1
            raise


def count_pairs(p):
    """Give p an empty pair table that counts, and return it."""
    pairs = engine(p).pairs = CountingPairs()
    return pairs


def test_matrices3_triples_pair_count():
    # both bracketings of the 729 generator triples look up 3,078 term
    # pairs, and only the 891 distinct ones find sigma or the tail test
    # from the two supports
    p = quantum_matrices(3)
    pairs = count_pairs(p)
    gens = [p.gen(i) for i in range(p.n)]
    for a, b, c in itertools.product(gens, repeat=3):
        nf_mul(nf_mul(a, b), c)
        nf_mul(a, nf_mul(b, c))
    assert (pairs.lookups, pairs.misses, len(pairs)) == (3078, 891, 891)


def test_power_ladder_pairs_miss_once():
    # no pair of the powers ladder repeats, so each misses on its first
    # product and is read back on the second
    for left, right in power_ladders():
        pairs = engine(left.pres).pairs
        if not isinstance(pairs, CountingPairs):
            pairs = count_pairs(left.pres)
        before = (pairs.lookups, pairs.misses)
        product = nf_mul(left, right)
        assert_same_normal_form(nf_mul(left, right), product)
        assert (pairs.lookups - before[0], pairs.misses - before[1]) == (2, 1)


def _round_fills(monkeypatch, workload):
    """Table fills made by the timed calls of one benchmark round, seed 3."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    fills = record_fills(monkeypatch)
    context = workloads.Context("full", None, None, True)
    for op in workloads.build(workload, qsolv, random.Random(3), context):
        op.run()
    return len(fills)


@pytest.mark.parametrize("workload, fills", [("products", 327), ("powers", 419),
                                             ("spectra", 54)])
def test_round_fills_each_entry_once(monkeypatch, workload, fills):
    # nf_mul calls share their presentation's table, so a round fills each
    # (presentation, entry) pair once; 3,558, 751 and 1,052 fills when
    # every call filled a table of its own (products: 11,344 when every
    # out-of-order letter moved through the table)
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


def test_deep_fill_chain_does_not_recurse(monkeypatch):
    # the entry x^k * y needs x^(k-1) * y first: k fills nested past the
    # interpreter's recursion limit, which the explicit stack avoids.
    # From x*y = c*y*x - c, x^k * y = c^k * y*x^k - (c + ... + c^k) * x^(k-1).
    w = quantum_weyl(1)
    k = 1100
    assert k > sys.getrecursionlimit()
    product, count, _ = fill_count(monkeypatch, w.gen_power(1, k), w.gen(0))
    assert count == k
    geometric = LaurentPoly(w.params, {(e,): 1 for e in range(1, k + 1)})
    c = LaurentPoly.var(w.params, "c")
    assert product == w.monomial((1, k), c ** k) - w.monomial((0, k - 1), geometric)


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
    for (mono, a), entry in right_products(p).items():
        assert_same_normal_form(NFElement(p, entry), reference_mul(p.monomial(mono), p.gen(a)))


class Interrupted(Exception):
    pass


def test_interrupted_call_leaves_only_finished_entries(monkeypatch):
    w = quantum_weyl(1)
    x5, y5 = w.gen_power(1, 5), w.gen_power(0, 5)
    fill, started = _Engine._fill, []

    def fill_until_tenth(table, mono, a):
        started.append((mono, a))
        if len(started) == 10:
            raise Interrupted
        return fill(table, mono, a)

    monkeypatch.setattr(_Engine, "_fill", fill_until_tenth)
    with pytest.raises(Interrupted):
        nf_mul(x5, y5)
    monkeypatch.undo()
    # the fills still open when the call stopped left nothing behind, nor
    # did the pair whose product they were building; the prefix y of y^5
    # that its walk finished is a whole product
    assert 0 < len(right_products(w)) < 9
    assert not pair_entries(x5, y5)
    assert_entries_finished(w)
    assert assert_pair_entries(w, term_pairs([(x5, y5)])) == 1
    # the call made again walks on from that prefix and stores y^2 and y^3
    # (3 and 4 terms), which fill _PREFIX_TERMS but for one
    assert_same_normal_form(nf_mul(x5, y5), reference_mul(x5, y5))
    assert len(right_products(w)) == 25
    assert_entries_finished(w)
    assert assert_pair_entries(w, term_pairs([(x5, y5)])) == 3


def test_fill_that_needs_itself_leaves_no_marker():
    p = looping_presentation()
    a, bc = p.gen(0), nf_mul(p.gen(1), p.gen(2))
    for _ in range(2):
        with pytest.raises(RewriteBudgetError, match="not well-founded"):
            nf_mul(bc, a)
        assert all(isinstance(entry, dict) for entry in right_products(p).values())
        assert not pair_entries(bc, a)


def crosses_a_tail(p, k1, k2):
    """True when a polynomial letter of k1 comes after a letter of k2
    whose relation with it has a tail, read off p.tails."""
    return any(k1[c] and k2[a] for (a, c) in p.tails)


def proper_prefixes(p, k2):
    """The monomials of the first one, two, ... polynomial letters of k2,
    lowest first, other than k2 itself: the walk of a product by k2
    passes them."""
    word = [pos for pos in range(p.n) for _ in range(k2[pos])]
    prefixes = set()
    for j in range(1, len(word) + 1):
        key = [0] * len(k2)
        for pos in word[:j]:
            key[pos] += 1
        prefixes.add(tuple(key))
    prefixes.discard(k2)
    return prefixes


def assert_pair_entries(p, looked_up=None, mul=reference_mul):
    """Every entry of the presentation's pair table says how its two
    monomials multiply: None in order, sigma where no crossing has a
    tail, and where one has, the product at coefficient one as a term
    dict, equal to ``mul`` of the two monomials.  Given the pairs nf_mul
    looked up, each other entry is a stored prefix, (k1, P) with P a
    proper prefix of some k2 looked up with k1, whose pair crosses a
    tail, or a right product that a fill stored.  Returns the number of
    stored prefixes."""
    prefixes, rights = 0, right_products(p)
    for (k1, k2), entry in engine(p).pairs.items():
        s1, s2 = support(k1), support(k2)
        want = mul(p.monomial(k1), p.monomial(k2))
        if looked_up is not None and (k1, k2) not in looked_up:
            assert crosses_a_tail(p, k1, k2), (k1, k2)
            if any(k2 in proper_prefixes(p, right)
                   for left, right in looked_up if left == k1):
                prefixes += 1
            else:
                assert len(s2) == 1 and k2[s2[0]] == 1 and (k1, s2[0]) in rights, (k1, k2)
        assert (entry is None) == (not s1 or not s2 or s1[-1] <= s2[0]), (k1, k2)
        tailed = crosses_a_tail(p, k1, k2)
        assert isinstance(entry, (type(None), UnitMonomial)) != tailed, (k1, k2)
        if tailed:
            assert entry.__class__ is dict, (k1, k2)
            assert_same_normal_form(NFElement(p, entry), want)
            continue
        sigma = reference_normal_scalar(p.commutation_unit, k1, k2, p.params)
        assert sigma.is_one() if entry is None else entry == sigma
        key = tuple(map(sum, zip(k1, k2)))
        assert_same_normal_form(want, p.monomial(key, sigma.as_poly()))
    return prefixes


def test_interleaved_products_match_word_rewriter():
    # the non-confluent family and the invertible block, one shared table
    # each, multiplied in a random order
    rng = random.Random(17)
    pair = (quantum_matrices(3), plane_torus())
    products = ([], [])
    for _ in range(60):
        side = rng.randrange(2)
        a, b = _random_element(pair[side], rng), _random_element(pair[side], rng)
        assert_same_normal_form(nf_mul(a, b), reference_mul(a, b))
        products[side].append((a, b))
    for p, multiplied in zip(pair, products):
        assert right_products(p)
        assert_entries_finished(p)
        kinds = {type(entry) for entry in engine(p).pairs.values()}
        assert {type(None), UnitMonomial, dict} <= kinds
        assert assert_pair_entries(p, term_pairs(multiplied)) > 0


@pytest.mark.parametrize("build", [plane_torus, lambda: quantum_weyl(2),
                                   lambda: quantum_matrices(3)],
                         ids=["plane_torus", "quantum_weyl2", "quantum_matrices3"])
def test_repeated_product_reads_the_stored_pairs(monkeypatch, build):
    # a pair that crosses a tail keeps its product, so the second call
    # walks no right product
    p = build()
    rng = random.Random(5)
    for _ in range(20):
        a, b = _random_element(p, rng), _random_element(p, rng)
        first = nf_mul(a, b)
        with monkeypatch.context() as m:
            calls = record_letter_steps(m)
            again = nf_mul(a, b)
        assert calls == []
        assert_same_normal_form(again, first)
    assert any(isinstance(entry, dict) for entry in engine(p).pairs.values())


# (family, left monomial as generator powers, right letter): the left
# monomial has a letter with a tail against the right one
PREFIX_WALKS = [
    (lambda: quantum_weyl(1), {"x": 2}, "y"),
    (lambda: quantum_weyl(2), {"x1": 1}, "y1"),
    (lambda: quantum_weyl(2), {"x2": 1, "x1": 2}, "y2"),
    (lambda: quantum_weyl(2), {"x2": 2, "x1": 1}, "y1"),
]


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("build, left, letter", PREFIX_WALKS,
                         ids=["weyl1-x2-y", "weyl2-x1-y1", "weyl2-x2x1^2-y2",
                              "weyl2-x2^2x1-y1"])
def test_product_walks_on_from_the_stored_prefix(monkeypatch, build, left, letter, k):
    # a * g^(k+1) after a * g^k starts from the stored product a * g^k and
    # walks one letter, where it used to walk all k + 1 from a
    p = build()
    a = p.monomial(tuple(left.get(name, 0) for name in p.gens))
    g = p.position(letter)
    nf_mul(a, p.gen_power(g, k))
    # on its way the walk stored a * g, a * g^2, ... while their products
    # held at most _PREFIX_TERMS terms in all, and these take no step
    sizes = [len(reference_mul(a, p.gen_power(g, j)).terms) for j in range(1, k)]
    stored = sum(total <= normalform._PREFIX_TERMS for total in itertools.accumulate(sizes))
    assert assert_pair_entries(p, term_pairs([(a, p.gen_power(g, k))])) == stored
    with monkeypatch.context() as m:
        calls = record_letter_steps(m)
        for j in range(1, stored + 1):
            assert_same_normal_form(nf_mul(a, p.gen_power(g, j)),
                                    reference_mul(a, p.gen_power(g, j)))
    assert calls == []
    with monkeypatch.context() as m:
        calls = record_letter_steps(m)
        product = nf_mul(a, p.gen_power(g, k + 1))
    assert len(calls) == 1
    assert_same_normal_form(product, reference_mul(a, p.gen_power(g, k + 1)))


@pytest.mark.parametrize("k", range(1, 4))
def test_invertible_block_joins_the_stored_prefix(monkeypatch, k):
    # y^2 * x^k l after y^2 * x^k starts from the stored product by its
    # whole polynomial part and walks no letter
    p = plane_torus()
    a, right = p.gen_power(1, 2), p.monomial((k, 0, 0, 1))
    nf_mul(a, p.gen_power(0, k))
    with monkeypatch.context() as m:
        calls = record_letter_steps(m)
        product = nf_mul(a, right)
    assert calls == []
    assert_same_normal_form(product, reference_mul(a, right))


def record_letter_steps(monkeypatch):
    """A list that gets one entry per _Engine.times_letter call from now on."""
    calls = []
    times_letter = _Engine.times_letter
    monkeypatch.setattr(_Engine, "times_letter",
                        lambda self, *args: calls.append(args) or times_letter(self, *args))
    return calls


def fraction_components(p):
    """The eigencomponents with FracElem coefficients of the generators
    of p, as NFElements: the numerators of their localized forms."""
    out = []
    for xidx, g in itertools.product(range(p.n), range(p.n + p.m)):
        try:
            spec = ad_eigencomponents(p, xidx, p.gen(g))
        except qsolv.QsolvError:
            continue
        out += [comp.num for comp in spec.components
                if any(isinstance(c, FracElem) for c in comp.num.terms.values())]
    return out


@pytest.mark.parametrize("p", FAMILIES, ids=lambda p: p.name)
def test_warm_tables_give_the_cold_products(p):
    # products read from tables that earlier products filled are the
    # ones a fresh copy of the presentation, whose engine starts empty,
    # builds; a pair that crosses a tail multiplies its stored product
    # by c1 * c2 where the cold call multiplies letter by letter, so the
    # FracElem coefficients of eigencomponents must print the same too
    rng = random.Random(29)
    elements = [_random_element(p, rng) for _ in range(10)]
    components = fraction_components(p)[:4]
    gens = [p.gen(g) for g in range(p.n + p.m)]
    factors = [(rng.choice(elements), rng.choice(elements)) for _ in range(30)]
    factors += [(c, g) for c in components for g in gens]
    factors += [(g, c) for c in components for g in gens[:3]]
    factors += [(c, rng.choice(elements)) for c in components]
    for a, b in factors:
        nf_mul(a, b)
    assert engine(p).pairs
    if p.name in ("quantum_weyl", "quantum_weyl2", "quantum_matrices2", "rank2"):
        assert components
    assert_pair_entries(p)
    # a copy that multiplies only these factors stores, besides their
    # pairs, only tail-crossing prefixes their walks passed
    fresh = copy.copy(p)
    for a, b in factors:
        nf_mul(NFElement(fresh, a.terms), NFElement(fresh, b.terms))
    prefixes = assert_pair_entries(fresh, term_pairs(factors))
    assert prefixes > 0 if p.tails else prefixes == 0
    for a, b in factors:
        warm = nf_mul(a, b)
        fresh = copy.copy(p)
        assert fresh._engine is None
        cold = nf_mul(NFElement(fresh, a.terms), NFElement(fresh, b.terms))
        assert warm == cold
        assert str(warm) == str(cold)


def test_table_cap_bounds_the_shared_entries(monkeypatch):
    monkeypatch.setattr(normalform, "_TABLE_CAP", 16)
    w = quantum_weyl(1)
    held, pairs = [], []
    for i, j in itertools.product(range(1, 6), repeat=2):
        left, right = w.gen_power(1, i), w.gen_power(0, j)
        assert_same_normal_form(nf_mul(left, right), reference_mul(left, right))
        held.append(len(right_products(w)))
        pairs.append(len(engine(w).pairs))
    # kept while under the cap, cleared by a call that leaves more; each
    # call adds its own pair, the right products its fills make and the
    # prefixes its walk stores, so a call on a cleared table with i > 2
    # already leaves more than 16 entries
    assert max(held) == 12 and held.count(0) > 1
    assert pairs == [1, 3, 5, 7, 9, 10, 12, 14, 16, 0] + [3, 7, 11, 15, 0] + \
        [4, 9, 14, 0, 0] + [5, 11, 0, 0, 0]


def test_presentations_are_freed_without_the_cyclic_collector():
    # The engine keeps what it reads of its presentation, not the
    # presentation itself.  One that held it would make a cycle that only
    # the cyclic collector frees; that raised peak_rss_mb by 7 to 14 % on
    # the products, powers and spectra benchmark workloads.
    gc.collect()
    gc.disable()
    try:
        for p in (quantum_weyl(1), quantum_matrices(3)):
            gens = [p.gen(i) for i in range(p.n)]
            products = [nf_mul(a, b) for a in gens for b in gens]
            assert right_products(p) and engine(p).pairs
            del p, gens, products
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pickles_leave_the_memo_tables_behind():
    w = quantum_weyl(1)
    size = len(pickle.dumps(w))
    products = [nf_mul(w.gen_power(1, k), w.gen_power(0, k)) for k in range(1, 9)]
    tables = engine(w)
    assert right_products(w) and tables.tails and tables.pairs
    assert len(pickle.dumps(w)) == size
    dup = pickle.loads(pickle.dumps(w))
    assert dup._engine is None
    assert dup == w
    for k, product in enumerate(products, 1):
        again = nf_mul(dup.gen_power(1, k), dup.gen_power(0, k))
        assert again.pres is dup
        assert_same_normal_form(again, product)
