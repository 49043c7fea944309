"""Growth gates: the work of a known case against a stated bound in the
size of its input and of its answer.

Each case runs at two sizes and reads a count that does not depend on the
machine, taken by wrapping the function that does the work or from what a
table holds after it.  A case whose count breaks its bound today is a
strict expected failure naming the ROADMAP item that is to mend it; that
change removes the marker, and the gate then holds.
"""

import math

import pytest

from qsolv import LaurentPoly, UnitMonomial, nf_mul, quantum_matrices, quantum_weyl
from qsolv import strat
from qsolv.normalform import _Engine
from test_mul_table import right_products

# the constant of the n log n bounds, with log to base 2
C = 4


def record_work(monkeypatch):
    """A dict counting, from now on, the table fills of every engine and
    the coefficient terms of every LaurentPoly built, through the checking
    and the trusted constructor."""
    counts = {"fills": 0, "terms": 0}
    start, init = _Engine._start_fill, LaurentPoly.__init__
    make = LaurentPoly.__dict__["_make"].__func__

    def counted_start(engine, request):
        counts["fills"] += 1
        return start(engine, request)

    def counted_init(self, *args):
        init(self, *args)
        counts["terms"] += len(self.terms)

    def counted_make(cls, params, terms):
        counts["terms"] += len(terms)
        return make(cls, params, terms)

    monkeypatch.setattr(_Engine, "_start_fill", counted_start)
    monkeypatch.setattr(LaurentPoly, "__init__", counted_init)
    monkeypatch.setattr(LaurentPoly, "_make", classmethod(counted_make))
    return counts


def chain_work(monkeypatch, n):
    """weyl1 x^n * y on a fresh presentation: the product and its work."""
    w = quantum_weyl(1)
    xn, y = w.gen_power(1, n), w.gen(0)
    counts = record_work(monkeypatch)
    product = nf_mul(xn, y)
    monkeypatch.undo()
    return product, counts


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("n", [200, 400])
def test_fill_chain_fills(monkeypatch, n):
    # the entry x^k * y needs x^(k-1) * y: n fills, one per rung
    product, counts = chain_work(monkeypatch, n)
    assert len(product.terms) == 2
    assert counts["fills"] <= C * math.log2(n)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("n", [200, 400])
def test_fill_chain_coefficient_terms(monkeypatch, n):
    # the answer has n + 1 coefficient terms, but rung k builds a k-term
    # coefficient, so the chain builds about n^2 / 2 of them
    product, counts = chain_work(monkeypatch, n)
    assert sum(len(c.terms) for c in product.terms.values()) == n + 1
    assert counts["terms"] <= C * n * math.log2(n)


@pytest.mark.parametrize("k", [8, 16])
def test_two_sided_power_fills_track_the_answer(monkeypatch, k):
    # a22^k * a11^k in quantum_matrices(2) is output-bound: 204 and 1,496
    # fills against 277 and 2,129 coefficient terms in the answer
    p = quantum_matrices(2)
    left, right = p.gen_power(3, k), p.gen_power(0, k)
    counts = record_work(monkeypatch)
    product = nf_mul(left, right)
    monkeypatch.undo()
    answer_terms = sum(len(c.terms) for c in product.terms.values())
    assert counts["fills"] <= answer_terms


@pytest.mark.parametrize("n", [16, 32])
def test_power_product_pair_terms_track_the_answer(n):
    # weyl1 x^n * y^n keeps its product (n + 1 terms) and the product by
    # the longest prefix y^(n-1) (n terms) in the pair table, beside the
    # right products its fills make; keeping the product by every prefix
    # y^j its walk passes held about n^2 / 2
    w = quantum_weyl(1)
    product = nf_mul(w.gen_power(1, n), w.gen_power(0, n))
    held = sum(len(entry) for entry in w._engine.pairs.values()
               if entry is not None and not isinstance(entry, UnitMonomial))
    held -= sum(len(entry) for entry in right_products(w).values())
    assert held <= 2 * len(product.terms)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
@pytest.mark.parametrize("prime", [1000003, 100000007])
def test_rational_roots_trial_divisors(monkeypatch, prime):
    # the divisor search tries every d up to the square root of each end
    # coefficient, exponential in the bits of the prime
    tried = []
    isqrt = strat.isqrt
    monkeypatch.setattr(strat, "isqrt", lambda n: tried.append(isqrt(n)) or tried[-1])
    q = LaurentPoly.var(("q",), "q")
    roots, residual = strat.rational_roots(q - prime)
    monkeypatch.undo()
    assert roots == [prime] and residual is None
    assert sum(tried) <= prime.bit_length() ** 2
