"""Integer column operations: HNF, kernels, basis completion."""

import random

import pytest

from qsolv.errors import LatticeError
from qsolv.intlinalg import (
    column_hnf,
    complete_to_unimodular,
    hnf_columns,
    hnf_contains,
    kernel_basis,
    xgcd,
)
from reference_intlinalg import abs_det


def _mat_mul_col(rows, col):
    return [sum(r[j] * col[j] for j in range(len(col))) for r in rows]


def test_xgcd():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_column_hnf_transform():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    hcols, ucols, pivots = column_hnf(rows, 3, 3)
    # H = A * U with U unimodular
    for j, ucol in enumerate(ucols):
        assert _mat_mul_col(rows, ucol) == list(hcols[j])
    assert abs_det(ucols) == 1
    assert len(pivots) <= 3


def test_kernel_basis_membership():
    rows = [[1, 2, 3]]
    basis = kernel_basis(rows)
    assert len(basis) == 2
    for col in basis:
        assert _mat_mul_col(rows, col) == [0]


def test_kernel_basis_is_saturated():
    # the kernel of (2, 4) is spanned by a primitive vector
    basis = kernel_basis([[2, 4]])
    assert len(basis) == 1
    (v,) = basis
    from math import gcd

    assert gcd(v[0], v[1]) == 1


def test_hnf_columns_canonical():
    a = hnf_columns(2, [(2, 0), (0, 2), (1, 1)])
    b = hnf_columns(2, [(1, 1), (2, 0)])
    assert a == b
    assert hnf_columns(2, []) == ()


def test_hnf_contains():
    cols = hnf_columns(2, [(2, 0), (1, 1)])
    assert hnf_contains(2, cols, (3, 1))
    assert not hnf_contains(2, cols, (0, 1))
    # the whole window agrees with parity of the coordinate sum
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert hnf_contains(2, cols, (a, b)) == ((a + b) % 2 == 0)


def test_abs_det():
    assert abs_det([(1, 0), (0, 1)]) == 1
    assert abs_det([(2, 0), (0, 3)]) == 6
    assert abs_det([(2, 4), (1, 2)]) == 0


def test_complete_to_unimodular():
    cols = [tuple(c) for c in complete_to_unimodular(2, [(1, 1)])]
    assert len(cols) == 2
    assert cols[0] == (1, 1)
    assert abs_det(cols) == 1


def test_complete_to_unimodular_random():
    rng = random.Random(5)
    for _ in range(50):
        dim = rng.randint(1, 4)
        v = [0] * dim
        while all(x == 0 for x in v):
            v = [rng.randint(-4, 4) for _ in range(dim)]
        from math import gcd
        from functools import reduce

        g = reduce(gcd, (abs(x) for x in v))
        v = [x // g for x in v]
        cols = [tuple(c) for c in complete_to_unimodular(dim, [tuple(v)])]
        assert abs_det(cols) == 1
        # the leading column spans the same rank-1 lattice
        assert hnf_columns(dim, [cols[0]]) == hnf_columns(dim, [tuple(v)])


def test_complete_rejects_non_summand():
    # 2*e1 is not a direct summand of Z^2
    with pytest.raises(LatticeError):
        complete_to_unimodular(2, [(2, 0)])
