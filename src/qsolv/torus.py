"""Twisted Laurent polynomial algebras and their centers.

A rank-n torus is determined by pairwise commutation scalars
Y_i Y_j = p_ij Y_j Y_i.  Since the scalars are unit monomials in the
q-parameters, centrality questions reduce to integer linear algebra on
their exponent vectors: the center is a lattice, a compatible basis
splits it off as a direct summand, and at a root of unity the lattice
congruences measure the rank over the center.
"""

from __future__ import annotations

from . import intlinalg
from .errors import LatticeError
from .params import (
    Frozen, UnitMonomial, _as_exponent, _as_exponents, _set_field, normal_scalar, support,
)


class TorusPresentation(Frozen):
    """Commutation data p_ij (i < j) for Laurent generators Y_1..Y_n."""

    __slots__ = ("rank", "params", "pmat", "_pairs", "_one")

    def __init__(self, rank, params, pmat):
        rank = _as_exponent(rank)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        params = tuple(params)
        clean = {}
        for (i, j), unit in dict(pmat).items():
            i, j = _as_exponents((i, j))
            if not 0 <= i < j < rank:
                raise ValueError(f"pair ({i}, {j}) out of range for rank {rank}")
            if not isinstance(unit, UnitMonomial):
                raise TypeError("commutation scalars must be unit monomials")
            if unit.params != params:
                raise ValueError("parameter tuples differ")
            if not unit.is_one():
                clean[(i, j)] = unit
        _set_field(self, "rank", rank)
        _set_field(self, "params", params)
        _set_field(self, "pmat", clean)
        # both orientations, so that no lookup builds an inverse
        pairs = dict(clean)
        pairs.update(((j, i), unit.inverse()) for (i, j), unit in clean.items())
        _set_field(self, "_pairs", pairs)
        _set_field(self, "_one", UnitMonomial.one(params))

    def pairing(self, i, j):
        """The scalar p_ij with Y_i Y_j = p_ij Y_j Y_i, any index order."""
        return self._pairs.get((i, j), self._one)

    def __eq__(self, other):
        if not isinstance(other, TorusPresentation):
            return NotImplemented
        return (self.rank, self.params, self.pmat) == (
            other.rank, other.params, other.pmat
        )

    def __repr__(self):
        body = ", ".join(
            f"p{i + 1}{j + 1}={u}" for (i, j), u in sorted(self.pmat.items())
        )
        return f"TorusPresentation(rank {self.rank}: {body or 'commutative'})"


def torus_normal_scalar(P, a, b):
    """The scalar with Y^a * Y^b = scalar * Y^(a+b); see normal_scalar."""
    a, b = tuple(a), tuple(b)
    if len(a) != P.rank or len(b) != P.rank:
        raise ValueError("exponent vector width does not match rank")
    return normal_scalar(P.pairing, a, b, P.params, support(a), support(b))


def commutation_factor(P, a, b):
    """The scalar with Y^a * Y^b = scalar * Y^b * Y^a."""
    return torus_normal_scalar(P, a, b) * torus_normal_scalar(P, b, a).inverse()


class LatticeSubgroup(Frozen):
    """A subgroup of Z^dim held by its canonical HNF column basis."""

    __slots__ = ("dim", "basis")

    def __init__(self, dim, vectors):
        dim = _as_exponent(dim)
        vectors = [_as_exponents(v) for v in vectors]
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if any(len(v) != dim for v in vectors):
            raise ValueError("vector width does not match dimension")
        _set_field(self, "dim", dim)
        _set_field(self, "basis", intlinalg.hnf_columns(dim, vectors))

    @property
    def rank(self):
        return len(self.basis)

    def contains(self, v):
        v = tuple(v)
        if len(v) != self.dim:
            raise ValueError("vector width does not match dimension")
        return intlinalg.hnf_contains(self.dim, self.basis, v)

    def is_zero(self):
        return not self.basis

    def is_full(self):
        # the index is the product of the HNF pivots, each its column's
        # leading entry and positive
        return self.rank == self.dim and all(
            next(v for v in col if v) == 1 for col in self.basis
        )

    def __eq__(self, other):
        if not isinstance(other, LatticeSubgroup):
            return NotImplemented
        return self.dim == other.dim and self.basis == other.basis

    def __repr__(self):
        if not self.basis:
            return f"LatticeSubgroup({self.dim}, trivial)"
        cols = ", ".join(str(list(c)) for c in self.basis)
        return f"LatticeSubgroup({self.dim}, [{cols}])"


def _exponent_rows(P):
    # one row per (generator, parameter) coordinate of m -> sum_j m_j v_ij
    rows = []
    for i in range(P.rank):
        for ell in range(len(P.params)):
            rows.append([P.pairing(i, j).exps[ell] for j in range(P.rank)])
    return rows


def _reject_signs(P, what):
    for (i, j), unit in P.pmat.items():
        if unit.sign < 0:
            raise LatticeError(
                f"p_{i + 1}{j + 1} carries a sign; {what} needs sign-free "
                "scalars (encode -1 as a parameter and specialize later)"
            )


def center_lattice(P):
    """The lattice G with Y^m central iff m in G.

    Y^m commutes with every Y_i exactly when prod_j p_ij^(m_j) = 1, and
    with sign-free scalars that is the integer system sum_j m_j*v_ij = 0.
    """
    _reject_signs(P, "the center computation")
    if P.rank == 0:
        return LatticeSubgroup(0, [])
    rows = _exponent_rows(P)
    if not rows:
        return LatticeSubgroup(P.rank, [[1 if i == j else 0 for i in range(P.rank)]
                                        for j in range(P.rank)])
    return LatticeSubgroup(P.rank, intlinalg.kernel_basis(rows))


class CenterDescription(Frozen):
    """A compatible basis splitting the center out of the torus.

    changeOfBasis columns are the new generators' exponent vectors; the
    last rank(lattice) of them span the lattice.  quotientForm holds the
    pairwise commutation scalars of the new generators when the torus
    was supplied.
    """

    __slots__ = ("lattice", "changeOfBasis", "quotientForm")

    def __init__(self, lattice, change_of_basis, quotient_form=None):
        _set_field(self, "lattice", lattice)
        _set_field(self, "changeOfBasis", tuple(tuple(col) for col in change_of_basis))
        _set_field(self, "quotientForm", quotient_form)

    def __repr__(self):
        cols = ", ".join(str(list(c)) for c in self.changeOfBasis)
        return f"CenterDescription(rank {self.lattice.rank}, basis [{cols}])"


def _summand_cols(n, cols):
    # sufficient test: unit HNF pivots mean the columns are independent
    # and span a direct summand
    hnf = intlinalg.hnf_columns(n, cols)
    if len(hnf) != len(cols):
        return False
    for col in hnf:
        lead = next(col[r] for r in range(n) if col[r])
        if lead != 1:
            return False
    return True


def _standard_complement(G, n):
    # prefer standard basis vectors for the complement; bail out to the
    # generic completion when they do not fit
    chosen = []
    gcols = [list(c) for c in G.basis]
    for i in range(n):
        if len(chosen) == n - G.rank:
            break
        e = [1 if k == i else 0 for k in range(n)]
        if _summand_cols(n, chosen + [e] + gcols):
            chosen.append(e)
    if len(chosen) == n - G.rank:
        return chosen
    return None


def compatible_basis(G, n, torus=None):
    """Complete a direct-summand subgroup to a basis of Z^n.

    The returned change of basis is unimodular with the subgroup spanned
    by its last rank(G) columns; passing the torus fills in the new
    generators' commutation scalars.
    """
    if G.dim != n:
        raise ValueError("lattice dimension does not match rank")
    complement = _standard_complement(G, n)
    if complement is None:
        completed = intlinalg.complete_to_unimodular(
            n, [list(c) for c in G.basis]
        )
        complement = completed[G.rank:]
    ordered = complement + [list(c) for c in G.basis]
    form = None
    if torus is not None:
        if torus.rank != n:
            raise ValueError("torus rank does not match dimension")
        form = {}
        for a in range(n):
            for b in range(a + 1, n):
                unit = commutation_factor(torus, ordered[a], ordered[b])
                if not unit.is_one():
                    form[(a, b)] = unit
    return CenterDescription(G, ordered, form)


def root_of_unity_structure(P, N):
    """Center congruences of the torus with q at a primitive N-th root.

    Returns (K, rank) where K = {m : sum_j m_j*e_ij = 0 mod N for all i}
    and rank = [Z^n : K], the rank of the specialized torus over its
    center.  Every p_ij must be a power of one common parameter.
    """
    N = _as_exponent(N)
    if N < 1:
        raise LatticeError("root-of-unity order must be positive")
    _reject_signs(P, "the root-of-unity analysis")
    used = set()
    for unit in P.pmat.values():
        for ell, e in enumerate(unit.exps):
            if e:
                used.add(ell)
    if len(used) > 1:
        names = ", ".join(P.params[ell] for ell in sorted(used))
        raise LatticeError(
            f"scalars mix parameters {names}; no single-parameter reduction"
        )
    n = P.rank
    if n == 0:
        return LatticeSubgroup(0, []), 1
    if not used:
        full = LatticeSubgroup(n, [[1 if i == j else 0 for i in range(n)]
                                   for j in range(n)])
        return full, 1
    ell = used.pop()
    erows = [[P.pairing(i, j).exps[ell] for j in range(n)] for i in range(n)]
    # solutions of E m = N w: kernel of [E | -N*I], projected onto m
    rows = [erows[i] + [-N if k == i else 0 for k in range(n)]
            for i in range(n)]
    projected = [vec[:n] for vec in intlinalg.kernel_basis(rows)]
    K = LatticeSubgroup(n, projected)
    if K.rank != n:
        raise LatticeError("congruence lattice is degenerate")
    # [Z^n : K] is the product of the HNF pivots, each its column's leading entry
    rank = 1
    for col in K.basis:
        rank *= next(v for v in col if v)
    return K, rank


def torus_of_presentation(p, positions):
    """The commutation torus of selected generators of a presentation.

    Positions index the presentation's generators; their pairwise scalars
    are read straight off the commutation matrix.
    """
    positions = tuple(positions)
    pmat = {}
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            unit = p.commutation_unit(positions[a], positions[b])
            if not unit.is_one():
                pmat[(a, b)] = unit
    return TorusPresentation(len(positions), p.params, pmat)
