"""Reference condition checks, kept as test oracles.

These are the straightforward forms that the library replaced with
cheaper kernels:

* ``rational_torsionfree`` factors every value into primes by trial
  division before the kernel-parity test, so its cost grows with the
  square root of the values; small inputs only.
* ``unit_value`` evaluates a unit monomial through ``LaurentPoly.eval_map``
  at the target's assignment.
* ``eval_coef`` evaluates a tail coefficient the same way, raising the
  value of each parameter to each power, where the library reads each
  monomial off as a power of zeta.
* ``relation_findings`` builds the weight of every tail key as a product
  of one ``UnitMonomial`` per generator and compares it with the weight
  the relation asks for.

The library must agree with them exactly.
"""

from fractions import Fraction

from qsolv import (
    FracElem,
    LaurentPoly,
    SpecializationError,
    UnitMonomial,
    gamma_torsionfree,
    unit_product,
)
from qsolv.presentation import Finding


def factor_rational(v):
    """(sign, {prime: exponent}) of a nonzero rational."""
    sign = 1 if v > 0 else -1
    out = {}
    for part, s in ((abs(v.numerator), 1), (v.denominator, -1)):
        d = 2
        while d * d <= part:
            while part % d == 0:
                out[d] = out.get(d, 0) + s
                part //= d
            d += 1
        if part > 1:
            out[part] = out.get(part, 0) + s
    return sign, out


def rational_torsionfree(values):
    vals = [Fraction(v) for v in values]
    if any(not v for v in vals):
        raise SpecializationError("zero is not a unit")
    if all(v > 0 for v in vals):
        return True
    factored = [factor_rational(v) for v in vals]
    primes = tuple(sorted({q for _, f in factored for q in f}))
    return gamma_torsionfree(
        UnitMonomial(primes, sign, tuple(f.get(q, 0) for q in primes))
        for sign, f in factored
    )


def unit_value(unit, target):
    """Value of a unit monomial at a rational or cyclotomic target."""
    return unit.as_poly().eval_map(target.assignment(unit.params))


def eval_coef(coef, target):
    """Value of a Laurent or fraction-field coefficient at a rational or
    cyclotomic target."""
    assignment = target.assignment(coef.params if isinstance(coef, LaurentPoly)
                                   else coef.num.params)
    if isinstance(coef, FracElem):
        num = coef.num.eval_map(assignment)
        den = coef.den.eval_map(assignment)
        if den == 0:
            raise SpecializationError("coefficient denominator vanishes")
        return num / den
    return coef.eval_map(assignment)


def key_weight(p, i, key):
    return unit_product(
        [(p.hweight(i, g), e) for g, e in enumerate(key) if e], params=p.params
    )


def relation_findings(p, value, tails):
    findings = []
    tails = sorted(tails.items())
    for (i, j), body in tails:
        for key in sorted(body):
            bad = [p.gens[g] for g in range(i + 1) if key[g]]
            if bad:
                findings.append(Finding(
                    "WF", f"tail {p.gens[i]} {p.gens[j]}",
                    f"monomial uses {', '.join(bad)}, not after {p.gens[i]}",
                ))
    for i in range(p.n):
        for j in range(i + 1, len(p.gens)):
            if value(p.hweight(i, j)) != value(p.commutation_unit(i, j)):
                findings.append(Finding(
                    "WF", f"weight {i + 1} {p.gens[j]}",
                    "weight disagrees with the commutation scalar of the relation",
                ))
    if findings:
        return findings

    for (i, j), body in tails:
        target = value(p.qskew[i].inverse() * p.hweight(i, j))
        if any(value(key_weight(p, i, key)) != target for key in body):
            findings.append(Finding(
                "Q1", f"tail {p.gens[i]} {p.gens[j]}",
                "tail is not a tau eigenvector with eigenvalue "
                f"{p.qskew[i].inverse()}*{p.hweight(i, j)}",
            ))
    for h in range(p.n):
        for (i, j), body in tails:
            target = value(p.hweight(h, i) * p.hweight(h, j))
            if any(value(key_weight(p, h, key)) != target for key in body):
                findings.append(Finding(
                    "Q3", f"tau {h + 1} on tail {p.gens[i]} {p.gens[j]}",
                    "relation is not stable under the diagonal action",
                ))
    return findings
