"""The four text printers as they stood before the shared text helpers,
the oracle for the printed forms of qsolv values.

Each function is a verbatim copy of one former printer, rewritten as a
free function: ``LaurentPoly.__str__`` with its ``_term_str``,
``UnitMonomial.__str__``, ``NFElement.__str__`` with its
``_monomial_str``, and the tail printer ``cli._poly_terms_str``.  They
print nested values with each other rather than with ``str``, so they
share no printing code with the classes they check.  ``print_presentation``
is the canonical file text built from these printers.
"""

from qsolv import FracElem, LaurentPoly


def laurent_term_str(params, exps, coef):
    factors = []
    for name, e in zip(params, exps):
        if e == 1:
            factors.append(name)
        elif e:
            factors.append(f"{name}^{e}")
    if not factors:
        return str(coef)
    body = "*".join(factors)
    if coef == 1:
        return body
    if coef == -1:
        return f"-{body}"
    return f"{coef}*{body}"


def laurent_str(poly):
    if not poly.terms:
        return "0"
    parts = []
    for exps in sorted(poly.terms, reverse=True):
        s = laurent_term_str(poly.params, exps, poly.terms[exps])
        if parts:
            if s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        else:
            parts.append(s)
    return "".join(parts)


def unit_str(unit):
    factors = []
    for name, e in zip(unit.params, unit.exps):
        if e == 1:
            factors.append(name)
        elif e:
            factors.append(f"{name}^{e}")
    body = "*".join(factors)
    if not body:
        return "1" if unit.sign > 0 else "-1"
    return body if unit.sign > 0 else f"-{body}"


def frac_str(value):
    """``FracElem.__str__``, with the reference Laurent printer inside."""
    if value.den.is_one():
        return laurent_str(value.num)
    num = laurent_str(value.num)
    if len(value.num.terms) > 1:
        num = f"({num})"
    return f"{num}/({laurent_str(value.den)})"


def coef_str(coef):
    return laurent_str(coef) if isinstance(coef, LaurentPoly) else frac_str(coef)


def nf_monomial_str(gens, key):
    factors = []
    for pos, e in enumerate(key):
        if not e:
            continue
        name = gens[pos]
        factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def nf_str(element):
    if not element.terms:
        return "0"
    parts = []
    for key in sorted(element.terms):
        coef = element.terms[key]
        mono = nf_monomial_str(element.pres.gens, key)
        cs = coef_str(coef)
        if mono:
            if cs == "1":
                body = mono
            elif cs == "-1":
                body = f"-{mono}"
            else:
                if isinstance(coef, LaurentPoly) and len(coef.terms) > 1:
                    cs = f"({cs})"
                elif isinstance(coef, FracElem) and not (
                    coef.den.is_one() and len(coef.num.terms) <= 1
                ):
                    cs = f"({cs})"
                body = f"{cs}*{mono}"
        else:
            body = cs
        if parts:
            if body.startswith("-"):
                parts.append(" - " + body[1:])
            else:
                parts.append(" + " + body)
        else:
            parts.append(body)
    return "".join(parts)


def poly_terms_str(p, terms):
    parts = []
    for key in sorted(terms):
        coef = terms[key]
        for exps in sorted(coef.terms, reverse=True):
            ratio = coef.terms[exps]
            factors = []
            for name, e in zip(p.params, exps):
                factors.append(name if e == 1 else f"{name}^{e}" if e else None)
            for pos, e in enumerate(key):
                if e:
                    gname = p.gens[pos]
                    factors.append(gname if e == 1 else f"{gname}^{e}")
            factors = [f for f in factors if f]
            body = "*".join(factors)
            if not body:
                piece = str(ratio)
            elif ratio == 1:
                piece = body
            elif ratio == -1:
                piece = f"-{body}"
            else:
                piece = f"{ratio}*{body}"
            parts.append(piece)
    out = ""
    for piece in parts:
        if not out:
            out = piece
        elif piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out or "0"


def print_presentation(p):
    lines = [f"algebra {p.name}"]
    if p.params:
        lines.append("params " + ", ".join(p.params))
    decls = []
    for pos, g in enumerate(p.gens):
        decls.append(f"{g} {'poly' if pos < p.n else 'laurent'}")
    lines.append("gens " + ", ".join(decls))
    for (a, b) in sorted(p.qmat):
        unit = p.qmat[(a, b)]
        if not unit.is_one():
            lines.append(f"commute {p.gens[a]} {p.gens[b]} : {unit_str(unit)}")
    for (i, j) in sorted(p.tails):
        payload = poly_terms_str(p, p.tails[(i, j)])
        lines.append(f"tail {p.gens[i]} {p.gens[j]} : {payload}")
    for i, unit in enumerate(p.qskew):
        if not unit.is_one():
            lines.append(f"qskew {i + 1} : {unit_str(unit)}")
    for i in range(p.n):
        for g in range(p.n + p.m):
            default = (p.qskew[i].inverse() if g == i
                       else p.commutation_unit(i, g))
            actual = p.hweight(i, g)
            if actual != default:
                lines.append(f"weight {i + 1} {p.gens[g]} : {unit_str(actual)}")
    return "\n".join(lines) + "\n"
