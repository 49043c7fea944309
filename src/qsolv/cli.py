"""Presentation file format and command-line driver.

Files are line oriented: a header names the algebra, then lines declare
parameters, generators (in basis order), commutation scalars, tails,
q-skew constants, and explicit weights.  A ``/`` standing alone splits
several statements on one physical line; ``#`` starts a comment.  All
scalars are written exactly (integers, fractions, parameter monomials).

The driver exposes the library over files: validation, weight splitting,
conjugation spectra, torus centers, stratification, specialization, and
composition listings.  Exit codes: 0 success, 1 failed checks, 2 parse
errors, 3 unsupported input for the requested operation.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .adjoint import ad_eigencomponents
from .errors import (
    FamilyError,
    ParseError,
    PresentationError,
    QsolvError,
    RepeatedRootError,
    SpecializationError,
)
from .normalform import nf_mul
from .params import LaurentPoly, UnitMonomial
from .presentation import Presentation, validate_presentation
from .special import SpecTarget, specialize_presentation
from .strat import stratify_affine, stratify_rank2
from .torus import center_lattice, compatible_basis, torus_of_presentation
from .weights import weight_components

# -- tokenizer --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<WS>[ \t]+)"
    r"|(?P<RATIONAL>\d+/\d+)"
    r"|(?P<INT>\d+)"
    r"|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<OP>[*^+\-,:/()])"
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Token({self.kind} {self.text!r} @{self.line}:{self.col})"


def _tokenize(text):
    """Token runs per statement; a lone '/' splits statements within a
    physical line, '1/2' without spaces stays a fraction."""
    statements = []
    current = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            m = _TOKEN_RE.match(body, pos)
            if m is None:
                raise ParseError(
                    f"unexpected character {body[pos]!r}", lineno, pos + 1
                )
            pos = m.end()
            kind = m.lastgroup
            if kind == "WS":
                continue
            tok = _Token(kind, m.group(), lineno, m.start() + 1)
            if kind == "OP" and tok.text == "/":
                if current:
                    statements.append(current)
                current = []
            else:
                current.append(tok)
        if current:
            statements.append(current)
        current = []
    return statements


class _Cursor:
    """Sequential reader over one statement's tokens."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def done(self):
        return self.pos >= len(self.tokens)

    def _fail(self, message):
        if self.pos < len(self.tokens):
            t = self.tokens[self.pos]
            raise ParseError(message, t.line, t.col)
        t = self.tokens[-1]
        raise ParseError(message, t.line, t.col + len(t.text))

    def take(self, kind, text=None, what=None):
        t = self.peek()
        if t is None or t.kind != kind or (text is not None and t.text != text):
            self._fail(f"expected {what or text or kind.lower()}")
        self.pos += 1
        return t

    def accept(self, kind, text=None):
        t = self.peek()
        if t is not None and t.kind == kind and (text is None or t.text == text):
            self.pos += 1
            return t
        return None


def _parse_int(cur, what="integer"):
    sign = -1 if cur.accept("OP", "-") else 1
    tok = cur.take("INT", what=what)
    return sign * int(tok.text)


def _parse_unit(cur, params):
    """UNITEXPR: optional sign, then NAME^INT factors joined by '*', or a
    literal 1."""
    sign = 1
    if cur.accept("OP", "-"):
        sign = -1
    if cur.accept("INT", "1"):
        unit = UnitMonomial.one(params)
        if not cur.accept("OP", "*"):
            return unit if sign > 0 else -unit
    unit = UnitMonomial.one(params)
    while True:
        tok = cur.take("NAME", what="parameter name")
        if tok.text not in params:
            raise ParseError(
                f"unknown parameter {tok.text!r}", tok.line, tok.col
            )
        power = 1
        if cur.accept("OP", "^"):
            power = _parse_int(cur, "exponent")
        unit = unit * UnitMonomial.var(params, tok.text, power)
        if not cur.accept("OP", "*"):
            break
    return unit if sign > 0 else -unit


def _parse_rational(cur):
    tok = cur.accept("RATIONAL") or cur.accept("INT")
    if tok is None:
        return None
    if "/" in tok.text:
        num, den = tok.text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(tok.text))


def _parse_term(cur, params, gen_positions):
    """One POLYEXPR term: optional rational, then '*'-joined factors of
    parameter or generator powers.  Returns (Fraction, param exponent
    map, generator exponent map in written order)."""
    coef = _parse_rational(cur)
    pexps = {}
    gfactors = []
    need_factor = coef is None
    while True:
        if coef is not None or pexps or gfactors:
            if not cur.accept("OP", "*"):
                if need_factor and not (pexps or gfactors):
                    pass
                else:
                    break
        tok = cur.peek()
        if tok is None or tok.kind != "NAME":
            if need_factor and not (pexps or gfactors):
                cur._fail("expected a coefficient or a factor")
            break
        cur.pos += 1
        power = 1
        if cur.accept("OP", "^"):
            power = _parse_int(cur, "exponent")
        if tok.text in params:
            pexps[tok.text] = pexps.get(tok.text, 0) + power
        elif tok.text in gen_positions:
            gfactors.append((tok, power))
        else:
            raise ParseError(f"unknown name {tok.text!r}", tok.line, tok.col)
    return (coef if coef is not None else Fraction(1)), pexps, gfactors


def _parse_polyexpr(cur, params, gen_positions):
    """POLYEXPR as a list of (coef, param exps, gen factor list) terms."""
    terms = []
    negate = bool(cur.accept("OP", "-"))
    while True:
        coef, pexps, gfactors = _parse_term(cur, params, gen_positions)
        if negate:
            coef = -coef
        terms.append((coef, pexps, gfactors))
        if cur.accept("OP", "+"):
            negate = False
        elif cur.accept("OP", "-"):
            negate = True
        else:
            break
    return terms


# -- presentation files ------------------------------------------------------

def parse_presentation(text):
    """Parse the line-oriented presentation format into a Presentation.

    Declaration order matters: parameters (optional) and generators must
    appear before the lines that reference them.  Well-formedness of
    tails (no factors at or before the pair's first generator) is
    enforced here so that mistakes point at the offending line.
    """
    statements = _tokenize(text)
    if not statements:
        raise ParseError("empty presentation file", 1, 1)

    cur = _Cursor(statements[0])
    cur.take("NAME", "algebra", what='the keyword "algebra"')
    name = cur.take("NAME", what="algebra name").text
    if not cur.done():
        cur._fail("trailing input after the header")

    params = ()
    gens = []
    npoly = 0
    gen_positions = {}
    qmat = {}
    qmat_lines = {}
    tails = {}
    qskew = {}
    weights = {}

    def require_gens(tok):
        if not gens:
            raise ParseError(
                "generators must be declared before this line",
                tok.line, tok.col,
            )

    for tokens in statements[1:]:
        cur = _Cursor(tokens)
        head = cur.take("NAME", what="a statement keyword")
        if head.text == "params":
            if params:
                raise ParseError("duplicate params line", head.line, head.col)
            if gens:
                raise ParseError(
                    "params must be declared before generators",
                    head.line, head.col,
                )
            names = [cur.take("NAME", what="parameter name").text]
            while cur.accept("OP", ","):
                names.append(cur.take("NAME", what="parameter name").text)
            if len(set(names)) != len(names):
                raise ParseError("repeated parameter name", head.line, head.col)
            params = tuple(names)
        elif head.text == "gens":
            if gens:
                raise ParseError("duplicate gens line", head.line, head.col)
            seen_laurent = False
            while True:
                gname = cur.take("NAME", what="generator name")
                kind = cur.take("NAME", what='"poly" or "laurent"')
                if kind.text not in ("poly", "laurent"):
                    raise ParseError(
                        'generator kind must be "poly" or "laurent"',
                        kind.line, kind.col,
                    )
                if gname.text in gen_positions or gname.text in params:
                    raise ParseError(
                        f"name {gname.text!r} already in use",
                        gname.line, gname.col,
                    )
                if kind.text == "poly":
                    if seen_laurent:
                        raise ParseError(
                            "polynomial generators must precede invertible "
                            "ones", gname.line, gname.col,
                        )
                    npoly += 1
                else:
                    seen_laurent = True
                gen_positions[gname.text] = len(gens)
                gens.append(gname.text)
                if not cur.accept("OP", ","):
                    break
        elif head.text == "commute":
            require_gens(head)
            atok = cur.take("NAME", what="generator name")
            btok = cur.take("NAME", what="generator name")
            for tok in (atok, btok):
                if tok.text not in gen_positions:
                    raise ParseError(
                        f"unknown generator {tok.text!r}", tok.line, tok.col
                    )
            a, b = gen_positions[atok.text], gen_positions[btok.text]
            if a >= b:
                raise ParseError(
                    "commute pairs are written in declaration order",
                    atok.line, atok.col,
                )
            if (a, b) in qmat:
                raise ParseError(
                    f"duplicate commute entry for {atok.text} {btok.text}",
                    head.line, head.col,
                )
            cur.take("OP", ":", what="':'")
            qmat[(a, b)] = _parse_unit(cur, params)
            qmat_lines[(a, b)] = head
        elif head.text == "tail":
            require_gens(head)
            itok = cur.take("NAME", what="generator name")
            jtok = cur.take("NAME", what="generator name")
            for tok in (itok, jtok):
                if tok.text not in gen_positions:
                    raise ParseError(
                        f"unknown generator {tok.text!r}", tok.line, tok.col
                    )
            i, j = gen_positions[itok.text], gen_positions[jtok.text]
            if not (i < j < npoly):
                raise ParseError(
                    "tails attach to an ordered pair of polynomial "
                    "generators", itok.line, itok.col,
                )
            if (i, j) in tails:
                raise ParseError(
                    f"duplicate tail entry for {itok.text} {jtok.text}",
                    head.line, head.col,
                )
            cur.take("OP", ":", what="':'")
            terms = _parse_polyexpr(cur, params, gen_positions)
            tails[(i, j)] = _tail_terms(
                terms, params, gen_positions, npoly, len(gens), i
            )
        elif head.text == "qskew":
            require_gens(head)
            idx_tok = cur.take("INT", what="generator index")
            idx = int(idx_tok.text)
            if not 1 <= idx <= npoly:
                raise ParseError(
                    f"qskew index {idx} out of range 1..{npoly}",
                    idx_tok.line, idx_tok.col,
                )
            if idx - 1 in qskew:
                raise ParseError(
                    f"duplicate qskew entry for index {idx}",
                    head.line, head.col,
                )
            cur.take("OP", ":", what="':'")
            qskew[idx - 1] = _parse_unit(cur, params)
        elif head.text == "weight":
            require_gens(head)
            idx_tok = cur.take("INT", what="generator index")
            idx = int(idx_tok.text)
            if not 1 <= idx <= npoly:
                raise ParseError(
                    f"weight index {idx} out of range 1..{npoly}",
                    idx_tok.line, idx_tok.col,
                )
            gtok = cur.take("NAME", what="generator name")
            if gtok.text not in gen_positions:
                raise ParseError(
                    f"unknown generator {gtok.text!r}", gtok.line, gtok.col
                )
            key = (idx - 1, gen_positions[gtok.text])
            if key in weights:
                raise ParseError(
                    f"duplicate weight entry for {idx} {gtok.text}",
                    head.line, head.col,
                )
            cur.take("OP", ":", what="':'")
            weights[key] = _parse_unit(cur, params)
        else:
            raise ParseError(
                f"unknown statement {head.text!r}", head.line, head.col
            )
        if not cur.done():
            cur._fail("trailing input after the statement")

    if not gens:
        raise ParseError("missing gens line", 1, 1)
    try:
        return Presentation(
            name, params, tuple(gens), npoly,
            qmat=qmat, tails=tails or None,
            qskew=[qskew.get(i, UnitMonomial.one(params))
                   for i in range(npoly)] if qskew else None,
            hweights=weights or None,
        )
    except PresentationError as exc:
        raise ParseError(str(exc), 1, 1)


def _tail_terms(terms, params, gen_positions, npoly, width, i):
    """Fold parsed POLYEXPR terms into a tail coefficient table, checking
    basis order and placement."""
    table = {}
    for coef, pexps, gfactors in terms:
        key = [0] * width
        last = -1
        for tok, power in gfactors:
            pos = gen_positions[tok.text]
            if pos <= i and pos < npoly:
                raise ParseError(
                    f"tail may not involve {tok.text!r}; only later "
                    "generators are allowed", tok.line, tok.col,
                )
            if pos <= last:
                raise ParseError(
                    "tail monomials are written in basis order, each "
                    "generator at most once", tok.line, tok.col,
                )
            if pos < npoly and power < 0:
                raise ParseError(
                    "polynomial generators take nonnegative exponents",
                    tok.line, tok.col,
                )
            last = pos
            key[pos] = power
        exps = tuple(pexps.get(name, 0) for name in params)
        mono = LaurentPoly(params, {exps: coef}) if coef else None
        if mono is None:
            continue
        key = tuple(key)
        prev = table.get(key)
        table[key] = mono if prev is None else prev + mono
    return {k: v for k, v in table.items() if not v.is_zero()}


def parse_element(p, text):
    """Parse an element expression over a presentation.

    Terms add; within a term, factors multiply left to right through the
    rewriting engine, so monomials need not be written in basis order.
    """
    statements = _tokenize(text)
    if len(statements) != 1:
        raise ParseError("expected a single element expression", 1, 1)
    cur = _Cursor(statements[0])
    gen_positions = {g: k for k, g in enumerate(p.gens)}
    terms = _parse_polyexpr(cur, p.params, gen_positions)
    if not cur.done():
        cur._fail("trailing input after the expression")
    total = p.zero()
    for coef, pexps, gfactors in terms:
        exps = tuple(pexps.get(name, 0) for name in p.params)
        part = p.scalar(LaurentPoly(p.params, {exps: coef}))
        for tok, power in gfactors:
            pos = gen_positions[tok.text]
            if pos < p.n and power < 0:
                raise ParseError(
                    "polynomial generators take nonnegative exponents",
                    tok.line, tok.col,
                )
            part = nf_mul(part, p.gen_power(pos, power))
        total = total + part
    return total


# -- canonical printing ------------------------------------------------------

def _poly_terms_str(p, terms):
    """Tail payload in the file grammar, deterministically ordered."""
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
    """Canonical file text: declarations first, then only the scalar data
    that differs from the defaults, in sorted order."""
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
            lines.append(f"commute {p.gens[a]} {p.gens[b]} : {unit}")
    for (i, j) in sorted(p.tails):
        payload = _poly_terms_str(p, p.tails[(i, j)])
        lines.append(f"tail {p.gens[i]} {p.gens[j]} : {payload}")
    for i, unit in enumerate(p.qskew):
        if not unit.is_one():
            lines.append(f"qskew {i + 1} : {unit}")
    for i in range(p.n):
        for g in range(p.n + p.m):
            default = (p.qskew[i].inverse() if g == i
                       else p.commutation_unit(i, g))
            actual = p.hweight(i, g)
            if actual != default:
                lines.append(f"weight {i + 1} {p.gens[g]} : {actual}")
    return "\n".join(lines) + "\n"


# -- command driver ----------------------------------------------------------

def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", 0, 0)


def _report_write(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in sorted(pairs):
            fh.write(f"{key}: {value}\n")


def _cmd_validate(args, out, report):
    p = parse_presentation(_load(args.file))
    result = validate_presentation(p)
    report.append(("algebra", p.name))
    by_cond = {}
    for f in result.findings:
        by_cond.setdefault(f.condition, []).append(f)
    for cond in ("WF", "Q1", "Q2", "Q3"):
        findings = by_cond.pop(cond, [])
        errors = [f for f in findings if f.severity == "error"]
        if not errors:
            out.append(f"{cond} OK")
            report.append((f"check.{cond}", "ok"))
        else:
            for f in errors:
                out.append(f"{cond} FAIL: {f.message} [{f.location}]")
            report.append((f"check.{cond}", "fail"))
        for f in findings:
            if f.severity != "error":
                out.append(f"{cond} note: {f.message}")
    report.append(("passed", str(result.passed).lower()))
    return 0 if result.passed else 1


def _cmd_weights(args, out, report):
    p = parse_presentation(_load(args.file))
    element = parse_element(p, args.element)
    comps = weight_components(element)
    report.append(("algebra", p.name))
    report.append(("components", str(len(comps))))
    out.append(f"components: {len(comps)}")
    for idx, (weight, comp) in enumerate(comps, 1):
        wtxt = ", ".join(str(u) for u in weight)
        out.append(f"weight ({wtxt}): {comp}")
        report.append((f"component.{idx:02d}.weight", f"({wtxt})"))
        report.append((f"component.{idx:02d}.element", str(comp)))
    return 0


def _minpoly_str(coeffs):
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c.is_zero():
            continue
        if d == len(coeffs) - 1:
            head = "t" if d == 1 else f"t^{d}" if d else "1"
            parts.append(head)
            continue
        body = f"({c})"
        if d == 0:
            parts.append(body)
        elif d == 1:
            parts.append(f"{body}*t")
        else:
            parts.append(f"{body}*t^{d}")
    return " + ".join(parts)


def _cmd_adjoint(args, out, report):
    p = parse_presentation(_load(args.file))
    try:
        xidx = p.position(args.xgen)
    except PresentationError:
        raise ParseError(f"unknown generator {args.xgen!r}", 0, 0)
    element = parse_element(p, args.element)
    try:
        spec = ad_eigencomponents(p, xidx, element, args.degree_cap)
    except RepeatedRootError as exc:
        out.append(f"repeated eigenvalue {exc.root}; no spectral split")
        report.append(("repeated_root", str(exc.root)))
        return 1
    report.append(("algebra", p.name))
    report.append(("degree", str(spec.degree)))
    out.append(f"minimal polynomial: {_minpoly_str(spec.minpoly)}")
    report.append(("minpoly", _minpoly_str(spec.minpoly)))
    for idx, (root, comp) in enumerate(zip(spec.roots, spec.components), 1):
        out.append(f"eigenvalue {root}: {comp}")
        report.append((f"root.{idx:02d}", str(root)))
        report.append((f"component.{idx:02d}", str(comp)))
    return 0


def _cmd_center(args, out, report):
    p = parse_presentation(_load(args.file))
    if p.n != 0:
        raise FamilyError(
            "the center command expects a torus (all generators laurent)"
        )
    torus = torus_of_presentation(p, range(p.m))
    G = center_lattice(torus)
    desc = compatible_basis(G, p.m, torus)
    report.append(("algebra", p.name))
    report.append(("center.rank", str(G.rank)))
    if G.is_zero():
        out.append("G = {0}; center = C")
    else:
        cols = ", ".join(str(list(c)) for c in G.basis)
        out.append(f"G = <{cols}>; center = C[Y^m : m in G]")
        for idx, col in enumerate(G.basis, 1):
            report.append((f"center.basis.{idx:02d}", str(list(col))))
    for idx, col in enumerate(desc.changeOfBasis, 1):
        out.append(f"new generator {idx}: Y^{list(col)}")
        report.append((f"basis.{idx:02d}", str(list(col))))
    form = desc.quotientForm or {}
    for (a, b) in sorted(form):
        out.append(f"commutation {a + 1} {b + 1}: {form[(a, b)]}")
        report.append((f"form.{a + 1}{b + 1}", str(form[(a, b)])))
    return 0


def _rank2_tail(p):
    """The scalar tail when the presentation is the rank-2 single-tail
    family, else None."""
    if p.n != 2 or p.m != 0 or len(p.params) != 1 or len(p.tails) != 1:
        return None
    terms = p.tails.get((0, 1))
    if terms is None or any(any(key) for key in terms):
        return None
    q = UnitMonomial.var(p.params, p.params[0])
    if p.commutation_unit(0, 1) != q:
        return None
    tail = LaurentPoly.zero(p.params)
    for coef in terms.values():
        tail = tail + coef
    return tail


def _cmd_stratify(args, out, report):
    p = parse_presentation(_load(args.file))
    report.append(("algebra", p.name))
    if p.has_tails:
        tail = _rank2_tail(p)
        if tail is None:
            raise FamilyError(
                "stratification supports tail-free presentations and the "
                "rank-2 single-tail family only"
            )
        rs = stratify_rank2(tail)
        out.append(f"u = {rs.uNormalForm}")
        excl = ", ".join(str(v) for v in rs.exceptionalSet)
        out.append(f"exceptional parameter values: {{{excl}}}")
        if rs.residualFactor is not None:
            out.append(f"residual factor: {rs.residualFactor}")
        if rs.weylAtOne:
            out.append("at q = 1 the fiber is a Weyl algebra")
        for s in rs.strata:
            out.append(f"{s.label}: {s.description}")
        report.append(("u", str(rs.uNormalForm)))
        report.append(("exceptional", f"{{{excl}}}"))
        report.append(("strata", "M1, M2"))
        return 0
    strata = stratify_affine(p)
    out.append(f"strata: {len(strata)}")
    report.append(("strata", str(len(strata))))
    for idx, s in enumerate(strata, 1):
        comp = ", ".join(str(i) for i in s.composition)
        vanish = ", ".join(s.vanishing) or "-"
        invert = ", ".join(s.inverted) or "-"
        out.append(
            f"({comp}): vanish {{{vanish}}}, invert {{{invert}}}, "
            f"torus rank {s.torus.rank}"
        )
        report.append((f"stratum.{idx:02d}.composition", f"({comp})"))
        report.append((f"stratum.{idx:02d}.vanishing", f"{{{vanish}}}"))
        report.append((f"stratum.{idx:02d}.inverted", f"{{{invert}}}"))
    return 0


def _parse_assignments(pairs):
    values = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ParseError(
                f"--param expects NAME=VALUE, got {pair!r}", 0, 0
            )
        name, _, raw = pair.partition("=")
        name = name.strip()
        raw = raw.strip()
        try:
            if "/" in raw:
                num, den = raw.split("/")
                values[name] = Fraction(int(num), int(den))
            else:
                values[name] = Fraction(int(raw))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"invalid value {raw!r} for {name}", 0, 0)
    return values


def _cmd_specialize(args, out, report):
    p = parse_presentation(_load(args.file))
    values = _parse_assignments(args.param)
    if args.root_of_unity is not None:
        exponents = {name: int(v) for name, v in values.items()}
        for name in p.params:
            exponents.setdefault(name, 1)
        target = SpecTarget.cyclotomic(args.root_of_unity, exponents)
    elif values:
        target = SpecTarget.rational(values)
    else:
        # no assignment given: check the generic point
        target = SpecTarget.transcendental()
    sp = specialize_presentation(p, target)
    report.append(("algebra", p.name))
    report.append(("target", repr(target)))
    out.append(f"target: {target!r}")
    if sp.findings.findings:
        for idx, f in enumerate(sp.findings.findings, 1):
            tag = "note" if f.severity != "error" else "FAIL"
            text = f"{f.message} [{f.location}]"
            out.append(f"{f.condition} {tag}: {text}")
            report.append((f"finding.{idx:02d}.{f.condition}", text))
    else:
        out.append("all checks pass at the target")
    report.append(("passed", str(sp.passed).lower()))
    return 0 if sp.passed else 1


def _cmd_compositions(args, out, report):
    from .strat import admissible_compositions

    if args.n < 0:
        raise ParseError("n must be nonnegative", 0, 0)
    comps = admissible_compositions(args.n)
    for comp in comps:
        out.append("(" + ", ".join(str(i) for i in comp) + ")")
    out.append(f"count: {len(comps)}")
    report.append(("n", str(args.n)))
    report.append(("count", str(len(comps))))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qsolv",
        description="q-solvable algebra toolkit: validation, weights, "
        "conjugation spectra, torus centers, stratification, "
        "specialization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=handler)
        sp.add_argument("--out", metavar="PATH",
                        help="also write a key:value report file")
        return sp

    v = add("validate", _cmd_validate, help="check conditions Q1-Q3")
    v.add_argument("file")
    w = add("weights", _cmd_weights, help="split an element by weight")
    w.add_argument("file")
    w.add_argument("element")
    a = add("adjoint", _cmd_adjoint,
            help="conjugation spectrum in a localization")
    a.add_argument("file")
    a.add_argument("xgen", help="generator to localize at")
    a.add_argument("element")
    a.add_argument("--degree-cap", type=int, default=16, metavar="K")
    c = add("center", _cmd_center, help="center of a torus presentation")
    c.add_argument("file")
    s = add("stratify", _cmd_stratify, help="stratify the prime spectrum")
    s.add_argument("file")
    e = add("specialize", _cmd_specialize,
            help="push parameters into a field and re-validate")
    e.add_argument("file")
    e.add_argument("--param", action="append", metavar="NAME=VALUE")
    e.add_argument("--root-of-unity", type=int, metavar="N")
    k = add("compositions", _cmd_compositions,
            help="list stratum index compositions")
    k.add_argument("n", type=int)
    return parser


def run_command(argv):
    """Execute one CLI invocation; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = []
    report = [("command", args.command)]
    try:
        status = args.handler(args, out, report)
    except ParseError as exc:
        if exc.line:
            print(f"parse error at line {exc.line}, column {exc.column}: "
                  f"{exc.message}", file=sys.stderr)
        else:
            print(f"error: {exc.message}", file=sys.stderr)
        return 2
    except FamilyError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except SpecializationError as exc:
        print(f"specialization error: {exc}", file=sys.stderr)
        return 1
    except QsolvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in out:
        print(line)
    report.append(("status", str(status)))
    if args.out:
        _report_write(args.out, report)
    return status


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
