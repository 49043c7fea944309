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

from .errors import (
    FamilyError,
    ParseError,
    PresentationError,
    QsolvError,
    RepeatedRootError,
    SpecializationError,
)
from .params import LaurentPoly, UnitMonomial, monomial_text, signed_sum, term_text
from .presentation import Presentation, validate_presentation

# -- tokenizer --------------------------------------------------------------

# A token is a fraction or an integer, a name or an operator; blanks
# separate tokens.  Tokens are kept as plain strings, their kind read off
# the first character, and positions are worked out only for an error.
# Numerals are ASCII digits: another script's digit is no token.
_TOKEN_RE = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z][A-Za-z0-9_]*|[*^+\-,:/()]")
# A --param value, and an integer option or argument, in the same digits
_VALUE_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_INTEGER_RE = re.compile(r"-?[0-9]+")


def _tokenize(text):
    """One cursor per statement, each line split into tokens by a single
    regex pass.  A lone '/' splits statements within a physical line;
    '1/2' without spaces stays a fraction."""
    statements = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        tokens = _TOKEN_RE.findall(body)
        # findall skips what no token matches: anything but a blank is an error
        if sum(map(len, tokens)) + body.count(" ") + body.count("\t") != len(body):
            _bad_character(body, lineno)
        if "/" not in tokens:
            if tokens:
                statements.append(_Cursor(tokens, lineno, body, 0))
            continue
        first = 0
        for k, tok in enumerate(tokens + ["/"]):
            if tok == "/":
                if k > first:
                    statements.append(_Cursor(tokens[first:k], lineno, body, first))
                first = k + 1
    return statements


def _bad_character(body, lineno):
    pos = 0
    while True:
        pos = len(body) - len(body[pos:].lstrip(" \t"))
        m = _TOKEN_RE.match(body, pos)
        if m is None:
            raise ParseError(f"unexpected character {body[pos]!r}", lineno, pos + 1)
        pos = m.end()


class _Cursor:
    """Sequential reader over one statement's tokens.

    The statement is ``tokens``, which start at token ``first`` of the
    text ``body`` of line ``line``.
    """

    __slots__ = ("tokens", "pos", "line", "body", "first")

    def __init__(self, tokens, line, body, first):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.body = body
        self.first = first

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def done(self):
        return self.pos >= len(self.tokens)

    def error(self, message, index=None):
        """A ParseError at token ``index`` of the statement (by default
        the next one), or just after the last token when there is none."""
        index = self.pos if index is None else index
        spans = [m.span() for m in _TOKEN_RE.finditer(self.body)]
        if index < len(self.tokens):
            column = spans[self.first + index][0] + 1
        else:
            column = spans[self.first + len(self.tokens) - 1][1] + 1
        return ParseError(message, self.line, column)

    def accept(self, text):
        """Step over the next token if it is ``text``."""
        if self.pos < len(self.tokens) and self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def take(self, text, what):
        if not self.accept(text):
            raise self.error(f"expected {what}")

    def name(self, what):
        t = self.peek()
        if t is None or not t[0].isalpha():
            raise self.error(f"expected {what}")
        self.pos += 1
        return t

    def integer(self, what):
        t = self.peek()
        if t is None or not t.isdigit():
            raise self.error(f"expected {what}")
        self.pos += 1
        return int(t)


def _parse_int(cur, what):
    sign = -1 if cur.accept("-") else 1
    return sign * cur.integer(what)


def _parse_unit(cur, params, pindex):
    """UNITEXPR: optional sign, then NAME^INT factors joined by '*', or a
    literal 1.  The exponents add up in one list, by parameter position."""
    sign = -1 if cur.accept("-") else 1
    exps = [0] * len(params)
    if not cur.accept("1") or cur.accept("*"):
        while True:
            name = cur.name("parameter name")
            pos = pindex.get(name)
            if pos is None:
                raise cur.error(f"unknown parameter {name!r}", cur.pos - 1)
            exps[pos] += _parse_int(cur, "exponent") if cur.accept("^") else 1
            if not cur.accept("*"):
                break
    return UnitMonomial(params, sign, tuple(exps))


def _rational_literal(text, error):
    """INT or INT/INT as a Fraction; a zero denominator raises
    ``error("zero denominator")``."""
    num, slash, den = text.partition("/")
    den = int(den) if slash else 1
    if not den:
        raise error("zero denominator")
    return Fraction(int(num), den)


def _parse_rational(cur):
    t = cur.peek()
    if t is None or not t[0].isdigit():
        return None
    value = _rational_literal(t, cur.error)
    cur.pos += 1
    return value


def _parse_term(cur, pindex, gen_positions):
    """One POLYEXPR term: optional rational, then '*'-joined factors of
    parameter or generator powers.  Returns (Fraction, parameter exponent
    map by position, generator factors in written order as (position,
    power, token index))."""
    coef = _parse_rational(cur)
    pexps = {}
    gfactors = []
    if coef is None or cur.accept("*"):
        while True:
            t = cur.peek()
            if t is None or not t[0].isalpha():
                if coef is None and not (pexps or gfactors):
                    raise cur.error("expected a coefficient or a factor")
                break
            at = cur.pos
            cur.pos += 1
            power = _parse_int(cur, "exponent") if cur.accept("^") else 1
            if t in pindex:
                pos = pindex[t]
                pexps[pos] = pexps.get(pos, 0) + power
            elif t in gen_positions:
                gfactors.append((gen_positions[t], power, at))
            else:
                raise cur.error(f"unknown name {t!r}", at)
            if not cur.accept("*"):
                break
    return (coef if coef is not None else Fraction(1)), pexps, gfactors


def _parse_polyexpr(cur, pindex, gen_positions):
    """POLYEXPR as a list of (coef, param exps, gen factor list) terms."""
    terms = []
    negate = cur.accept("-")
    while True:
        coef, pexps, gfactors = _parse_term(cur, pindex, gen_positions)
        terms.append((-coef if negate else coef, pexps, gfactors))
        if cur.accept("+"):
            negate = False
        elif cur.accept("-"):
            negate = True
        else:
            break
    return terms


def _param_exps(pexps, width):
    exps = [0] * width
    for pos, power in pexps.items():
        exps[pos] = power
    return tuple(exps)


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

    cur = statements[0]
    cur.take("algebra", 'the keyword "algebra"')
    name = cur.name("algebra name")
    if not cur.done():
        raise cur.error("trailing input after the header")

    params = ()
    pindex = {}
    gens = []
    npoly = 0
    gen_positions = {}
    qmat = {}
    tails = {}
    qskew = {}
    weights = {}

    def generators(cur, count):
        """Positions of the generators named by the next ``count`` tokens,
        all read before any is looked up."""
        at = cur.pos
        names = [cur.name("generator name") for _ in range(count)]
        for k, gname in enumerate(names, at):
            if gname not in gen_positions:
                raise cur.error(f"unknown generator {gname!r}", k)
        return [gen_positions[g] for g in names]

    for cur in statements[1:]:
        head = cur.name("a statement keyword")
        if head in ("commute", "tail", "qskew", "weight") and not gens:
            raise cur.error("generators must be declared before this line", 0)
        if head == "params":
            if params:
                raise cur.error("duplicate params line", 0)
            if gens:
                raise cur.error("params must be declared before generators", 0)
            names = [cur.name("parameter name")]
            while cur.accept(","):
                names.append(cur.name("parameter name"))
            if len(set(names)) != len(names):
                raise cur.error("repeated parameter name", 0)
            params = tuple(names)
            pindex = {p: k for k, p in enumerate(params)}
        elif head == "gens":
            if gens:
                raise cur.error("duplicate gens line", 0)
            seen_laurent = False
            while True:
                at = cur.pos
                gname = cur.name("generator name")
                kind = cur.name('"poly" or "laurent"')
                if kind not in ("poly", "laurent"):
                    raise cur.error(
                        'generator kind must be "poly" or "laurent"', at + 1
                    )
                if gname in gen_positions or gname in pindex:
                    raise cur.error(f"name {gname!r} already in use", at)
                if kind == "poly":
                    if seen_laurent:
                        raise cur.error(
                            "polynomial generators must precede invertible "
                            "ones", at,
                        )
                    npoly += 1
                else:
                    seen_laurent = True
                gen_positions[gname] = len(gens)
                gens.append(gname)
                if not cur.accept(","):
                    break
        elif head == "commute":
            a, b = generators(cur, 2)
            if a >= b:
                raise cur.error(
                    "commute pairs are written in declaration order", 1
                )
            if (a, b) in qmat:
                raise cur.error(
                    f"duplicate commute entry for {gens[a]} {gens[b]}", 0
                )
            cur.take(":", "':'")
            qmat[(a, b)] = _parse_unit(cur, params, pindex)
        elif head == "tail":
            i, j = generators(cur, 2)
            if not (i < j < npoly):
                raise cur.error(
                    "tails attach to an ordered pair of polynomial "
                    "generators", 1,
                )
            if (i, j) in tails:
                raise cur.error(
                    f"duplicate tail entry for {gens[i]} {gens[j]}", 0
                )
            cur.take(":", "':'")
            terms = _parse_polyexpr(cur, pindex, gen_positions)
            tails[(i, j)] = _tail_terms(cur, terms, params, npoly, len(gens), i)
        elif head in ("qskew", "weight"):
            idx = cur.integer("generator index")
            if not 1 <= idx <= npoly:
                raise cur.error(
                    f"{head} index {idx} out of range 1..{npoly}", 1
                )
            if head == "qskew":
                key = idx - 1
                table, entry = qskew, f"index {idx}"
            else:
                (g,) = generators(cur, 1)
                key = (idx - 1, g)
                table, entry = weights, f"{idx} {gens[g]}"
            if key in table:
                raise cur.error(f"duplicate {head} entry for {entry}", 0)
            cur.take(":", "':'")
            table[key] = _parse_unit(cur, params, pindex)
        else:
            raise cur.error(f"unknown statement {head!r}", 0)
        if not cur.done():
            raise cur.error("trailing input after the statement")

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


def _tail_terms(cur, terms, params, npoly, width, i):
    """Fold parsed POLYEXPR terms into a tail coefficient table, checking
    basis order and placement."""
    table = {}
    for coef, pexps, gfactors in terms:
        key = [0] * width
        last = -1
        for pos, power, at in gfactors:
            if pos <= i and pos < npoly:
                raise cur.error(
                    f"tail may not involve {cur.tokens[at]!r}; only later "
                    "generators are allowed", at,
                )
            if pos <= last:
                raise cur.error(
                    "tail monomials are written in basis order, each "
                    "generator at most once", at,
                )
            if pos < npoly and power < 0:
                raise cur.error(
                    "polynomial generators take nonnegative exponents", at
                )
            last = pos
            key[pos] = power
        if not coef:
            continue
        # like terms add up as coefficients, into one polynomial per key
        coefs = table.setdefault(tuple(key), {})
        exps = _param_exps(pexps, len(params))
        total = coefs.get(exps, 0) + coef
        if total:
            coefs[exps] = total
        else:
            del coefs[exps]
    return {k: LaurentPoly(params, c) for k, c in table.items() if c}


def parse_element(p, text):
    """Parse an element expression over a presentation.

    Terms add; within a term, factors multiply left to right through the
    rewriting engine, so monomials need not be written in basis order.
    """
    from .normalform import nf_mul

    statements = _tokenize(text)
    if len(statements) != 1:
        raise ParseError("expected a single element expression", 1, 1)
    cur = statements[0]
    gen_positions = {g: k for k, g in enumerate(p.gens)}
    pindex = {name: k for k, name in enumerate(p.params)}
    terms = _parse_polyexpr(cur, pindex, gen_positions)
    if not cur.done():
        raise cur.error("trailing input after the expression")
    total = p.zero()
    for coef, pexps, gfactors in terms:
        exps = _param_exps(pexps, len(p.params))
        part = p.scalar(LaurentPoly(p.params, {exps: coef}))
        for pos, power, at in gfactors:
            if pos < p.n and power < 0:
                raise cur.error(
                    "polynomial generators take nonnegative exponents", at
                )
            part = nf_mul(part, p.gen_power(pos, power))
        total = total + part
    return total


# -- canonical printing ------------------------------------------------------

def _poly_terms_str(p, terms):
    """Tail payload in the file grammar, deterministically ordered."""
    names = p.params + p.gens
    return signed_sum(
        term_text(str(coef.terms[exps]), monomial_text(names, exps + key))
        for key, coef in sorted(terms.items())
        for exps in sorted(coef.terms, reverse=True)
    )


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
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text "
                         f"({exc.reason} at byte {exc.start})", 0, 0)


# Each command returns its exit status and its rows.  A row is a stdout
# line, or None for a row that prints nothing, followed by its report
# pairs (key, value); each value is formatted once, for both outputs.

def _cmd_validate(args):
    p = parse_presentation(_load(args.file))
    result = validate_presentation(p)
    rows = []
    for cond in ("WF", "Q1", "Q2", "Q3"):
        findings = [f for f in result.findings if f.condition == cond]
        errors = [f for f in findings if f.severity == "error"]
        if errors:
            rows.append((None, (f"check.{cond}", "fail")))
            rows += [(f"{cond} FAIL: {f.message} [{f.location}]",) for f in errors]
        else:
            rows.append((f"{cond} OK", (f"check.{cond}", "ok")))
        rows += [(f"{cond} note: {f.message}",)
                 for f in findings if f.severity != "error"]
    rows.append((None, ("algebra", p.name), ("passed", str(result.passed).lower())))
    return (0 if result.passed else 1), rows


def _cmd_weights(args):
    from .weights import weight_components

    p = parse_presentation(_load(args.file))
    comps = weight_components(parse_element(p, args.element))
    count = str(len(comps))
    rows = [(f"components: {count}", ("algebra", p.name), ("components", count))]
    for idx, (weight, comp) in enumerate(comps, 1):
        wtxt, ctxt = f"({', '.join(map(str, weight))})", str(comp)
        rows.append((f"weight {wtxt}: {ctxt}", (f"component.{idx:02d}.weight", wtxt),
                     (f"component.{idx:02d}.element", ctxt)))
    return 0, rows


def _minpoly_str(coeffs):
    """The monic minimal polynomial in t, highest degree first, each lower
    coefficient in parentheses."""
    top = len(coeffs) - 1
    return signed_sum(
        term_text("1" if d == top else f"({c})", monomial_text(("t",), (d,)))
        for d, c in reversed(list(enumerate(coeffs))) if not c.is_zero()
    )


def _cmd_adjoint(args):
    from .adjoint import ad_eigencomponents

    if args.degree_cap < 0:
        raise ParseError("--degree-cap must be nonnegative", 0, 0)
    p = parse_presentation(_load(args.file))
    try:
        xidx = p.position(args.xgen)
    except PresentationError:
        raise ParseError(f"unknown generator {args.xgen!r}", 0, 0)
    element = parse_element(p, args.element)
    rows = [(None, ("algebra", p.name))]
    try:
        spec = ad_eigencomponents(p, xidx, element, args.degree_cap)
    except RepeatedRootError as exc:
        root = str(exc.root)
        rows.append((f"repeated eigenvalue {root}; no spectral split",
                     ("repeated_root", root)))
        return 1, rows
    minpoly = _minpoly_str(spec.minpoly)
    rows.append((f"minimal polynomial: {minpoly}", ("minpoly", minpoly),
                 ("degree", str(spec.degree))))
    for idx, (root, comp) in enumerate(zip(spec.roots, spec.components), 1):
        root, comp = str(root), str(comp)
        rows.append((f"eigenvalue {root}: {comp}", (f"root.{idx:02d}", root),
                     (f"component.{idx:02d}", comp)))
    return 0, rows


def _cmd_center(args):
    from .torus import center_lattice, compatible_basis, torus_of_presentation

    p = parse_presentation(_load(args.file))
    if p.n != 0:
        raise FamilyError("the center command expects a torus (all generators laurent)")
    torus = torus_of_presentation(p, range(p.m))
    G = center_lattice(torus)
    desc = compatible_basis(G, p.m, torus)
    cols = [str(list(col)) for col in G.basis]
    rows = [("G = {0}; center = C" if G.is_zero() else
             f"G = <{', '.join(cols)}>; center = C[Y^m : m in G]",
             ("algebra", p.name), ("center.rank", str(G.rank)),
             *((f"center.basis.{idx:02d}", col) for idx, col in enumerate(cols, 1)))]
    for idx, col in enumerate(desc.changeOfBasis, 1):
        col = str(list(col))
        rows.append((f"new generator {idx}: Y^{col}", (f"basis.{idx:02d}", col)))
    form = desc.quotientForm or {}
    for (a, b) in sorted(form):
        unit = str(form[(a, b)])
        rows.append((f"commutation {a + 1} {b + 1}: {unit}",
                     (f"form.{a + 1}{b + 1}", unit)))
    return 0, rows


def _cmd_stratify(args):
    from .strat import stratify_affine, stratify_rank2

    p = parse_presentation(_load(args.file))
    rows = [(None, ("algebra", p.name))]
    if p.has_tails:
        rs = stratify_rank2(p)
        u = str(rs.uNormalForm)
        excl = f"{{{', '.join(map(str, rs.exceptionalSet))}}}"
        rows += [(f"u = {u}", ("u", u), ("strata", "M1, M2")),
                 (f"exceptional parameter values: {excl}", ("exceptional", excl))]
        if rs.residualFactor is not None:
            rows.append((f"residual factor: {rs.residualFactor}",))
        if rs.weylAtOne:
            rows.append((f"at {p.params[0]} = 1 the fiber is a Weyl algebra",))
        rows += [(f"{s.label}: {s.description}",) for s in rs.strata]
        return 0, rows
    strata = stratify_affine(p)
    rows.append((f"strata: {len(strata)}", ("strata", str(len(strata)))))
    for idx, s in enumerate(strata, 1):
        comp = f"({', '.join(map(str, s.composition))})"
        vanish = f"{{{', '.join(s.vanishing) or '-'}}}"
        invert = f"{{{', '.join(s.inverted) or '-'}}}"
        rows.append((f"{comp}: vanish {vanish}, invert {invert}, "
                     f"torus rank {s.torus.rank}",
                     (f"stratum.{idx:02d}.composition", comp),
                     (f"stratum.{idx:02d}.vanishing", vanish),
                     (f"stratum.{idx:02d}.inverted", invert)))
    return 0, rows


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
        if name in values:
            raise ParseError(f"--param gives {name!r} more than once", 0, 0)
        try:
            if not _VALUE_RE.fullmatch(raw):
                raise ValueError
            values[name] = _rational_literal(raw, ValueError)
        except ValueError:
            raise ParseError(f"invalid value {raw!r} for {name}", 0, 0)
    return values


def _cmd_specialize(args):
    from .special import SpecTarget, specialize_presentation

    p = parse_presentation(_load(args.file))
    values = _parse_assignments(args.param)
    for name in values:
        if name not in p.params:
            raise ParseError(
                f"unknown parameter {name!r} in --param; declared parameters: "
                f"{', '.join(p.params) or 'none'}", 0, 0,
            )
    if args.root_of_unity is not None:
        if args.root_of_unity < 1:
            raise ParseError("--root-of-unity must be positive", 0, 0)
        exponents = {}
        for name, v in values.items():
            if v.denominator != 1:
                raise ParseError(
                    f"--root-of-unity needs an integer exponent for {name}, "
                    f"got {v}", 0, 0,
                )
            exponents[name] = v.numerator
        for name in p.params:
            exponents.setdefault(name, 1)
        target = SpecTarget.cyclotomic(args.root_of_unity, exponents)
    elif values:
        target = SpecTarget.rational(values)
    else:
        # no assignment given: check the generic point
        target = SpecTarget.transcendental()
    sp = specialize_presentation(p, target)
    target = repr(target)
    rows = [(f"target: {target}", ("algebra", p.name), ("target", target))]
    for idx, f in enumerate(sp.findings.findings, 1):
        tag = "note" if f.severity != "error" else "FAIL"
        text = f"{f.message} [{f.location}]"
        rows.append((f"{f.condition} {tag}: {text}",
                     (f"finding.{idx:02d}.{f.condition}", text)))
    if not sp.findings.findings:
        rows.append(("all checks pass at the target",))
    rows.append((None, ("passed", str(sp.passed).lower())))
    return (0 if sp.passed else 1), rows


def _cmd_compositions(args):
    from .strat import admissible_compositions

    if args.n < 0:
        raise ParseError("n must be nonnegative", 0, 0)
    if args.n > 16:
        # all 2^n compositions are built before the first line prints
        raise ParseError("n must be at most 16", 0, 0)
    comps = admissible_compositions(args.n)
    rows = [(f"({', '.join(map(str, comp))})",) for comp in comps]
    count = str(len(comps))
    rows.append((f"count: {count}", ("n", str(args.n)), ("count", count)))
    return 0, rows


def _integer(text):
    """An integer option or argument, optionally negative, in ASCII digits."""
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


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
    a.add_argument("--degree-cap", type=_integer, default=16, metavar="K")
    c = add("center", _cmd_center, help="center of a torus presentation")
    c.add_argument("file")
    s = add("stratify", _cmd_stratify, help="stratify the prime spectrum")
    s.add_argument("file")
    e = add("specialize", _cmd_specialize,
            help="push parameters into a field and re-validate")
    e.add_argument("file")
    e.add_argument("--param", action="append", metavar="NAME=VALUE")
    e.add_argument("--root-of-unity", type=_integer, metavar="N")
    k = add("compositions", _cmd_compositions,
            help="list stratum index compositions")
    k.add_argument("n", type=_integer)
    return parser


def run_command(argv):
    """Execute one CLI invocation; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status, rows = args.handler(args)
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
    for line, *_ in rows:
        if line is not None:
            print(line)
    if not args.out:
        return status
    report = [("command", args.command), ("status", str(status))]
    report += [pair for _, *pairs in rows for pair in pairs]
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key}: {value}\n" for key, value in sorted(report))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    return status


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
