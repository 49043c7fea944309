"""The presentation parser against its printer, and its diagnostics.

Printing then parsing must give back every field of the presentation.
The malformed inputs below keep the message, line and column that the
token-object parser reported before the parser read plain string tokens.
"""

from pathlib import Path

import pytest

from qsolv import (
    LaurentPoly,
    ParseError,
    UnitMonomial,
    quantum_affine,
    quantum_matrices,
    quantum_plane,
    quantum_weyl,
    rank2,
)
from qsolv.cli import parse_element, parse_presentation, print_presentation

DATA = Path(__file__).parent / "data"
Q = LaurentPoly.var(("q",), "q")

BUILT = (
    [quantum_matrices(n) for n in range(2, 9)]
    + [quantum_weyl(n) for n in range(1, 4)]
    + [quantum_affine(n) for n in range(2, 7)]
    + [rank2((Q - 3) * (Q ** 2 + 1) - 7)]
)
FIELDS = ("name", "params", "gens", "n", "m", "tails", "qskew", "hweights")


def assert_same_fields(a, b):
    for field in FIELDS:
        assert getattr(a, field) == getattr(b, field), field
    for pair, terms in a.tails.items():
        for key, coef in terms.items():
            assert coef.params == a.params
            assert coef.terms == b.tails[pair][key].terms
    # the printer leaves out commutation scalars equal to 1
    total = len(a.gens)
    assert [[a.commutation_unit(i, j) for j in range(total)] for i in range(total)] \
        == [[b.commutation_unit(i, j) for j in range(total)] for i in range(total)]
    assert {k: u for k, u in a.qmat.items() if not u.is_one()} \
        == {k: u for k, u in b.qmat.items() if not u.is_one()}
    assert a == b


@pytest.mark.parametrize("p", BUILT, ids=lambda p: p.name)
def test_built_family_round_trip(p):
    assert_same_fields(parse_presentation(print_presentation(p)), p)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.alg")), ids=lambda path: path.stem)
def test_fixture_round_trip(path):
    p = parse_presentation(path.read_text())
    text = print_presentation(p)
    assert_same_fields(parse_presentation(text), p)
    assert print_presentation(parse_presentation(text)) == text


def test_slashes_comments_and_blanks_change_nothing():
    p = quantum_matrices(3)
    lines = print_presentation(p).splitlines()
    packed = "\n".join(
        ["  " + lines[0] + "\t# header", "", *(" / ".join(lines[k:k + 3])
                                               for k in range(1, len(lines), 3))]
    )
    assert_same_fields(parse_presentation(packed), p)


H = "algebra A\nparams q, r\ngens x poly, y poly, z poly, k laurent\n"

# (source, message, line, column)
MALFORMED = [
    ("", "empty presentation file", 1, 1),
    ("# only a comment\n   \n", "empty presentation file", 1, 1),
    ("algebra\n", "expected algebra name", 1, 8),
    ("algebra A B\n", "trailing input after the header", 1, 11),
    ("algebra A\nparams q\n", "missing gens line", 1, 1),
    ("algebra A\ngens x poly\nparams q\n", "params must be declared before generators", 3, 1),
    ("algebra A\nparams q, q\ngens x poly\n", "repeated parameter name", 2, 1),
    ("algebra A\nparams q,\ngens x poly\n", "expected parameter name", 2, 10),
    ("algebra A\ngens x poly, y\n", 'expected "poly" or "laurent"', 2, 15),
    ("algebra A\ngens x ring\n", 'generator kind must be "poly" or "laurent"', 2, 8),
    ("algebra A\ngens k laurent, x poly\n",
     "polynomial generators must precede invertible ones", 2, 17),
    ("algebra A @\n", "unexpected character '@'", 1, 11),
    ("algebra A\ngens x poly  \t$\n", "unexpected character '$'", 2, 15),
    ("algebra A\ngens _x poly\n", "unexpected character '_'", 2, 6),
    ("algebra A\ngens x poly, 1_y poly\n", "unexpected character '_'", 2, 15),
    ("algebra A\ngens x poly / gens y poly\n", "duplicate gens line", 2, 15),
    # numerals are ASCII digits; a fullwidth or Arabic-Indic digit used to
    # read as its value
    (H + "commute x y : q^\uff13\n", "unexpected character '\uff13'", 4, 17),
    (H + "commute x y : q^\u0663\n", "unexpected character '\u0663'", 4, 17),
    (H + "commute x y : q^1\uff12\n", "unexpected character '\uff12'", 4, 18),
    (H + "qskew \uff11 : q\n", "unexpected character '\uff11'", 4, 7),
    (H + "tail x y : \uff13*z\n", "unexpected character '\uff13'", 4, 12),
    (H + "tail x y : 1/\u0662*z\n", "unexpected character '\u0662'", 4, 14),
    ("algebra A\ncommute x y : q\n", "generators must be declared before this line", 2, 1),
    (H + "commute x y : s\n", "unknown parameter 's'", 4, 15),
    (H + "commute y x : q\n", "commute pairs are written in declaration order", 4, 9),
    (H + "commute x w : q\n", "unknown generator 'w'", 4, 11),
    (H + "commute x y q\n", "expected ':'", 4, 13),
    (H + "commute x y :\n", "expected parameter name", 4, 14),
    (H + "commute x y : q^\n", "expected exponent", 4, 17),
    (H + "commute x y : q^x\n", "expected exponent", 4, 17),
    (H + "commute x y : q * \n", "expected parameter name", 4, 18),
    (H + "commute x y : q\ncommute x y : r\n", "duplicate commute entry for x y", 5, 1),
    (H + "commute x y : 2\n", "expected parameter name", 4, 15),
    (H + "commute x y : q r\n", "trailing input after the statement", 4, 17),
    (H + "tail x y : x*z\n",
     "tail may not involve 'x'; only later generators are allowed", 4, 12),
    (H + "tail x y : z*y\n",
     "tail monomials are written in basis order, each generator at most once", 4, 14),
    (H + "tail x y : y^-1\n", "polynomial generators take nonnegative exponents", 4, 12),
    (H + "tail y x : 1\n", "tails attach to an ordered pair of polynomial generators", 4, 6),
    (H + "tail x k : 1\n", "tails attach to an ordered pair of polynomial generators", 4, 6),
    (H + "tail x y : 1/2*w\n", "unknown name 'w'", 4, 16),
    (H + "tail x y : +\n", "expected a coefficient or a factor", 4, 12),
    (H + "tail x y : 2 3\n", "trailing input after the statement", 4, 14),
    (H + "tail x y : q*y*y\n",
     "tail monomials are written in basis order, each generator at most once", 4, 16),
    (H + "qskew 0 : q\n", "qskew index 0 out of range 1..3", 4, 7),
    (H + "qskew 4 : q\n", "qskew index 4 out of range 1..3", 4, 7),
    (H + "qskew 1 : q\nqskew 1 : r\n", "duplicate qskew entry for index 1", 5, 1),
    (H + "qskew x : q\n", "expected generator index", 4, 7),
    (H + "weight 1 w : q\n", "unknown generator 'w'", 4, 10),
    (H + "weight 1 y : q\nweight 1 y : r\n", "duplicate weight entry for 1 y", 5, 1),
    (H + "weight 9 y : q\n", "weight index 9 out of range 1..3", 4, 8),
    (H + "frobnicate\n", "unknown statement 'frobnicate'", 4, 1),
    (H + "commute x y : q # comment\ncommute x z : -1*r^-2 / qskew 2 : q*q extra\n",
     "trailing input after the statement", 5, 39),
    (H + "commute x y : q\t\t\n  tail x z : y^2 - \n", "expected a coefficient or a factor", 5, 19),
]

# (element text over the quantum plane, message, line, column)
MALFORMED_ELEMENTS = [
    ("x +", "expected a coefficient or a factor", 1, 4),
    ("x * w", "unknown name 'w'", 1, 5),
    ("x^-1", "polynomial generators take nonnegative exponents", 1, 1),
    ("x / y", "expected a single element expression", 1, 1),
    ("x y", "trailing input after the expression", 1, 3),
    ("", "expected a single element expression", 1, 1),
    ("x @ y", "unexpected character '@'", 1, 3),
    ("x^\uff12", "unexpected character '\uff12'", 1, 3),
    ("\u0663*y", "unexpected character '\u0663'", 1, 1),
]


@pytest.mark.parametrize("src, message, line, column", MALFORMED)
def test_malformed_presentation(src, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_presentation(src)
    assert (info.value.message, info.value.line, info.value.column) == (message, line, column)


@pytest.mark.parametrize("text, message, line, column", MALFORMED_ELEMENTS)
def test_malformed_element(text, message, line, column):
    with pytest.raises(ParseError) as info:
        parse_element(quantum_plane(), text)
    assert (info.value.message, info.value.line, info.value.column) == (message, line, column)


def test_units_add_repeated_factors():
    p = parse_presentation(H + "commute x y : -1*q*r^2*q^-3\ncommute x z : 1*q\n")
    assert p.commutation_unit(0, 1) == UnitMonomial(("q", "r"), -1, (-2, 2))
    assert p.commutation_unit(0, 2) == UnitMonomial(("q", "r"), 1, (1, 0))


def test_tail_like_terms_collect():
    p = parse_presentation(H + "tail x y : q*z + 2*z - q*z + 1/2 - 1/2\n")
    assert p.tails == {(0, 1): {(0, 0, 1, 0): LaurentPoly.const(p.params, 2)}}
    empty = parse_presentation(H + "tail x y : z - z\n")
    assert empty.tails == {}
