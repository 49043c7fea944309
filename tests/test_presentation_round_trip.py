"""Print then parse over drawn presentations.

The drawn presentations are the adjoint oracle's: two or three
polynomial letters, at most one invertible letter, random commutation
scalars in q and p, and one or two tails placed after their pair's first
generator.  Parsing the printed text must give back an equal
presentation with every field the same, and printing that must give the
same text.  Elements are left out: the element grammar has no brackets,
so a printed coefficient such as (2*c + 1)*x does not parse back.
"""

import pytest

from qsolv.cli import parse_presentation, print_presentation
from test_parser_oracle import assert_same_fields

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from test_adjoint_oracle import placed_presentations  # noqa: E402


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=placed_presentations())
def test_drawn_presentations_round_trip(p):
    text = print_presentation(p)
    back = parse_presentation(text)
    assert_same_fields(p, back)
    assert print_presentation(back) == text
