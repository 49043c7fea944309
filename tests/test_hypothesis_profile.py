"""A failing property over drawn presentations reports its example.

Hypothesis's explain phase can fail inside its own shrinker on
placed_presentations() with a second drawn argument, and the test then
ends on ``assert span1.start <= start`` without a falsifying example.
An inner project with the repository's conftest, pytest settings and one
always-failing property over those presentations must print it.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")
pytest.importorskip("hypothesis")

pytest_plugins = ["pytester"]

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


def test_failing_drawn_presentation_property_prints_its_example(pytester):
    with (ROOT / "pyproject.toml").open("rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini(f"[pytest]\npythonpath = {ROOT / 'src'} {TESTS}\n"
                     "filterwarnings =\n"
                     + "".join(f"    {line}\n" for line in filters))
    pytester.makeconftest((TESTS / "conftest.py").read_text())
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        from test_adjoint_oracle import placed_presentations

        @settings(deadline=None, derandomize=True)
        @given(p=placed_presentations(), seed=st.integers(0, 2**16))
        def test_fails(p, seed):
            assert p.n > 5
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*"])
    result.stdout.no_fnmatch_line("*span1.start*")
