"""The repository's pytest warning filters keep a failing session going.

pyproject.toml turns every warning into an error.  When a hypothesis test
fails, hypothesis's report imports mypy_extensions.TypedDict, whose
DeprecationWarning would then abort the whole session from inside a
reporting hook.  An inner project with the same filters, one failing
@given test and one passing test, must report both.
"""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")
pytest.importorskip("hypothesis")

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_hypothesis_test_does_not_abort_the_session(pytester):
    with PYPROJECT.open("rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n"
                     + "".join(f"    {line}\n" for line in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
