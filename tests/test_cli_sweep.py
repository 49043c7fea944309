"""A randomized sweep of the qsolv command line, run in-process.

Each example writes an algebra file, a fixture from tests/data with up
to three line or token mutations, and runs one of the seven commands on
it with generated arguments.  Every run must end in an exit code (0
done, 1 a failed check or computation, 2 bad input, 3 unsupported), or
in argparse's SystemExit(2) for a malformed command line; no other
exception may escape.  Exponents stay at most 3, --degree-cap at most 5
and compositions n at most 8, so every run is quick.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from qsolv.cli import parse_presentation, run_command  # noqa: E402

DATA = Path(__file__).parent / "data"
SOURCES = [path.read_text() for path in sorted(DATA.glob("*.alg"))]
# (text, parameter names, generator names) of each fixture
FIXTURES = [(text, p.params, p.gens)
            for text, p in zip(SOURCES, map(parse_presentation, SOURCES))]
TOKEN_RE = re.compile(r"\s+|\w+|\S")
EXPONENT_RE = re.compile(r"\^\s*-?\s*(\d+)")
NAMES = sorted({name for text in SOURCES for name in re.findall(r"[A-Za-z]\w*", text)})
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def mutated(draw, text):
    """The text with up to three edits, none in half the draws: a line
    dropped, doubled or cut short, or one token replaced."""
    lines = text.splitlines()
    edits = draw(st.integers(1, 3)) if draw(st.booleans()) else 0
    for _ in range(edits):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "double", "cut", "token"]))
        if edit == "drop":
            del lines[k]
        elif edit == "double":
            lines.insert(k, lines[k])
        elif edit == "cut":
            lines[k] = lines[k][:draw(st.integers(0, len(lines[k])))]
        else:
            tokens = TOKEN_RE.findall(lines[k])
            if tokens:
                t = draw(st.integers(0, len(tokens) - 1))
                tokens[t] = draw(st.sampled_from(
                    [*NAMES, "0", "1", "2", "3", "-1", "1/2", "^", "*", "+", "-",
                     ":", ",", "poly", "laurent", ""]))
                lines[k] = "".join(tokens)
    return "\n".join(lines) + "\n"


def elements(gens):
    """Sums of products of generator powers, exponents 0..3, or a few
    malformed texts."""
    factor = st.builds("{}^{}".format, st.sampled_from(gens), st.integers(0, 3))
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    return st.lists(term, min_size=1, max_size=3).map(" + ".join) | st.sampled_from(
        ["0", "1", "", "x^-1", "x +", "2*y", "(x)", "nope"])


def arguments(path, params, gens):
    """argv for one of the seven commands on this file."""
    gen = st.sampled_from([*gens, "nope"])
    param = st.builds("{}={}".format, st.sampled_from([*params, "nope"]),
                      st.sampled_from(["2", "-1", "0", "1/3", "x"])) | st.just("q")
    element = elements(gens)
    return st.one_of(
        st.just(["validate", path]),
        element.map(lambda e: ["weights", path, e]),
        st.tuples(gen, element, st.integers(-1, 5)).map(
            lambda a: ["adjoint", path, a[0], a[1], "--degree-cap", str(a[2])]),
        st.just(["center", path]),
        st.just(["stratify", path]),
        st.tuples(st.lists(param, max_size=3), st.none() | st.integers(-1, 8)).map(
            lambda a: ["specialize", path, *(w for p in a[0] for w in ("--param", p)),
                       *(() if a[1] is None else ("--root-of-unity", str(a[1])))]),
        st.sampled_from(["-2", "0", "5", "8", "x"]).map(lambda n: ["compositions", n]),
        st.lists(st.sampled_from(["validate", path, "--out", "-x", "adjoint"]),
                 max_size=3),
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep")


@SETTINGS
@given(data=st.data())
def test_commands_exit_with_a_status(workdir, data):
    source, params, gens = data.draw(st.sampled_from(FIXTURES))
    text = data.draw(mutated(source))
    assume(all(int(e) <= 3 for e in EXPONENT_RE.findall(text)))
    path = workdir / "sweep.alg"
    path.write_text(text)
    argv = data.draw(arguments(str(path), params, gens))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            status = run_command(argv)
        except SystemExit as exc:
            status = ("argparse", exc.code)
    assert status in (0, 1, 2, 3, ("argparse", 2)), (argv, text)
