"""Golden transcripts of `qsolv validate`, `specialize`, `stratify` and
`adjoint`.

Each ``tests/data/NAME.alg`` has a ``NAME.golden`` beside it that holds,
for every command run on the file, the command line, the exact stdout
and the exit code:

    $ qsolv specialize NAME.alg --param q=2
    target: SpecTarget(rational: q=2)
    all checks pass at the target
    exit 0

After a deliberate output change, rewrite the transcripts with
``PYTHONPATH=src python tests/test_golden.py`` and review their diff.
"""

import io
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from qsolv.cli import parse_presentation, run_command

DATA = Path(__file__).parent / "data"
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
PROMPT = "$ qsolv "
# (localized generator, element) of the adjoint runs, by fixture stem
ADJOINT = {
    "weyl1": (("y", "x^5"), ("x", "y^3")),
    "weyl2": (("y1", "x1"),),
    "matrices2": (("a22", "a11"),),
    "matrices3": (("a11", "a33"),),
    "jordan": (("x", "y"),),
}


def commands(path):
    """validate, then specialize at the generic point, at distinct primes,
    at -1 and at a primitive sixth root of unity, then stratify and the
    file's adjoint runs."""
    params = parse_presentation(path.read_text()).params
    # a file without parameters still takes a rational target; the
    # assignment is then unused
    names = params or ("q",)
    rational = [a for name, v in zip(names, PRIMES) for a in ("--param", f"{name}={v}")]
    minus = [a for name in params for a in ("--param", f"{name}=-1")]
    cmds = [["validate"], ["specialize"], ["specialize", *rational]]
    if minus:
        cmds.append(["specialize", *minus])
    cmds.append(["specialize", "--root-of-unity", "6"])
    cmds.append(["stratify"])
    cmds.extend(["adjoint", *args] for args in ADJOINT.get(path.stem, ()))
    return [[cmd, path.name, *rest] for cmd, *rest in cmds]


def run(argv):
    """(stdout, exit code) of one in-process qsolv call on a data file."""
    cmd, name, *rest = argv
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = run_command([cmd, str(DATA / name), *rest])
    return buf.getvalue(), status


def transcript(argv):
    out, status = run(argv)
    return f"{PROMPT}{shlex.join(argv)}\n{out}exit {status}\n"


def read_golden(path):
    """[(argv, stdout, exit code)] in file order."""
    entries = []
    for block in path.read_text().split(PROMPT)[1:]:
        head, _, body = block.partition("\n")
        lines = body.rstrip("\n").split("\n")
        assert lines[-1].startswith("exit "), f"{path.name}: {head}"
        stdout = "".join(line + "\n" for line in lines[:-1])
        entries.append((shlex.split(head), stdout, int(lines[-1][5:])))
    return entries


CASES = [
    pytest.param(argv, stdout, status, id=shlex.join(argv))
    for golden in sorted(DATA.glob("*.golden"))
    for argv, stdout, status in read_golden(golden)
]


def test_every_fixture_has_a_transcript():
    stems = {p.stem for p in DATA.glob("*.alg")}
    assert stems and stems == {p.stem for p in DATA.glob("*.golden")}
    for alg in DATA.glob("*.alg"):
        recorded = [argv for argv, _, _ in read_golden(alg.with_suffix(".golden"))]
        assert recorded == commands(alg)


@pytest.mark.parametrize("argv, stdout, status", CASES)
def test_golden_transcript(argv, stdout, status):
    assert run(argv) == (stdout, status)


def test_tail_order_does_not_change_output():
    first = read_golden(DATA / "tails_xy_first.golden")
    second = read_golden(DATA / "tails_yz_first.golden")
    assert [entry[1:] for entry in first] == [entry[1:] for entry in second]
    for argv, _, _ in first:
        other = [argv[0], "tails_yz_first.alg", *argv[2:]]
        assert run(argv) == run(other)


def regenerate():
    for alg in sorted(DATA.glob("*.alg")):
        text = "\n".join(transcript(argv) for argv in commands(alg))
        alg.with_suffix(".golden").write_text(text)
        print(f"wrote {alg.with_suffix('.golden').name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
