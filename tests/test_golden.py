"""Golden transcripts of `qsolv validate`, `specialize`, `stratify` and
`adjoint`.

Each ``tests/data/NAME.alg`` has a ``NAME.golden`` beside it that holds,
for every command run on the file, the command line, the exact stdout,
the stderr of a run that exits nonzero (each line behind ``stderr: ``),
the exit code and the ``--out`` report of the same run (each line behind
``report: ``; none when the run writes no report):

    $ qsolv specialize NAME.alg --param q=2
    target: SpecTarget(rational: q=2)
    all checks pass at the target
    exit 0
    report: algebra: NAME
    report: command: specialize
    report: passed: true
    report: status: 0
    report: target: SpecTarget(rational: q=2)

    $ qsolv stratify NAME.alg
    stderr: unsupported: ...
    exit 3

After a deliberate output change, rewrite the transcripts with
``PYTHONPATH=src python tests/test_golden.py`` and review their diff.
"""

import io
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qsolv.cli import parse_presentation, run_command

DATA = Path(__file__).parent / "data"
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
PROMPT = "$ qsolv "
STDERR = "stderr: "
REPORT = "report: "
# (localized generator, element) of the adjoint runs, by fixture stem
ADJOINT = {
    "weyl1": (("y", "x^5"), ("x", "y^3"),
              # x^5 needs degree 6, so this run stops at the cap
              ("y", "x^5", "--degree-cap", "5")),
    "weyl2": (("y1", "x1"),),
    "matrices2": (("a22", "a11"),),
    "matrices3": (("a11", "a33"),
                  # nf_mul is not associative on this family (ROADMAP item 2)
                  ("a12", "a33^2 + a22")),
    "jordan": (("x", "y"),),
}


def commands(path):
    """validate, then specialize at the generic point, at distinct primes,
    at -1 and at a primitive sixth root of unity, then stratify and the
    file's adjoint runs."""
    params = parse_presentation(path.read_text()).params
    # a file without parameters still gets a rational run, which shows
    # that an assignment to an undeclared name is refused
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
    """(stdout, stderr, exit code, report) of one in-process qsolv call on
    a data file with ``--out``; stderr is kept only when the exit code is
    nonzero, and the report is "" when the run writes none."""
    cmd, name, *rest = argv
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.txt"
        with redirect_stdout(out), redirect_stderr(err):
            status = run_command([cmd, str(DATA / name), *rest, "--out", str(report)])
        written = report.read_text() if report.exists() else ""
    return out.getvalue(), err.getvalue() if status else "", status, written


def transcript(argv):
    out, err, status, report = run(argv)
    err = "".join(STDERR + line for line in err.splitlines(keepends=True))
    report = "".join(REPORT + line for line in report.splitlines(keepends=True))
    return f"{PROMPT}{shlex.join(argv)}\n{out}{err}exit {status}\n{report}"


def read_golden(path):
    """[(argv, stdout, stderr, exit code, report)] in file order."""
    entries = []
    for block in path.read_text().split(PROMPT)[1:]:
        head, _, body = block.partition("\n")
        lines = body.rstrip("\n").split("\n")
        end = len(lines)
        while lines[end - 1].startswith(REPORT):
            end -= 1
        report = "".join(line[len(REPORT):] + "\n" for line in lines[end:])
        lines = lines[:end]
        assert lines[-1].startswith("exit "), f"{path.name}: {head}"
        lines, status = lines[:-1], int(lines[-1][5:])
        cut = len(lines)
        while status and cut and lines[cut - 1].startswith(STDERR):
            cut -= 1
        stdout = "".join(line + "\n" for line in lines[:cut])
        stderr = "".join(line[len(STDERR):] + "\n" for line in lines[cut:])
        entries.append((shlex.split(head), stdout, stderr, status, report))
    return entries


CASES = [
    pytest.param(argv, stdout, stderr, status, report, id=shlex.join(argv))
    for golden in sorted(DATA.glob("*.golden"))
    for argv, stdout, stderr, status, report in read_golden(golden)
]


def test_every_fixture_has_a_transcript():
    stems = {p.stem for p in DATA.glob("*.alg")}
    assert stems and stems == {p.stem for p in DATA.glob("*.golden")}
    for alg in DATA.glob("*.alg"):
        recorded = [entry[0] for entry in read_golden(alg.with_suffix(".golden"))]
        assert recorded == commands(alg)


@pytest.mark.parametrize("argv, stdout, stderr, status, report", CASES)
def test_golden_transcript(argv, stdout, stderr, status, report):
    assert run(argv) == (stdout, stderr, status, report)


def test_tail_order_does_not_change_output():
    first = read_golden(DATA / "tails_xy_first.golden")
    second = read_golden(DATA / "tails_yz_first.golden")
    assert [entry[1:] for entry in first] == [entry[1:] for entry in second]
    for argv, *_ in first:
        other = [argv[0], "tails_yz_first.alg", *argv[2:]]
        assert run(argv) == run(other)


def regenerate():
    for alg in sorted(DATA.glob("*.alg")):
        text = "\n".join(transcript(argv) for argv in commands(alg))
        alg.with_suffix(".golden").write_text(text)
        print(f"wrote {alg.with_suffix('.golden').name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
