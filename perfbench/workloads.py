"""The four benchmark workloads: seeded inputs, timed calls, exact checks.

``build(name, q, rng, ctx)`` returns the workload's fixed list of operations
for one round.  ``q`` is a freshly imported ``qsolv`` package, so every round
starts from cold module state.  ``rng`` is seeded from ``--seed`` and draws
every input that varies with the seed; the amount of work is kept the same
for every seed.  An operation's ``run`` is the timed call into qsolv; its
``check`` judges the result by an exact identity or a verdict known from the
mathematics, never by a string recorded from qsolv itself.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial

WORKLOADS = ("products", "powers", "spectra", "sessions")

# One known defect: validate_presentation passes quantum_matrices(3), but
# nf_mul is not associative on it.  These are the generator triples with
# (a*b)*c != a*(b*c) when this benchmark was added; every other operation of
# every workload passed.  A failure outside this set makes the run incorrect;
# a triple leaving the set is a fix.
KNOWN_FAILURES = frozenset(
    f"quantum_matrices3 ({a}*{b})*{c}"
    for a, b, c in (
        ("a23", "a12", "a11"), ("a23", "a22", "a11"), ("a32", "a21", "a11"),
        ("a32", "a22", "a11"), ("a32", "a23", "a11"), ("a33", "a12", "a11"),
        ("a33", "a21", "a11"), ("a33", "a21", "a12"), ("a33", "a22", "a11"),
        ("a33", "a22", "a12"), ("a33", "a22", "a21"), ("a33", "a23", "a11"),
        ("a33", "a23", "a12"), ("a33", "a32", "a11"), ("a33", "a32", "a21"),
    )
)

# How the `qsolv` console script starts: the entry point is qsolv.cli:main.
CONSOLE_BOOT = "import sys; from qsolv.cli import main; sys.exit(main())"


class Context:
    """Where a round runs and how big it is."""

    def __init__(self, size, src_dir, work_dir, in_process):
        self.size = size              # "full", or "tiny" for the smoke test
        self.src_dir = src_dir        # the checkout's src/, holding qsolv
        self.work_dir = work_dir      # fixture files for the sessions workload
        self.in_process = in_process  # sessions call run_command instead of a process


class Op:
    """One timed operation and the exact check of its result."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def build(name, q, rng, ctx):
    ops = _BUILDERS[name](q, rng, ctx)
    rng.shuffle(ops)
    return ops


def _tiny(ctx, full, tiny):
    return tiny if ctx.size == "tiny" else full


def _scalar(rng):
    """A small nonzero integer; all of them cost the same to carry."""
    return rng.choice([-3, -2, -1, 1, 2, 3])


# -- products ---------------------------------------------------------------


def plane_torus(q):
    """The quantum plane with two invertible generators k, l and the tail
    x*y = q*y*x + k; it exercises the Laurent block of the rewriter.

    The scalars satisfy k*l = (q_yl * q_xl) * l*k, which the skew
    derivation y -> k needs for the algebra to be associative.
    """
    params = ("q",)

    def u(e):
        return q.UnitMonomial.var(params, "q", e)

    qmat = {(0, 1): u(1), (0, 2): u(1), (1, 2): u(-1),
            (0, 3): u(2), (1, 3): u(1), (2, 3): u(3)}
    return q.Presentation("plane_torus", params, ("x", "y", "k", "l"), 2,
                          qmat=qmat, tails={(0, 1): {(0, 0, 1, 0): 1}})


def _random_element(q, p, shape, coefs, max_terms=3, max_degree=3):
    """Random element in the style of acceptance criterion 1.

    ``shape`` draws the monomials and ``coefs`` their coefficients; the
    workloads pass a fixed-seed ``shape``, so the work of a run does not
    depend on ``--seed`` while every value computed does.
    """
    width = p.n + p.m
    out = p.zero()
    for _ in range(shape.randint(1, max_terms)):
        key = [0] * width
        for _ in range(shape.randint(0, max_degree)):
            key[shape.randrange(width)] += 1
        coef = q.LaurentPoly.monomial(
            p.params,
            tuple(coefs.randint(-1, 1) for _ in p.params),
            coefs.choice([-2, -1, 1, 2, 3]),
        )
        out = out + p.monomial(tuple(key), coef)
    return out


def _later_element(p, shape, coefs, site, max_exp=2):
    """Random element of the subalgebra generated after position ``site``,
    in the style of acceptance criterion 2."""
    width = p.n + p.m
    out = p.zero()
    for _ in range(shape.randint(1, 3)):
        key = [0] * width
        for g in range(site + 1, width):
            key[g] = shape.randint(0, max_exp)
        out = out + p.monomial(tuple(key), coefs.choice([-2, -1, 1, 2]))
    return out


def _ring_products(mul, a, b, c):
    ab, ac = mul(a, b), mul(a, c)
    return (mul(ab, c), mul(a, mul(b, c)),
            mul(a, b + c), ab + ac,
            mul(a + b, c), ac + mul(b, c))


def _pairs_equal(values):
    return all(values[i] == values[i + 1] for i in range(0, len(values), 2))


def _monomial_weight(q, p, key):
    """Weight of a monomial from the presentation's weight table alone."""
    out = []
    for h in range(p.n):
        w = q.UnitMonomial.one(p.params)
        for g, e in enumerate(key):
            if e:
                w = w * p.hweight(h, g).pow(e)
        out.append(w)
    return tuple(out)


def _weight_split_holds(q, p, element, parts):
    weights = [w for w, _ in parts]
    if len(set(weights)) != len(weights):
        return False
    total = p.zero()
    for w, comp in parts:
        if comp.is_zero():
            return False
        if any(_monomial_weight(q, p, key) != tuple(w) for key in comp.terms):
            return False
        total = total + comp
    return total == element


def _products(q, rng, ctx):
    families = [
        ("quantum_plane", q.quantum_plane()),
        ("quantum_weyl1", q.quantum_weyl(1)),
        ("quantum_weyl2", q.quantum_weyl(2)),
        ("quantum_matrices2", q.quantum_matrices(2)),
        ("plane_torus", plane_torus(q)),
    ]
    shape = random.Random(0)
    ops = []
    for name, p in families:
        for i in range(_tiny(ctx, 40, 2)):
            a, b, c = (_random_element(q, p, shape, rng) for _ in range(3))
            ops.append(Op(f"{name} triple {i}",
                          partial(_ring_products, q.nf_mul, a, b, c), _pairs_equal))

    # Every generator triple of quantum_matrices(3): seed-independent, so the
    # known failures count the same in every run.
    m3 = q.quantum_matrices(3)
    gens = [m3.gen(i) for i in range(m3.n)]
    triples = list(itertools.product(range(m3.n), repeat=3))
    if ctx.size == "tiny":
        triples = [(5, 1, 0), (0, 1, 2)]   # first known failure, one passing
    for a, b, c in triples:
        label = f"quantum_matrices3 ({m3.gens[a]}*{m3.gens[b]})*{m3.gens[c]}"
        ops.append(Op(label, partial(_ring_products, q.nf_mul, gens[a], gens[b], gens[c]),
                      _pairs_equal))

    # q-Leibniz expansions of x_i^n * a, checked against nf_mul.
    for name, p in families[1:]:
        for n in range(1, _tiny(ctx, 6, 3)):
            for i in range(_tiny(ctx, 3, 1)):
                site = shape.randrange(p.n - 1)
                a = _later_element(p, shape, rng, site)
                direct = partial(q.nf_mul, p.gen_power(site, n), a)
                ops.append(Op(f"{name} leibniz x{site}^{n} #{i}",
                              partial(q.q_leibniz_expand, p, site, n, a),
                              lambda r, direct=direct: r == direct()))

    # Weight splits, checked to sum back with one weight per component.
    for name, p in families + [("quantum_matrices3", m3)]:
        for i in range(_tiny(ctx, 15, 1)):
            a = _random_element(q, p, shape, rng, max_terms=6)
            ops.append(Op(f"{name} weights #{i}", partial(q.weight_components, a),
                          partial(_weight_split_holds, q, p, a)))
    return ops


# -- powers -----------------------------------------------------------------

# Top rung per family: the most expensive product there costs about a
# second when this benchmark was added (weyl1 x^6*y^6, matrices2 a22^5*a11^5,
# weyl2 x1^4*y1^4; matrices3 k = 5 would add about 6 s per round).
POWER_LADDERS = (("quantum_weyl1", 1, 6), ("quantum_weyl2", 2, 4),
                 ("quantum_matrices2", 2, 5), ("quantum_matrices3", 3, 4))


def _second_bracketing(mul, gj, rest, right):
    """g_j * (g_j^(k-1) * g_i^k), the check of g_j^k * g_i^k."""
    return mul(gj, mul(rest, right))


def _powers(q, rng, ctx):
    ops = []
    for name, n, kmax in POWER_LADDERS:
        p = q.quantum_weyl(n) if name.startswith("quantum_weyl") else q.quantum_matrices(n)
        pairs = [(i, j) for i in range(p.n) for j in range(i + 1, p.n)]
        if ctx.size == "tiny":
            pairs, kmax = pairs[:2], 2
        for i, j in pairs:
            for k in range(1, kmax + 1):
                c1, c2 = _scalar(rng), _scalar(rng)
                right = p.gen_power(i, k).scale(c2)
                rest = p.gen_power(j, k - 1).scale(c1)
                other = partial(_second_bracketing, q.nf_mul, p.gen(j), rest, right)
                ops.append(Op(f"{name} {p.gens[j]}^{k}*{p.gens[i]}^{k}",
                              partial(q.nf_mul, p.gen_power(j, k).scale(c1), right),
                              lambda r, other=other: r == other()))
    return ops


# -- spectra ----------------------------------------------------------------


def _poly_from_roots(q, params, roots, mults):
    """Coefficients (degree 0 upward) of prod (t - root)^mult."""
    one = q.as_field_element(1, params)
    coeffs = [one]
    for root, mult in zip(roots, mults):
        for _ in range(mult):
            shifted = [q.as_field_element(0, params)] + coeffs
            for d, c in enumerate(coeffs):
                shifted[d] = shifted[d] - c * root.as_poly()
            coeffs = shifted
    return coeffs


def _minpoly_holds(q, p, xidx, a, degree, spec):
    """The polynomial annihilates a under Ad, splits over its distinct
    roots, and has the degree known from the Weyl relation."""
    if spec.degree != degree or len(set(spec.roots)) != len(spec.roots):
        return False
    expected = _poly_from_roots(q, p.params, spec.roots, spec.multiplicities)
    if len(expected) != len(spec.minpoly):
        return False
    if any(e != c for e, c in zip(expected, spec.minpoly)):
        return False
    vec = q.loc_element(p, xidx, a)
    acc = vec.scale(spec.minpoly[0])
    for c in spec.minpoly[1:]:
        vec = q.ad_apply(p, xidx, vec)
        acc = acc + vec.scale(c)
    return acc.is_zero()


def _split_holds(q, p, xidx, a, spec):
    if len(set(spec.roots)) != len(spec.roots) or len(spec.components) != len(spec.roots):
        return False
    total = None
    for root, comp in zip(spec.roots, spec.components):
        if comp.is_zero() or q.ad_apply(p, xidx, comp) != comp.scale(root):
            return False
        total = comp if total is None else total + comp
    return total == q.loc_element(p, xidx, a)


def _q_commutes(q, p, xidx, gidx, r):
    return not r.is_zero() and q.ad_apply(p, xidx, r) == r.scale(p.commutation_unit(xidx, gidx))


def _spectra(q, rng, ctx):
    ops = []
    w1 = q.quantum_weyl(1)
    # Ad_y on x^k has the k+1 eigenvalues 1, c^-1, ..., c^-k.
    for k in range(1, _tiny(ctx, 6, 3)):
        a = w1.gen_power(1, k).scale(_scalar(rng))
        ops.append(Op(f"quantum_weyl1 minpoly Ad_y x^{k}",
                      partial(q.ad_minimal_polynomial, w1, 0, a),
                      partial(_minpoly_holds, q, w1, 0, a, k + 1)))
    families = [("quantum_weyl1", w1), ("quantum_weyl2", q.quantum_weyl(2)),
                ("quantum_matrices2", q.quantum_matrices(2)),
                ("quantum_matrices3", q.quantum_matrices(3))]
    for name, p in families:
        pairs = [(x, g) for x in range(p.n) for g in range(p.n) if g != x]
        if ctx.size == "tiny":
            pairs = pairs[:2]
        for x, g in pairs:
            a = p.gen(g).scale(_scalar(rng))
            site = f"{name} Ad_{p.gens[x]} {p.gens[g]}"
            ops.append(Op(f"{site} eigencomponents",
                          partial(q.ad_eigencomponents, p, x, a),
                          partial(_split_holds, q, p, x, a)))
            ops.append(Op(f"{site} replacement",
                          partial(q.replacement_generator, p, x, g),
                          partial(_q_commutes, q, p, x, g)))
    return ops


# -- sessions ---------------------------------------------------------------


def _is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_near(rng, digits):
    """A prime just above a random start in a 2% band at 10^(digits-1), so
    trial division costs about the same for every seed."""
    low = 10 ** (digits - 1)
    n = rng.randrange(low, low + low // 50)
    while not _is_prime(n):
        n += 1
    return n


def _rank_det(rows):
    """Rank and determinant of a square rational matrix."""
    rows = [[Fraction(v) for v in r] for r in rows]
    rank, det = 0, Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        det *= rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank, det


def _int_lists(text):
    return [[int(v) for v in chunk.split(",")] for chunk in
            text.replace(" ", "").strip("[]").split("],[") if chunk]


def _expect_validate_ok(code, out):
    lines = out.splitlines()
    return code == 0 and all(f"{c} OK" in lines for c in ("WF", "Q1", "Q2", "Q3")) \
        and not any("FAIL" in line for line in lines)


def _expect_torsion(code, out):
    fails = [line for line in out.splitlines() if " FAIL" in line]
    return code == 1 and len(fails) == 1 and fails[0].startswith("Q2 FAIL")


def _expect_pass_at_target(code, out):
    return code == 0 and "all checks pass at the target" in out.splitlines()


def _expect_exceptional(values, code, out):
    body = ", ".join(str(v) for v in sorted(set(values)))
    return code == 0 and f"exceptional parameter values: {{{body}}}" in out.splitlines()


def _expect_strata(n, code, out):
    lines = out.splitlines()
    strata = [line for line in lines if line.startswith("(")]
    return code == 0 and f"strata: {2 ** n}" in lines and len(set(strata)) == 2 ** n


def _expect_center(exps, code, out):
    """G is the integer kernel of the exponent matrix: its basis vectors are
    central, there are rank - rank(E) of them, and the new generators form a
    unimodular matrix."""
    r = len(exps)
    nullity = r - _rank_det(exps)[0]
    lines = out.splitlines()
    head = [line for line in lines if line.startswith("G = ")]
    if code != 0 or len(head) != 1:
        return False
    if nullity == 0:
        basis = [] if head[0] == "G = {0}; center = C" else None
    else:
        inner = head[0][len("G = <"):head[0].index(">;")]
        basis = _int_lists(inner)
    if basis is None or len(basis) != nullity:
        return False
    if any(sum(exps[i][j] * v[j] for j in range(r)) for v in basis for i in range(r)):
        return False
    cols = [_int_lists(line.split("Y^", 1)[1])[0] for line in lines
            if line.startswith("new generator ")]
    return len(cols) == r and abs(_rank_det(cols)[1]) == 1


def _expect_count(n, code, out):
    lines = out.splitlines()
    comps = [line for line in lines if line.startswith("(")]
    return code == 0 and f"count: {2 ** n}" in lines and len(set(comps)) == 2 ** n


def _expect_components(k, code, out):
    return code == 0 and f"components: {k}" in out.splitlines()


def _expect_eigenvalues(k, code, out):
    # Ad_y on x^k in the quantum Weyl algebra: eigenvalues c^-j, j = 0..k.
    want = {"1"} | {f"c^-{j}" for j in range(1, k + 1)}
    got = {line.split(":", 1)[0][len("eigenvalue "):] for line in out.splitlines()
           if line.startswith("eigenvalue ")}
    return code == 0 and got == want


def _session_process(env, argv):
    done = subprocess.run([sys.executable, "-c", CONSOLE_BOOT, *argv], env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    return done.returncode, done.stdout


def _session_in_process(cli, argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.run_command(argv)
    return code, out.getvalue()


def session_env(src_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def _sessions(q, rng, ctx):
    os.makedirs(ctx.work_dir, exist_ok=True)
    if ctx.in_process:
        call = partial(_session_in_process, q.cli)
    else:
        call = partial(_session_process, session_env(ctx.src_dir))
    ops = []

    def fixture(stem, pres):
        path = os.path.join(ctx.work_dir, f"{stem}.alg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(q.print_presentation(pres))
        return path

    def add(label, argv, check):
        ops.append(Op(label, partial(call, argv), lambda res, check=check: check(*res)))

    tiny = ctx.size == "tiny"
    plane = fixture("plane", q.quantum_plane())
    weyl1 = fixture("weyl1", q.quantum_weyl(1))
    qvar = q.LaurentPoly.var(("q",), "q")

    # A round has 33 light sessions, where process start dominates, and 7
    # heavy ones (matrices(6), matrices(8), 13-digit values, rank2 with c
    # near 10^7).  With a sixth of the round heavy, op_p90_ms falls inside
    # the heavy group for every seed and any number of rounds.
    for n in ([2] if tiny else (2, 4, 6, 8)):
        add(f"validate matrices{n}", ["validate", fixture(f"matrices{n}", q.quantum_matrices(n))],
            _expect_validate_ok)
    if not tiny:
        add("validate weyl1", ["validate", weyl1], _expect_validate_ok)
        add("validate weyl2", ["validate", fixture("weyl2", q.quantum_weyl(2))], _expect_validate_ok)

    # At a primitive N-th root of unity the scalars generate torsion: Q2 fails.
    # One N from each band of twelve, so every seed covers orders 4..63 alike.
    for band in range(_tiny(ctx, 5, 1)):
        for stem, path in (("plane", plane), ("weyl1", weyl1)):
            N = rng.randint(4 + 12 * band, 15 + 12 * band)
            add(f"specialize {stem} zeta_{N}", ["specialize", path, "--root-of-unity", str(N)],
                _expect_torsion)

    # A rational value other than 0 and +-1 generates a torsion-free group.
    values = [("plane", plane, "q", 7), ("weyl1", weyl1, "c", 7)]
    if not tiny:
        values += [("plane", plane, "q", 10), ("weyl1", weyl1, "c", 10)] \
            + [("plane", plane, "q", 13), ("weyl1", weyl1, "c", 13)] * 2
    sign = rng.choice((1, -1))
    for stem, path, name, digits in values:
        v = sign * _prime_near(rng, digits)
        sign = -sign
        add(f"specialize {stem} {name}={v}", ["specialize", path, "--param", f"{name}={v}"],
            _expect_pass_at_target)

    # Rank-2 family x*y = q*y*x + f: the exceptional values are 1 and the
    # rational roots of f.
    for i in range(_tiny(ctx, 1, 0)):
        c = rng.randrange(10 ** 7, 10 ** 7 + 2 * 10 ** 5)
        path = fixture(f"rank2_big{i}", q.rank2(qvar - c))
        add(f"stratify rank2 q-{c}", ["stratify", path], partial(_expect_exceptional, [1, c]))
    for i in range(_tiny(ctx, 2, 1)):
        a, b = rng.randint(2, 40), rng.randint(2, 40)
        path = fixture(f"rank2_{i}", q.rank2((qvar - a) * (qvar - b)))
        add(f"stratify rank2 (q-{a})(q-{b})", ["stratify", path],
            partial(_expect_exceptional, [1, a, b]))
    for n in ([2] if tiny else (2, 4, 6)):
        add(f"stratify affine{n}", ["stratify", fixture(f"affine{n}", q.quantum_affine(n))],
            partial(_expect_strata, n))

    for i in range(_tiny(ctx, 5, 1)):
        r = rng.randint(2, 5)
        exps = [[0] * r for _ in range(r)]
        qmat = {}
        for a in range(r):
            for b in range(a + 1, r):
                e = rng.randint(-3, 3)
                exps[a][b], exps[b][a] = e, -e
                if e:
                    qmat[(a, b)] = q.UnitMonomial.var(("q",), "q", e)
        torus = q.Presentation(f"torus{i}", ("q",), tuple(f"k{t + 1}" for t in range(r)), 0,
                               qmat=qmat)
        add(f"center torus{i} rank {r}", ["center", fixture(f"torus{i}", torus)],
            partial(_expect_center, exps))

    for i in range(_tiny(ctx, 4, 1)):
        n = rng.randint(1, 8)
        add(f"compositions {n}", ["compositions", str(n)], partial(_expect_count, n))

    for i in range(_tiny(ctx, 1, 1)):
        keys = rng.sample([(a, b) for a in range(4) for b in range(4)], rng.randint(1, 6))
        text = " + ".join(f"{rng.randint(1, 9)}*x^{a}*y^{b}" for a, b in keys)
        add(f"weights plane {text}", ["weights", plane, text],
            partial(_expect_components, len(keys)))

    for i in range(_tiny(ctx, 1, 1)):
        k = rng.randint(1, 3)
        add(f"adjoint weyl1 y x^{k}", ["adjoint", weyl1, "y", f"x^{k}"],
            partial(_expect_eigenvalues, k))
    return ops


_BUILDERS = {"products": _products, "powers": _powers,
             "spectra": _spectra, "sessions": _sessions}
