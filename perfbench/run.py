#!/usr/bin/env python3
"""Benchmark for qsolv: one workload from one seed, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload products --seed 1 --seconds 28 --trace 0

The workload's fixed set of operations is built from ``--seed`` and run in
rounds until ``--seconds`` would be exceeded.  Each round imports qsolv
afresh from ``src/`` and rebuilds its inputs, so rounds start cold.  One
caller runs one operation at a time (closed loop); the sessions workload
starts one ``qsolv`` process at a time.

Timings in the result are scaled to the speed of a fixed reference kernel,
timed between chunks of operations (see refkernel.py), so that the load of
other tenants on a shared host does not move them.  The benchmark process
and its children keep to one CPU.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, which
alternates untraced and traced rounds so that the tracing overhead is
measured in the same run.  The lines before it are a readable report with
sample counts.  See NOTES.md beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import refkernel  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("pass_ratio", "ratio"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
# Printed in the report with their sample counts, but left out of the result:
# between runs on a shared host they spread by up to a third, more than any
# bound a later change could be held to.
REPORTED = (("op_p50_ms", "ms"), ("op_p90_ms", "ms"))
MIN_SETUPS = 11       # set-up samples behind the setup_s median
PROCESS_STARTS = 5    # fresh interpreters behind cli.process_start_s


class Round:
    """Timings and failures of one pass over the workload's operations."""

    def __init__(self, setup_s, op_times, failures, layers=None):
        self.setup_s = setup_s
        self.op_times = op_times
        self.failures = failures      # (label, reason) per failed operation
        self.layers = layers          # per-layer metrics of a traced round
        # The same timings scaled to the reference kernel's speed, in a
        # metered round (see refkernel.py).
        self.scaled_setup_s = None
        self.scaled_times = None

    @property
    def wall_s(self):
        return sum(self.op_times)

    @property
    def scaled_wall_s(self):
        return sum(self.scaled_times)


def locate_src():
    src = ROOT / "src"
    if not (src / "qsolv" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qsolv sources under {src}; run from a full checkout\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src


def fresh_qsolv(src):
    """Import qsolv from the checkout as if for the first time."""
    for name in [m for m in sys.modules if m == "qsolv" or m.startswith("qsolv.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qsolv")
    if Path(pkg.__file__).resolve().parent != (src / "qsolv").resolve():
        raise RuntimeError(f"qsolv imported from {pkg.__file__}, not from {src}")
    return pkg


def set_up(name, seed, ctx, tracer=None):
    start = perf_counter()
    q = fresh_qsolv(Path(ctx.src_dir))
    if tracer is not None:
        tracer.install(q)
    ops = workloads.build(name, q, random.Random(seed), ctx)
    return ops, perf_counter() - start


def _check(op, result):
    try:
        return bool(op.check(result)), "exact check failed"
    except Exception as exc:  # a check that cannot run is a failed check
        return False, f"check raised {type(exc).__name__}: {exc}"


def run_round(name, seed, ctx, tracer=None, meter=None):
    ops, setup_s = set_up(name, seed, ctx, tracer)
    if meter is not None:
        meter.add(setup_s)
        meter.flush()
    op_times, failures = [], []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin(index)
        start = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an operation that raises has failed
            result, error = None, exc
        else:
            error = None
        op_times.append(perf_counter() - start)
        if tracer is not None:
            tracer.end()
        if meter is not None:
            meter.add(op_times[-1])
        if error is not None:
            failures.append((op.label, f"raised {type(error).__name__}: {error}"))
        else:
            ok, reason = _check(op, result)
            if not ok:
                failures.append((op.label, reason))
    layers = spans.round_layer_metrics(tracer, op_times) if tracer is not None else None
    rnd = Round(setup_s, op_times, failures, layers)
    if meter is not None:
        meter.flush()
        rnd.scaled_setup_s, *rnd.scaled_times = meter.scaled
    return rnd


def process_start_s(src):
    """Median time for a fresh interpreter to run ``import qsolv``."""
    env = workloads.session_env(str(src))
    times = []
    for _ in range(PROCESS_STARTS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import qsolv"], env=env, check=True,
                       stdin=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


def nearest_rank(sorted_values, share):
    rank = math.ceil(share * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def measure(name, seed, seconds, ctx, traced):
    """Rounds while at least half of the next one fits in ``seconds``, judged
    by the last one; at least one.

    Untraced rounds are metered against the reference kernel when the run
    is not traced; the traced run keeps raw times alone, so that its
    untraced and traced rounds differ only by the tracer.
    """
    start = perf_counter()
    extra = {"cli.process_start_s": (process_start_s(ctx.src_dir), "s")} if traced else {}
    plain, traced_rounds = [], []
    while True:
        begun = perf_counter()
        plain.append(run_round(name, seed, ctx, meter=None if traced else refkernel.Meter()))
        if traced:
            traced_rounds.append(run_round(name, seed, ctx, spans.Tracer()))
        now = perf_counter()
        if now - start + (now - begun) / 2 > seconds:
            break
    return plain, traced_rounds, extra


def extra_setups(name, seed, ctx, count):
    """``count`` more set-up times, each scaled by the kernel around it."""
    meter = refkernel.Meter()
    for _ in range(count):
        meter.add(set_up(name, seed, ctx)[1])
        meter.flush()
    return meter.scaled


def end_to_end(name, rounds, setups, ctx):
    """Times are scaled to the reference kernel's speed, round by round; the
    raw medians are printed beside them."""
    times = sorted(t for r in rounds for t in r.scaled_times)
    p50, _ = nearest_rank(times, 0.5)
    p90, beyond = nearest_rank(times, 0.9)
    attempted = sum(len(r.op_times) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    who = resource.RUSAGE_CHILDREN if name == "sessions" and not ctx.in_process \
        else resource.RUSAGE_SELF
    metrics = {
        "wall_s": statistics.median(r.scaled_wall_s for r in rounds),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "pass_ratio": 1 - failed / attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    which = f"all {len(rounds)} rounds"
    raw_wall = statistics.median(r.wall_s for r in rounds)
    raw_setup = statistics.median(r.setup_s for r in rounds)
    notes = {
        "wall_s": f"scaled median over {len(rounds)} rounds of "
                  f"{len(rounds[0].op_times)} operations; raw median {raw_wall!r} s",
        "op_p50_ms": f"scaled, n={len(times)} samples from {which}",
        "op_p90_ms": f"scaled, n={len(times)} samples from {which}, {beyond} beyond",
        "pass_ratio": "1 - fail_ratio",
        "setup_s": f"scaled median of {len(setups)} set-ups: import qsolv, build inputs; "
                   f"raw median of the rounds' set-ups {raw_setup!r} s",
        "peak_rss_mb": "largest qsolv child process" if who == resource.RUSAGE_CHILDREN
                       else "this process",
    }
    return {k: (metrics[k], unit) for k, unit in END_TO_END + REPORTED}, notes


def per_layer(plain, traced_rounds, extra):
    metrics = spans.combine_rounds([r.layers for r in traced_rounds])
    traced_wall = statistics.median(r.wall_s for r in traced_rounds)
    plain_wall = statistics.median(r.wall_s for r in plain)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics.update(extra)
    return metrics


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the reference
    kernel gauges the CPU that also runs the qsolv sessions."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass    # not available here: the scaling still applies


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few operations per workload (smoke test)")
    args = parser.parse_args(argv)

    src = locate_src()
    pin_to_one_cpu()
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    # The traced run drives run_command in-process, so that spans see the cli layer.
    ctx = workloads.Context(args.size, str(src), str(work_dir), in_process=bool(args.trace))
    try:
        plain, traced_rounds, extra = measure(args.workload, args.seed, args.seconds,
                                              ctx, bool(args.trace))
        rounds = plain + traced_rounds
        if args.trace:
            metrics, notes = per_layer(plain, traced_rounds, extra), {}
        else:
            setups = [r.scaled_setup_s for r in plain]
            setups += extra_setups(args.workload, args.seed, ctx,
                                   max(0, MIN_SETUPS - len(setups)))
            metrics, notes = end_to_end(args.workload, plain, setups, ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    failures = [f for r in rounds for f in r.failures]
    attempted = sum(len(r.op_times) for r in rounds)
    unknown = [f for f in failures if f[0] not in workloads.KNOWN_FAILURES]
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(plain)} untraced + "
          f"{len(traced_rounds)} traced  operations per round {len(rounds[0].op_times)}")
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key} = {value!r} {unit}{note}")
    print(f"  fail_ratio = {len(failures) / attempted!r}  "
          f"({len(failures)} failed / {attempted} attempted)")
    for (label, reason), count in sorted(Counter(failures).items()):
        tag = "known" if label in workloads.KNOWN_FAILURES else "UNEXPECTED"
        print(f"  failed [{tag}] x{count}: {label}: {reason}")
    result = {
        "correct": not unknown,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in dict(REPORTED)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
