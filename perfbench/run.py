"""Benchmark for alphabound: one seeded workload per run, one process, one thread.

Usage, from the repository root::

    python3 perfbench/run.py --workload bulk_peel_cli --seed 1 --seconds 55 --trace 0

The package is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.

``--trace 0`` builds the inputs at least three times and for at least
three seconds (``setup_s`` is the median), then runs passes over the
workload's fixed list of at least 100 ops, closed loop.  Once two whole
passes have run, it stops at the first op that starts after ``--seconds``
have passed.  From the second pass on,
ops cheaper than the mean op run several times a pass.  Every op is timed
alone and every answer is checked outside the timed span.  An op's latency
is the best of its timings; the latency percentiles and ``ops_per_s`` are
taken over the op list.

``--trace 1`` builds the inputs once under the tracer, then alternates an
untraced and a traced pass until ``--seconds`` have passed.  The per-layer
metrics come from the traced set-up plus the first traced pass, so their
counts repeat exactly at a fixed seed; ``trace.overhead_frac`` compares the
fastest traced pass with the fastest untraced one.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One thread: a BLAS library loaded with numpy would otherwise start a pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up is repeated at least this often and for at least this long;
# setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
MIN_PASSES = 2
MIN_OPS = 100  # distinct ops, so op_ms.p90 has at least 10 samples beyond it
# After the first pass, an op cheaper than the mean op runs up to MAX_REPS
# times a pass, at seeded random places in it, so that it gets as many
# chances at a quiet moment of the machine as a costly op does.  The extra
# runs take at most EXTRA_SHARE of a pass's time.
MAX_REPS = 8
EXTRA_SHARE = 1.0
# The timed loop moves to the next CPU it may run on every SWITCH_S
# seconds.  On a shared host one CPU is often slowed by a neighbour while
# the other is not; the best-of-N timings then come from the quiet one.
SWITCH_S = 0.25


def _repeats(first_pass):
    """Runs per pass of each op, from its time in the first pass."""
    share = EXTRA_SHARE * statistics.fmean(first_pass)
    return [min(MAX_REPS, max(1, int(share / max(t, 1e-9)))) for t in first_pass]


def _run_passes(ops, seconds, tracer=None, min_passes=MIN_PASSES, rng=None):
    """Passes over ops until ``min_passes`` whole passes and ``seconds`` are done.

    Once ``min_passes`` passes are complete, the run ends at the first op
    that would start after ``seconds``; that last pass is left partial.

    With a tracer, it is installed for these passes and the answer checks
    run in its checking mode.  With ``rng``, passes after the first repeat
    the cheap ops (see MAX_REPS) in an order drawn from ``rng``.  Returns
    the timings of each op (one list per op), the op time of each pass, and
    the number of failed ops.
    """
    clock = time.perf_counter
    timings = [[] for _ in ops]
    pass_times, failed = [], 0
    order = list(range(len(ops)))
    allowed = os.sched_getaffinity(0)
    cpus = itertools.cycle(sorted(allowed))
    start = switch_at = clock()
    if tracer is not None:
        tracer.install()
    try:
        while True:
            gc.collect()
            pass_time = 0.0
            for i in order:
                now = clock()
                if len(pass_times) >= min_passes and now - start >= seconds:
                    return timings, pass_times, failed
                if len(allowed) > 1 and now >= switch_at:
                    os.sched_setaffinity(0, {next(cpus)})
                    switch_at = now + SWITCH_S
                op, times = ops[i], timings[i]
                t0 = clock()
                try:
                    result = op.call()
                    ok = True
                except Exception as exc:  # any error is a failed op
                    print(f"FAIL {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    ok = False
                times.append(clock() - t0)
                pass_time += times[-1]
                if ok:
                    with tracer.checking() if tracer else contextlib.nullcontext():
                        try:
                            ok = bool(op.check(result))
                        except Exception as exc:
                            print(f"CHECK ERROR {op.name}: {type(exc).__name__}: {exc}",
                                  file=sys.stderr)
                            ok = False
                    if not ok:
                        print(f"WRONG {op.name}", file=sys.stderr)
                failed += not ok
            pass_times.append(pass_time)
            if clock() - start >= seconds and len(pass_times) >= min_passes:
                return timings, pass_times, failed
            if rng is not None and len(pass_times) == 1:
                reps = _repeats([times[0] for times in timings])
                order = [i for i, r in enumerate(reps) for _ in range(r)]
            if rng is not None:
                rng.shuffle(order)
    finally:
        os.sched_setaffinity(0, allowed)
        if tracer is not None:
            tracer.uninstall()


def _shuffled(ops, seed):
    # A seeded order mixes the kinds of op within a pass; untraced passes
    # after the first draw new orders, so each op's timings spread over the run.
    random.Random(seed).shuffle(ops)
    return ops


def untraced(build, seed, seconds, workdir):
    setup, ops = [], None
    while len(setup) < SETUP_MIN_REPEATS or sum(setup) < SETUP_MIN_SECONDS:
        ops = None  # release the previous inputs before building new ones
        gc.collect()
        t0 = time.perf_counter()
        ops = build(seed, workdir)
        setup.append(time.perf_counter() - t0)
    if len(ops) < MIN_OPS:
        raise RuntimeError(f"{len(ops)} ops; op_ms.p90 needs at least {MIN_OPS}")
    ops = _shuffled(ops, seed)
    timings, pass_times, failed = _run_passes(ops, seconds, rng=random.Random(seed))
    # Each op's latency is its best of N timings: the machine's speed drifts
    # by tens of percent over seconds, and the minimum is the stable part.
    best_ms = [min(times) * 1000.0 for times in timings]
    runs = sorted(len(times) for times in timings)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(ops) / sum(best_ms) * 1000.0, "1/s"),
        "op_ms.p50": (statistics.median(best_ms), "ms"),
        "op_ms.p90": (statistics.quantiles(best_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"set-up runs: {len(setup)}, median {statistics.median(setup):.4f} s",
             f"op samples: {len(ops)} ops, each the best of {runs[0]} to {runs[-1]} "
             f"runs in {len(pass_times)} whole passes"]
    notes += [f"op {op.name}: {ms:.3f} ms"
              for ms, op in sorted(zip(best_ms, ops), key=lambda pair: pair[1].name)]
    return metrics, sum(runs), failed, notes


def traced(build, seed, seconds, workdir):
    from spans import Tracer

    first = Tracer().install()
    try:
        ops = _shuffled(build(seed, workdir), seed)
    finally:
        first.uninstall()
    plain_times, traced_times, failed = [], [], 0
    start, report = time.perf_counter(), first
    while True:
        # An untraced pass, then a traced one.  Only the first traced pass
        # reports; later ones time the overhead.
        for tracer, times in ((None, plain_times), (report, traced_times)):
            _, pass_times, bad = _run_passes(ops, 0, tracer, min_passes=1)
            times += pass_times
            failed += bad
        report = Tracer()
        if time.perf_counter() - start >= seconds:
            break
    overhead = min(traced_times) / min(plain_times) - 1.0
    notes = [f"untraced passes (s): {[round(t, 4) for t in plain_times]}",
             f"traced passes (s): {[round(t, 4) for t in traced_times]}"]
    attempted = len(ops) * (len(plain_times) + len(traced_times))
    return first.layer_metrics(overhead), attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import alphabound
    except ImportError as exc:
        print(f"cannot import alphabound from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(alphabound.__file__).resolve().is_relative_to(src.resolve()):
        print(f"alphabound was imported from {alphabound.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    build = WORKLOADS.get(args.workload)
    if build is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else untraced
        metrics, attempted, failed, notes = run(build, args.seed, args.seconds, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only succeeds once no other run uses it

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print("  " + note)
    print(f"  fail_frac: {failed / attempted} ({failed} of {attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
