"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: worker.py WORKLOAD SIZE SEED LAUNCH [--trace SPANS] [--all-items]

LAUNCH is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start, ``import
totconn.*`` and input generation.  The timed section runs the workload
and its exact checks; the calibration kernel runs right before and
right after it.  The last line of standard output is one JSON
object with the sample's measurements and one ``[op_id, digest,
problem]`` entry per operation; comparing digests with the reference is
left to the parent.
"""

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def calibration_s():
    """Seconds for a fixed kernel like the library's inner loops: a
    sparse product of two polynomials with Fraction coefficients.

    ``run.py`` scales the sample's times by this kernel's speed, measured
    right before and right after the timed section.  The kernel uses only
    the standard library and must never change: scaled times of two
    commits are comparable only when measured with the same kernel.
    """
    t0 = time.perf_counter()
    poly = {(i, j, (i * j) % 3): Fraction(i - j, j + 1)
            for i in range(16) for j in range(16)}
    out = {}
    for ka, ca in poly.items():
        for kb, cb in poly.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return time.perf_counter() - t0


def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("size", choices=("full", "smoke"))
    ap.add_argument("seed", type=int)
    ap.add_argument("launch", type=float)
    ap.add_argument("--trace", metavar="SPANS",
                    help="trace the timed section and write its spans here")
    ap.add_argument("--all-items", action="store_true",
                    help="run every pool item (for writing reference digests)")
    args = ap.parse_args()

    import totconn
    if os.path.dirname(os.path.abspath(totconn.__file__)) != os.path.join(SRC, "totconn"):
        sys.exit("totconn was imported from %s, not from %s" % (totconn.__file__, SRC))
    import workloads
    if args.all_items:
        prepared, execute = workloads.all_reference_ops(args.workload, args.size)
    else:
        prepared, execute = workloads.prepare(args.workload, args.size, args.seed)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.launch

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    kernel_before = calibration_s()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    results = execute(prepared)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    kernel_s = (kernel_before + calibration_s()) / 2
    out = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
           "calibration_s": kernel_s,
           "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "ops": [list(r) for r in results]}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        tracer.dump(args.trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
