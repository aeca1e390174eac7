"""Entry point of the totconn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --write-reference

Each sample runs in a fresh interpreter (``worker.py``), one process at
a time, because the library keeps process-wide memo caches and a command
line user pays the cold cost on every invocation.  Samples repeat until
``--seconds`` is used up (at least ``MIN_SAMPLES``).  Every operation's
output is checked against the committed reference digests
(``reference.json``); an operation fails when its digest differs, its
exact check fails, or it raises.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` traced and
untraced samples alternate and it reports the per-layer metrics, with
``trace.overhead_s`` the traced minus the untraced median wall time.

The end-to-end times (``wall_s``, ``cpu_s``, ``setup_s``) are scaled to
a reference machine speed.  On a shared machine the CPU's speed drifts
by 20% and more over minutes, longer than a run, so unscaled medians of
runs of the same code a few minutes apart differ by that much.  Each
sample therefore also times a fixed standard-library kernel right before
and right after its timed section, and each of its times is multiplied
by ``CAL_REFERENCE_S`` over that kernel time; the metric is the median
over samples.  The unscaled medians are printed beside them and kept in
the run record; per-layer times are not scaled.

The lines before the last give medians, quartiles and sample counts,
and a run record (git revision, Python version, CPU count, load average
at the start, every sample and the operations of the seed) is written
under ``perfbench/runs/``.

``--smoke`` is the benchmark's own test: every workload at a small size,
traced, checked against the reference digests and for consistent spans.
``--write-reference`` recomputes ``reference.json`` from the current code.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "runs")
REFERENCE = os.path.join(HERE, "reference.json")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("nc-simplex", "tot-degree1", "pipeline", "holonomy")
MIN_SAMPLES = 3
# A run must end within three minutes: no sample starts once the run
# could pass HARD_LIMIT_S, and none may run past DEADLINE_S.
HARD_LIMIT_S = 140.0
DEADLINE_S = 170.0
# The calibration kernel's time (``worker.calibration_s``) on the machine
# the benchmark was defined on (2-CPU Intel Xeon VM, Python 3.11.7) in a
# quiet period.  End-to-end times are reported at this kernel speed.
CAL_REFERENCE_S = 0.25


class BenchError(RuntimeError):
    pass


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(workload, size, seed, timeout, trace_path=None, all_items=False):
    """One sample in a fresh interpreter; returns its parsed result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # A fixed hash seed keeps set and dict iteration order, and with it
    # every per-layer count, the same from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, WORKER, workload, size, str(seed), "%.9f" % _now()]
    if trace_path:
        cmd += ["--trace", trace_path]
    if all_items:
        cmd.append("--all-items")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s sample timed out after %.0f s" % (workload, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s sample failed (exit %d): %s"
                         % (workload, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def failed_ops(sample, reference):
    """[(op_id, reason)] for every operation of the sample that failed."""
    out = []
    for op_id, dig, problem in sample["ops"]:
        if problem:
            out.append((op_id, problem))
        elif reference.get(op_id) != dig:
            out.append((op_id, "digest differs from the reference"))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_rev():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def collect(workload, seed, seconds, trace):
    """Run samples until the time is used; returns them in run order."""
    started = _now()
    samples = []
    kinds = (False, True) if trace else (False,)
    trace_path = os.path.join(RUNS, "%s.spans.json.gz" % workload)
    while True:
        traced = kinds[len(samples) % len(kinds)]
        t0 = _now()
        sample = run_worker(workload, "full", seed, DEADLINE_S - (t0 - started),
                            trace_path=trace_path if traced else None)
        sample["traced"] = traced
        sample["duration_s"] = _now() - t0
        samples.append(sample)
        elapsed = _now() - started
        longest = max(s["duration_s"] for s in samples)
        minimum = 2 if trace else MIN_SAMPLES
        if elapsed + longest > HARD_LIMIT_S:
            break
        if len(samples) >= minimum and elapsed + longest > seconds:
            break
    return samples


def end_to_end(samples):
    """Median, quartiles and sample count of each end-to-end metric, the
    times scaled to the reference speed, with the unscaled median."""
    summary = {}
    for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mib"):
        raw = [s[name] for s in samples]
        values = raw
        if name != "peak_rss_mib":
            values = [s[name] * CAL_REFERENCE_S / s["calibration_s"] for s in samples]
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(samples),
                         "unscaled_median": statistics.median(raw)}
    return summary


def per_layer(samples):
    """Per-layer metrics from the traced samples, and whether every
    count repeated exactly between them."""
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    layers = [s["layers"] for s in traced]
    out = {}
    repeat = True
    for name, first in layers[0].items():
        values = [lay[name] for lay in layers]
        if name.endswith(".calls") or name.endswith("_ratio"):
            repeat = repeat and all(v == first for v in values)
            out[name] = first
        else:
            out[name] = statistics.median(values)
    out["trace.wall_s"] = statistics.median(s["wall_s"] for s in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        s["wall_s"] for s in untraced)
    return out, repeat


def bench(args):
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    reference = load_reference().get(args.workload, {})
    os.makedirs(RUNS, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "git_rev": git_rev(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
              "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}
    samples = collect(args.workload, args.seed, args.seconds, args.trace)

    attempted = sum(len(s["ops"]) for s in samples)
    failures = [f for s in samples for f in failed_ops(s, reference)]
    correct = not failures
    summary = end_to_end([s for s in samples if not s["traced"]])
    print("%s seed %d: %d samples, %d ops attempted, %d failed, "
          "ops_failed_ratio %.4f" % (args.workload, args.seed, len(samples),
                                     attempted, len(failures),
                                     len(failures) / attempted))
    for op_id, reason in failures[:10]:
        print("  FAILED %s: %s" % (op_id, reason))
    for name, s in summary.items():
        print("  %-14s median %.4f  q1 %.4f  q3 %.4f  (n=%d)  unscaled median %.4f"
              % (name, s["median"], s["q1"], s["q3"], s["n"], s["unscaled_median"]))

    if args.trace:
        layers, repeat = per_layer(samples)
        if not repeat:
            correct = False
            print("  per-layer counts differ between traced samples")
        wanted = spec["per_layer"]
    else:
        layers = {}
        wanted = spec["end_to_end"]
    values = dict(layers)
    values.update({name: s["median"] for name, s in summary.items()})
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    record.update({
        "samples": samples, "summary": summary, "layers": layers,
        "op_ids": [op[0] for op in samples[0]["ops"]],
        "ops_per_sample": len(samples[0]["ops"]),
        "attempted": attempted, "failed": len(failures),
        "ops_failed_ratio": len(failures) / attempted, "correct": correct,
    })
    path = os.path.join(RUNS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def smoke():
    """Small-size run of every workload, traced twice on one seed."""
    from tracer import load_spans, span_times
    reference = load_reference()
    os.makedirs(RUNS, exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        problems = []
        runs = []
        for rep in range(2):
            path = os.path.join(RUNS, "smoke-%s-%d.spans.json.gz" % (workload, rep))
            sample = run_worker(workload, "smoke", 1, DEADLINE_S, trace_path=path)
            runs.append(sample)
            problems += ["%s: %s" % f for f in failed_ops(sample, reference.get(workload, {}))]
            spans = load_spans(path)
            incl, selft = span_times(spans["parent"], spans["start"], spans["end"])
            if sum(selft) > sample["wall_s"]:
                problems.append("span self times sum to %.6f s > trace.wall_s %.6f s"
                                % (sum(selft), sample["wall_s"]))
            bad = [i for i in range(len(incl)) if not 0 <= selft[i] <= incl[i]]
            if bad:
                problems.append("%d spans with self time outside [0, inclusive]" % len(bad))
        counts = [{k: v for k, v in r["layers"].items() if k.endswith(".calls")}
                  for r in runs]
        if counts[0] != counts[1]:
            problems.append("call counts differ between two traced runs")
        if not runs[0]["ops"]:
            problems.append("no operations ran")
        print("[%s] %s: %d ops, %d spans" % ("PASS" if not problems else "FAIL",
                                            workload, len(runs[0]["ops"]),
                                            sum(v for v in counts[0].values())))
        for p in problems[:10]:
            print("  " + p)
        ok = ok and not problems
    return 0 if ok else 1


def write_reference():
    """Recompute every reference digest from the current code."""
    out = {}
    for workload in WORKLOADS:
        digests = {}
        for size in ("full", "smoke"):
            sample = run_worker(workload, size, 0, 900, all_items=True)
            for op_id, dig, problem in sample["ops"]:
                if problem:
                    raise BenchError("%s %s: %s" % (workload, op_id, problem))
                if digests.setdefault(op_id, dig) != dig:
                    raise BenchError("%s %s: sizes disagree" % (workload, op_id))
        out[workload] = dict(sorted(digests.items()))
        print("%s: %d digests" % (workload, len(digests)))
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the benchmark's own test and exit")
    ap.add_argument("--write-reference", action="store_true",
                    help="recompute reference.json from the current code")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            ap.error("--workload is required")
        return bench(args)
    except (BenchError, OSError, ValueError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
