"""Summarise paired benchmark runs of a parent tree and a change tree.

    python3 tools/bench_summary.py --parent PARENT_TREE --change CHANGE_TREE \
        --title TITLE --claim WORKLOAD:METRIC --target TEXT [--parent-rev REV] \
        [--extra EXTRA.json] --out BENCH_<n>.json

Each tree is a checkout in which ``perfbench/run.py --trace 0`` was run
once per seed; its run records are ``perfbench/runs/<workload>-seed<S>-
trace0.json``.  A pair is one seed run in both trees.  For every workload
and every end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's run medians (a run's metric is the median over its samples, as
``run.py`` reports it), their median and quartiles (inclusive method),
the relative change of the medians, and the number of pairs the change
won (ties count for neither side).  The claim is met when the change won
at least nine tenths of the pairs of the claimed workload and the medians
differ by more than the parent's interquartile range; the target text
records the size of the gain asked for.  The summary records whether
each tree holds ``src/totconn/__pycache__``: a tree with compiled
bytecode skips compiling the package in every sample, which shows in
``setup_s``, so a difference between the trees is warned about on
stderr.  Every (workload, end-to-end metric) whose change median is
worse than the parent median by more than the metric's relative
``bound`` is listed under ``regressions`` and printed on stderr.  Where
both trees also hold a
``--trace 1`` record of the claimed workload for one seed, its per-layer
metrics are included.  ``--extra`` merges a JSON object of notes into the
top level.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def load_records(tree, trace):
    """{workload: {seed: record}} of the run records in a tree."""
    out = {}
    for path in glob.glob(os.path.join(tree, "perfbench", "runs", "*.json")):
        m = RECORD.match(os.path.basename(path))
        if m is None or int(m["trace"]) != trace:
            continue
        with open(path) as fh:
            out.setdefault(m["workload"], {})[int(m["seed"])] = json.load(fh)
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def better_count(parent, change, better):
    sign = 1 if better == "lower" else -1
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)


def summarise_workload(parent, change, metrics):
    seeds = sorted(set(parent) & set(change))
    if len(seeds) < 2:
        raise SystemExit("need at least two seeds run in both trees, got %r" % (seeds,))
    out = {"seeds": seeds, "pairs": len(seeds), "ops": {}, "metrics": {}}
    for side, records in (("parent", parent), ("change", change)):
        out["ops"][side] = {"attempted": sum(records[s]["attempted"] for s in seeds),
                            "failed": sum(records[s]["failed"] for s in seeds)}
    out["correct"] = all(r[s]["correct"] for r in (parent, change) for s in seeds)
    for m in metrics:
        name = m["name"]
        runs = {side: [round(records[s]["summary"][name]["median"], 4) for s in seeds]
                for side, records in (("parent", parent), ("change", change))}
        p, c = spread(runs["parent"]), spread(runs["change"])
        out["metrics"][name] = {
            "unit": m["unit"], "bound": m["bound"], "parent": p, "change": c,
            "relative_change": round(c["median"] / p["median"] - 1, 4),
            "change_better_pairs": better_count(runs["parent"], runs["change"],
                                                m["better"]),
            "runs": runs,
        }
    return out


def claim_summary(workloads, workload, metric, better, target):
    if workload not in workloads:
        raise SystemExit("no paired runs of the claimed workload %r" % (workload,))
    entry = workloads[workload]["metrics"][metric]
    gap = abs(entry["change"]["median"] - entry["parent"]["median"])
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    pairs = workloads[workload]["pairs"]
    improved = (entry["relative_change"] < 0) == (better == "lower")
    return {"workload": workload, "metric": metric, "better": better,
            "target": target,
            "met": (improved and entry["change_better_pairs"] * 10 >= 9 * pairs
                    and gap > iqr),
            "change_better_pairs": entry["change_better_pairs"],
            "relative_change": entry["relative_change"],
            "median_gap_s": round(gap, 4), "parent_iqr_s": round(iqr, 4)}


def regressions(workloads, metrics):
    """The (workload, metric) entries whose change median is worse than
    the parent median by more than the metric's relative bound, each
    printed on stderr."""
    out = []
    for workload, entry in workloads.items():
        for m in metrics:
            rel = entry["metrics"][m["name"]]["relative_change"]
            if (rel if m["better"] == "lower" else -rel) > m["bound"]:
                out.append({"workload": workload, "metric": m["name"],
                            "relative_change": rel, "bound": m["bound"]})
                print("regression: %s %s %+.1f%%, bound %.0f%%"
                      % (workload, m["name"], 100 * rel, 100 * m["bound"]),
                      file=sys.stderr)
    return out


def bytecode_caches(parent_tree, change_tree):
    """{side: whether the tree holds the package's bytecode cache}; warns
    on stderr when the two differ."""
    out = {side: os.path.isdir(os.path.join(tree, "src", "totconn", "__pycache__"))
           for side, tree in (("parent", parent_tree), ("change", change_tree))}
    if out["parent"] != out["change"]:
        print("warning: only the %s tree holds src/totconn/__pycache__, so its "
              "samples skip compiling the package and setup_s is not comparable"
              % ("parent" if out["parent"] else "change"), file=sys.stderr)
    return out


def trace_summary(parent_tree, change_tree, workload):
    """Per-layer metrics of one seed traced in both trees, or None."""
    parent = load_records(parent_tree, 1).get(workload, {})
    change = load_records(change_tree, 1).get(workload, {})
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        return None
    seed = seeds[0]
    p, c = parent[seed], change[seed]
    return {"command": "python3 perfbench/run.py --workload %s --seed %d --seconds %d "
                       "--trace 1" % (workload, seed, p["seconds"]),
            "parent": {k: round(v, 4) for k, v in sorted(p["layers"].items())},
            "change": {k: round(v, 4) for k, v in sorted(c["layers"].items())},
            "correct": {"parent": p["correct"], "change": c["correct"]},
            "failed": {"parent": p["failed"], "change": c["failed"]}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent's tree")
    ap.add_argument("--change", required=True, help="the change's tree")
    ap.add_argument("--title", required=True)
    ap.add_argument("--claim", required=True, metavar="WORKLOAD:METRIC")
    ap.add_argument("--target", required=True,
                    help="the gain asked for, in words")
    ap.add_argument("--parent-rev", help="the parent's commit, when its tree "
                                         "has no .git to read it from")
    ap.add_argument("--extra", help="JSON object merged into the top level")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    parent = load_records(args.parent, 0)
    change = load_records(args.change, 0)
    workloads = {w: summarise_workload(parent[w], change[w], metrics)
                 for w in (w["name"] for w in spec["workloads"])
                 if w in parent and w in change}
    claim_workload, claim_metric = args.claim.split(":")
    better = next(m["better"] for m in metrics if m["name"] == claim_metric)
    some = next(iter(parent[claim_workload].values()))
    seconds = some["seconds"]
    parent_rev = args.parent_rev or some["git_rev"]

    out = {
        "title": args.title,
        "claim": claim_summary(workloads, claim_workload, claim_metric, better,
                               args.target),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds %d "
                   "--trace 0" % seconds,
        "method": "%d pairs per workload, parent and change alternating, each side "
                  "run from its own tree; a run's metric is its median over samples "
                  "(times scaled to the reference kernel); the summary is the median "
                  "and quartiles (inclusive method) of the run medians; "
                  "change_better_pairs counts pairs where the change reads better"
                  % workloads[claim_workload]["pairs"],
        "revs": {"parent": parent_rev,
                 "change": "the parent plus this change, run from an exported "
                           "working tree"},
        "python": some["python"],
        "nproc": some["nproc"],
        "bytecode_cache": bytecode_caches(args.parent, args.change),
        "regressions": regressions(workloads, metrics),
        "workloads": workloads,
    }
    trace = trace_summary(args.parent, args.change, claim_workload)
    if trace is not None:
        out["trace_" + claim_workload] = trace
    if args.extra:
        with open(args.extra) as fh:
            out.update(json.load(fh))
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    claim = out["claim"]
    print("%s %s: %+.1f%%, change better in %d of %d pairs, claim %s"
          % (claim_workload, claim_metric, 100 * claim["relative_change"],
             claim["change_better_pairs"], workloads[claim_workload]["pairs"],
             "met" if claim["met"] else "NOT met"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
