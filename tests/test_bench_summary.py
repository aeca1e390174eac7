"""tools/bench_summary.py on synthetic run records."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_summary",
                                               ROOT / "tools" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mib")


def write_runs(tree, workload, walls, trace=0, rss=23.0):
    runs = tree / "perfbench" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    for seed, wall in enumerate(walls, start=1):
        record = {"seconds": 25, "git_rev": "unknown", "python": "3.11.7",
                  "nproc": 2, "attempted": 48, "failed": 0, "correct": True,
                  "summary": {m: {"median": wall if m != "peak_rss_mib" else rss}
                              for m in METRICS},
                  "layers": {"connection.transport.calls": 24}}
        name = "%s-seed%d-trace%d.json" % (workload, seed, trace)
        (runs / name).write_text(json.dumps(record))


def test_summary_counts_pairs_and_checks_the_claim(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent_walls = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    change_walls = [0.3] * 9 + [1.2]
    write_runs(parent, "holonomy", parent_walls)
    write_runs(change, "holonomy", change_walls)
    write_runs(parent, "pipeline", [0.2, 0.21, 0.22])
    write_runs(change, "pipeline", [0.2, 0.2, 0.2])
    write_runs(parent, "holonomy", [1.0], trace=1)
    write_runs(change, "holonomy", [0.3], trace=1)
    out = tmp_path / "BENCH.json"
    assert bench_summary.main(["--parent", str(parent), "--change", str(change),
                               "--title", "t", "--claim", "holonomy:wall_s",
                               "--target", "half", "--parent-rev", "abc",
                               "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["claim"]["met"] and data["claim"]["change_better_pairs"] == 9
    assert data["revs"]["parent"] == "abc"
    hol = data["workloads"]["holonomy"]
    assert hol["pairs"] == 10 and hol["ops"]["parent"] == {"attempted": 480, "failed": 0}
    assert hol["metrics"]["wall_s"]["parent"]["median"] == 1.0
    assert hol["metrics"]["wall_s"]["change"]["median"] == 0.3
    assert hol["metrics"]["peak_rss_mib"]["change_better_pairs"] == 0  # ties
    assert data["workloads"]["pipeline"]["metrics"]["wall_s"]["change_better_pairs"] == 2
    assert data["trace_holonomy"]["change"] == {"connection.transport.calls": 24}
    assert data["bytecode_cache"] == {"parent": False, "change": False}
    assert data["regressions"] == []


def test_summary_lists_metrics_worse_than_their_bound(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "holonomy", [1.0, 1.1, 0.9])
    write_runs(change, "holonomy", [0.5, 0.6, 0.4], rss=26.0)
    write_runs(parent, "pipeline", [0.2, 0.21, 0.22])
    write_runs(change, "pipeline", [0.3, 0.3, 0.3])
    write_runs(parent, "nc-simplex", [0.2, 0.2, 0.2])
    write_runs(change, "nc-simplex", [0.24, 0.24, 0.24], rss=25.0)
    out = tmp_path / "BENCH.json"
    bench_summary.main(["--parent", str(parent), "--change", str(change), "--title", "t",
                        "--claim", "holonomy:wall_s", "--target", "half",
                        "--out", str(out)])
    # peak_rss_mib +13% against a bound of 10%; the three times +43%
    # against 25%; nc-simplex +20% times and +8.7% memory are within
    found = {(r["workload"], r["metric"])
             for r in json.loads(out.read_text())["regressions"]}
    assert found == {("holonomy", "peak_rss_mib"), ("pipeline", "wall_s"),
                     ("pipeline", "cpu_s"), ("pipeline", "setup_s")}
    err = capsys.readouterr().err
    assert "regression: pipeline wall_s +42.9%, bound 25%" in err
    assert "nc-simplex" not in err


def test_summary_warns_when_one_tree_holds_bytecode(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "holonomy", [1.0, 1.1, 0.9])
    write_runs(change, "holonomy", [0.5, 0.6, 0.4])
    (change / "src" / "totconn" / "__pycache__").mkdir(parents=True)
    out = tmp_path / "BENCH.json"
    bench_summary.main(["--parent", str(parent), "--change", str(change), "--title", "t",
                        "--claim", "holonomy:wall_s", "--target", "half",
                        "--out", str(out)])
    assert json.loads(out.read_text())["bytecode_cache"] == {"parent": False,
                                                              "change": True}
    assert "only the change tree holds src/totconn/__pycache__" in capsys.readouterr().err


def test_claim_not_met_below_nine_tenths(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_runs(parent, "holonomy", [1.0] * 10)
    write_runs(change, "holonomy", [0.5] * 8 + [1.5] * 2)
    out = tmp_path / "BENCH.json"
    bench_summary.main(["--parent", str(parent), "--change", str(change), "--title", "t",
                        "--claim", "holonomy:wall_s", "--target", "half",
                        "--out", str(out)])
    assert not json.loads(out.read_text())["claim"]["met"]


def recorded_ops(node):
    """Every {"attempted", "failed"} record under an "ops" key."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "ops":
                yield from value.values()
            else:
                yield from recorded_ops(value)
    elif isinstance(node, list):
        for value in node:
            yield from recorded_ops(value)


def test_committed_bench_files_name_a_claim_and_failed_no_op():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        data = json.loads(path.read_text())
        assert data["claim"]["workload"] in workloads, path.name
        assert data["claim"]["metric"] in metrics, path.name
        ops = list(recorded_ops(data))
        assert ops, path.name
        assert all(record["failed"] == 0 for record in ops), path.name
