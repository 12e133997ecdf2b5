import importlib.util
import json
import os
import subprocess

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "pair_bench.py")
spec = importlib.util.spec_from_file_location("pair_bench", TOOL)
pair_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pair_bench)

# prints fixed metrics that depend only on the src/ beside it, and logs which
# tree ran, in order
STUB = '''\
import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(root, "src", "speed.txt")) as f:
    speed = float(f.read())
with open(os.environ["PAIR_BENCH_LOG"], "a") as f:
    f.write(os.path.basename(root) + " " + " ".join(sys.argv[1:]) + "\\n")
print("machine: " + json.dumps({"nproc": 2}))
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    "setup_s": {"value": speed, "unit": "s"},
    "replicas_per_s": {"value": 10.0 / speed, "unit": "1/s"},
    "iterations": {"value": 564, "unit": "count"}}}))
'''


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


def stub_repo(tmp_path):
    """A checkout whose committed src/ reads speed 2.0 and whose working tree,
    the change, reads 1.0: twice as fast."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "src").mkdir()
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "setup_s", "better": "lower"},
        {"name": "replicas_per_s", "better": "higher"},
        {"name": "iterations", "better": "lower"},
        {"name": "peak_rss_mb", "better": "lower"}]}))
    (repo / "src" / "speed.txt").write_text("2.0")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "speed.txt").write_text("1.0")
    return repo


def test_pairs_alternate_sides_and_summarize_each_metric(tmp_path, monkeypatch):
    repo = stub_repo(tmp_path)
    before = sorted(p.relative_to(repo) for p in repo.rglob("*") if ".git" not in p.parts)
    log = tmp_path / "log.txt"
    monkeypatch.setenv("PAIR_BENCH_LOG", str(log))
    out = tmp_path / "bench.json"
    assert pair_bench.main(["--base", "HEAD", "--pairs", "3", "--workload", "w",
                            "--workload", "v", "--seconds", "1.5", "--claim", "w:setup_s",
                            "--expected", "half", "--repo", str(repo), "--out", str(out)]) == 0

    # each workload's pairs in turn, the side that runs first alternating
    order = ("parent", "change", "change", "parent", "parent", "change")
    assert log.read_text().split("\n")[:-1] == [
        f"{side} --workload {w} --trace 0 --seconds 1.5" for w in "wv" for side in order]
    after = sorted(p.relative_to(repo) for p in repo.rglob("*") if ".git" not in p.parts)
    assert after == before

    doc = json.loads(out.read_text())
    assert (doc["base"], doc["machine"]) == ("HEAD", {"nproc": 2})
    assert list(doc["workloads"]) == ["w", "v"]
    for name, entry in doc["workloads"].items():
        assert entry.pop("command") == (
            f"python3 perfbench/run.py --workload {name} --trace 0 --seconds 1.5")
    assert doc["workloads"]["v"] == doc["workloads"]["w"]
    assert doc["claim"] == {
        "workload": "w", "metric": "setup_s",
        "rule": "change better in >= 9 of every 10 pairs and median gap > parent IQR",
        "parent_median": 2.0, "change_median": 1.0, "gap": 1.0, "parent_iqr": 0.0,
        "relative_change_of_medians": -0.5, "change_better_pairs": 3, "pairs": 3,
        "met": True, "expected_beforehand": "half"}
    w = doc["workloads"]["w"]
    assert w["first"] == ["parent", "change", "parent"]
    assert (w["pairs"], w["exit_codes"], w["correct"], w["failed"]) == (3, [0], True, 0)
    # a metric that no run reports is left out
    assert sorted(w["metrics"]) == ["iterations", "replicas_per_s", "setup_s"]
    setup = w["metrics"]["setup_s"]
    assert setup["parent"] == [2.0] * 3 and setup["change"] == [1.0] * 3
    assert (setup["parent_median"], setup["change_median"], setup["parent_iqr"]) == (2.0, 1.0, 0.0)
    assert setup["change_better_pairs"] == 3 and setup["gap"] == 1.0
    assert setup["gap_exceeds_parent_iqr"]
    assert setup["relative_change_of_medians"] == pytest.approx(-0.5)
    # higher is better here, so the change is better and its gap positive
    rate = w["metrics"]["replicas_per_s"]
    assert rate["change_better_pairs"] == 3 and rate["gap"] == 5.0
    # ties count for neither side
    same = w["metrics"]["iterations"]
    assert same["change_better_pairs"] == 0 and not same["gap_exceeds_parent_iqr"]
    # quartiles are the inclusive ones, as in the committed BENCH files
    assert pair_bench._quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == [2.0, 4.0]


def test_a_claim_needs_nine_of_ten_pairs_and_a_gap_above_the_iqr():
    def workloads(better_pairs, exceeds):
        return {"w": {"pairs": 10, "metrics": {"setup_s": {
            "parent_median": 2.0, "change_median": 1.0, "gap": 1.0, "parent_iqr": 0.5,
            "relative_change_of_medians": -0.5, "change_better_pairs": better_pairs,
            "gap_exceeds_parent_iqr": exceeds}}}}

    assert pair_bench.claim(workloads(9, True), "w:setup_s", None)["met"]
    assert not pair_bench.claim(workloads(8, True), "w:setup_s", None)["met"]
    assert not pair_bench.claim(workloads(10, False), "w:setup_s", None)["met"]


def test_aa_puts_the_checkout_on_both_sides_and_merges_by_seed(tmp_path, monkeypatch):
    repo = stub_repo(tmp_path)
    log = tmp_path / "log.txt"
    monkeypatch.setenv("PAIR_BENCH_LOG", str(log))
    out = tmp_path / "aa.json"
    assert pair_bench.main(["--aa", "--pairs", "2", "--workload", "w",
                            "--repo", str(repo), "--out", str(out)]) == 0
    assert pair_bench.main(["--aa", "--pairs", "1", "--workload", "w", "--seed", "7",
                            "--repo", str(repo), "--out", str(out), "--merge"]) == 0
    assert log.read_text().split("\n")[:-1] == [
        "parent --workload w --trace 0", "change --workload w --trace 0",
        "change --workload w --trace 0", "parent --workload w --trace 0",
        "parent --workload w --trace 0 --seed 7", "change --workload w --trace 0 --seed 7"]

    doc = json.loads(out.read_text())
    assert doc["base"] == "A/A" and "claim" not in doc
    assert list(doc["workloads"]) == ["w", "w-seed-7"]
    assert doc["workloads"]["w-seed-7"]["seeds"] == [7]
    for entry in doc["workloads"].values():
        # the working tree's speed on both sides, not the committed one
        setup = entry["metrics"]["setup_s"]
        assert setup["parent"] == setup["change"] == [1.0] * entry["pairs"]
        # equal runs: any gain at all passes, and only a gain
        assert {m["aa_resolution"] for m in entry["metrics"].values()} == {0.0}

    # a merge keeps to one base, and a claim needs two sides
    with pytest.raises(SystemExit):
        pair_bench.main(["--base", "HEAD", "--pairs", "1", "--workload", "w",
                         "--repo", str(repo), "--out", str(out), "--merge"])
    with pytest.raises(SystemExit):
        pair_bench.main(["--aa", "--pairs", "1", "--workload", "w", "--claim", "w:setup_s",
                         "--repo", str(repo)])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("direction", ["lower", "higher"])
def test_aa_resolution_is_the_smallest_gain_that_passes_the_claim_rule(direction, seed):
    rng = np.random.default_rng(seed)
    parent, change = (list(1.0 + 0.05 * rng.standard_normal(10)) for _ in range(2))
    r = pair_bench.resolution(parent, change, direction)

    def passes(gain):
        scale = 1.0 - gain if direction == "lower" else 1.0 + gain
        runs = {"parent": [{"m": p} for p in parent],
                "change": [{"m": c * scale} for c in change]}
        workloads = {"w": {"pairs": 10,
                           "metrics": pair_bench.summarize(runs, {"m": direction})}}
        return pair_bench.claim(workloads, "w:m", None)["met"]

    assert passes(r + 1e-9) and not passes(r - 1e-9)
    assert pair_bench.resolution(parent, [0.0] + change[1:], direction) is None
