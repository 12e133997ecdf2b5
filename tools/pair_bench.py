"""Paired benchmark runs of the checkout against a base revision.

    python tools/pair_bench.py --base REV --pairs N --workload W [--workload W2 ...]
                               [--seconds S] [--seed K]
                               [--claim W:METRIC [--expected TEXT]] [--out FILE]

`perfbench/run.py` imports `sifb` from the `src/` beside its own parent
directory, so the script builds two trees under a temporary directory. Each
holds a copy of the checkout's `perfbench/` and `BENCHMARK.json`, and one
side's `src/`: the base's from `git archive REV`, the change's copied from
the checkout's working tree. It then runs
`python3 perfbench/run.py --workload W --trace 0` (with `--seconds` and
`--seed` when given) in the two trees in turn, N times, swapping which side
runs first from pair to pair; with several workloads, each in the order
given, its N pairs before the next one's.

It writes one JSON document, to FILE or to stdout, in the layout of the
repository's `BENCH_<PR>.json` files: per workload the pair count, the
seeds, which side ran first in each pair, the exit codes, whether every run
passed its checks and the failed replicas; per end-to-end metric every
run's value, each side's median and inclusive quartiles, the base's IQR,
the number of pairs in which the change reads better (lower, or higher
where `BENCHMARK.json` says so; ties count for neither), the gap between
the medians in the better direction and whether it exceeds the base's IQR,
and the relative change of the medians; and the machine note of the first
run. With `--claim W:METRIC` it adds the claim block: that metric of that
workload, and whether the change reads better in at least 9 of every 10
pairs with a gap of the medians above the parent's IQR (`met`), with TEXT,
the gain expected before the runs, as `expected_beforehand`. The base side
is named `parent`. Nothing is written into the checkout
unless FILE is in it, and the temporary trees are removed at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def build_trees(repo, base, tmp):
    """side -> a tree holding the checkout's perfbench/ and BENCHMARK.json and
    that side's src/."""
    trees = {side: os.path.join(tmp, side) for side in SIDES}
    for tree in trees.values():
        shutil.copytree(os.path.join(repo, "perfbench"), os.path.join(tree, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(repo, "BENCHMARK.json"), tree)
    archive = subprocess.run(["git", "-C", repo, "archive", "--format=tar", base, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(trees["parent"], filter="data")
    shutil.copytree(os.path.join(repo, "src"), os.path.join(trees["change"], "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return trees


def run_once(tree, workload, args):
    """(exit code, the run's closing JSON object or None, its machine note)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    result, machine = None, None
    for line in proc.stdout.splitlines():
        if line.startswith("machine: "):
            machine = json.loads(line[len("machine: "):])
        elif line.startswith("{"):
            result = json.loads(line)
    return proc.returncode, result, machine


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs, better):
    """The per-metric entries of one workload from runs: side -> the list of
    each pair's metrics ({name: value}); better: name -> "lower" or "higher"."""
    out = {}
    for name, direction in better.items():
        values = {side: [r.get(name) for r in runs[side]] for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            continue
        sign = 1.0 if direction == "lower" else -1.0
        med = {side: statistics.median(values[side]) for side in SIDES}
        quart = {side: _quartiles(values[side]) for side in SIDES}
        iqr = quart["parent"][1] - quart["parent"][0]
        gap = sign * (med["parent"] - med["change"])
        out[name] = {
            "parent": values["parent"],
            "change": values["change"],
            "parent_median": med["parent"],
            "parent_quartiles": quart["parent"],
            "change_median": med["change"],
            "change_quartiles": quart["change"],
            "parent_iqr": iqr,
            "change_better_pairs": sum(sign * (p - c) > 0 for p, c in zip(
                values["parent"], values["change"])),
            "gap": gap,
            "gap_exceeds_parent_iqr": gap > iqr,
            "relative_change_of_medians": (med["change"] / med["parent"] - 1.0
                                           if med["parent"] else None),
        }
    return out


def measure(trees, workload, args):
    """The entry of one workload: its N pairs, run in turn in the two trees,
    and its machine note."""
    runs = {side: [] for side in SIDES}
    first, codes, correct, failed, machine = [], set(), True, 0, None
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            code, result, note = run_once(trees[side], workload, args)
            print(f"{workload} pair {k + 1}/{args.pairs} {side}: exit {code}", file=sys.stderr)
            codes.add(code)
            machine = machine or note
            correct = correct and result is not None and bool(result["correct"])
            failed += result["failed"] if result else 0
            runs[side].append({name: m["value"] for name, m in
                               (result or {}).get("metrics", {}).items()})
    return {
        "pairs": args.pairs,
        "seeds": [args.seed] * args.pairs,
        "first": first,
        "exit_codes": sorted(codes),
        "correct": correct,
        "failed": failed,
        "metrics": summarize(runs, args.better),
    }, machine


def claim(workloads, target, expected):
    """The claim block for target, "WORKLOAD:METRIC"."""
    workload, metric = target.split(":", 1)
    m = workloads[workload]["metrics"][metric]
    pairs = workloads[workload]["pairs"]
    return {
        "workload": workload,
        "metric": metric,
        "rule": "change better in >= 9 of every 10 pairs and median gap > parent IQR",
        **{key: m[key] for key in ("parent_median", "change_median", "gap", "parent_iqr",
                                   "relative_change_of_medians", "change_better_pairs")},
        "pairs": pairs,
        "met": 10 * m["change_better_pairs"] >= 9 * pairs and m["gap_exceeds_parent_iqr"],
        "expected_beforehand": expected,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the base revision, for git archive")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload; repeat for several")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--claim", default=None, metavar="W:METRIC",
                        help="the claimed metric of one of the workloads")
    parser.add_argument("--expected", default=None, help="the claim's expected gain")
    parser.add_argument("--repo", default=ROOT, help="the checkout (default: this one)")
    parser.add_argument("--out", default=None, help="the JSON file (default: stdout)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.claim is not None and args.claim.split(":", 1)[0] not in args.workload:
        parser.error("--claim must name one of the workloads, as W:METRIC")
    with open(os.path.join(args.repo, "BENCHMARK.json"), encoding="utf-8") as f:
        args.better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    workloads, machine = {}, None
    with tempfile.TemporaryDirectory() as tmp:
        trees = build_trees(args.repo, args.base, tmp)
        for workload in args.workload:
            workloads[workload], note = measure(trees, workload, args)
            machine = machine or note
    seconds = "" if args.seconds is None else f" --seconds {args.seconds:g}"
    seed = "" if args.seed is None else f" --seed {args.seed}"
    doc = {
        "description": (
            f"Paired benchmark runs, base {args.base} (parent) against the checkout "
            f"(change), {args.pairs} pairs of `python3 perfbench/run.py --workload W"
            f"{seconds}{seed} --trace 0` per workload W, the parent's src/ from `git archive` "
            "and the change's copied from the working tree, each beside a copy of the "
            "checkout's perfbench/, alternating which side runs first from pair to pair "
            "(`first`). Per metric: every run, each side's median and quartiles (inclusive), "
            "the parent's IQR, the pairs in which the change reads better (ties count for "
            "neither), the gap of the medians in the better direction and the relative "
            "change of the medians."),
        "machine": machine,
    }
    if args.claim is not None:
        doc["claim"] = claim(workloads, args.claim, args.expected)
    doc["workloads"] = workloads
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    ok = all(w["correct"] and w["exit_codes"] == [0] for w in workloads.values())
    return 0 if ok else 1


if __name__ == "__main__":
    # a terminated run still removes its trees and stops the run.py it waits on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
