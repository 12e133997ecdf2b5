"""Paired benchmark runs of the checkout against a base revision.

    python tools/pair_bench.py (--base REV | --aa) --pairs N --workload W [--workload W2 ...]
                               [--seconds S] [--seed K]
                               [--claim W:METRIC [--expected TEXT]] [--out FILE [--merge]]

`perfbench/run.py` imports `sifb` from the `src/` beside its own parent
directory, so the script builds two trees under a temporary directory. Each
holds a copy of the checkout's `perfbench/` and `BENCHMARK.json`, and one
side's `src/`: the base's from `git archive REV`, the change's copied from
the checkout's working tree. With `--aa` (A/A) both sides hold the
checkout's `src/`. It then runs
`python3 perfbench/run.py --workload W --trace 0` (with `--seconds` and
`--seed` when given) in the two trees in turn, N times, swapping which side
runs first from pair to pair; with several workloads, each in the order
given, its N pairs before the next one's. A workload run with `--seed K`
is keyed `W-seed-K` in the document, else `W`.

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
is named `parent`. In A/A mode each metric also gets `aa_resolution`: the
smallest relative gain that would pass that rule on these runs, had the
change side read better by it (see `resolution`); a claim of a smaller
gain cannot be told from noise. With `--merge` the workloads are added to
the document already in FILE (same base and mode), its claim kept unless
`--claim` is given. Nothing is written into the checkout unless FILE is in
it, and the temporary trees are removed at the end.
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
    that side's src/; with base None (A/A), the checkout's on both sides."""
    trees = {side: os.path.join(tmp, side) for side in SIDES}
    for tree in trees.values():
        shutil.copytree(os.path.join(repo, "perfbench"), os.path.join(tree, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(repo, "BENCHMARK.json"), tree)
    copied = SIDES
    if base is not None:
        archive = subprocess.run(["git", "-C", repo, "archive", "--format=tar", base, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(trees["parent"], filter="data")
        copied = ("change",)
    for side in copied:
        shutil.copytree(os.path.join(repo, "src"), os.path.join(trees[side], "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return trees


def run_args(workload, args):
    """The arguments of `perfbench/run.py` for one run of workload."""
    cmd = ["--workload", workload, "--trace", "0"]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    return cmd


def run_once(tree, workload, args):
    """(exit code, the run's closing JSON object or None, its machine note)."""
    cmd = [sys.executable, "perfbench/run.py", *run_args(workload, args)]
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


def resolution(parent, change, direction):
    """The smallest relative gain r at which the claim rule passes on these
    runs had every change value read better by r (times 1 - r where lower is
    better, 1 + r where higher is): for every larger r the change is better in
    at least 9 of every 10 pairs, with a median gap above the parent's IQR.
    Negative when the change already passes; None when a change value is 0."""
    if 0 in change:
        return None
    lower = direction == "lower"

    def gain(p, c):
        # the r above which c, scaled by r, reads better than p
        return (c - p) / c if lower else (p - c) / c

    quart = _quartiles(parent)
    iqr = quart[1] - quart[0]
    bar = statistics.median(parent) + (-iqr if lower else iqr)
    pairs = sorted(gain(p, c) for p, c in zip(parent, change))
    need = -(-9 * len(pairs) // 10)
    return max(pairs[need - 1], gain(bar, statistics.median(change)))


def summarize(runs, better, aa=False):
    """The per-metric entries of one workload from runs: side -> the list of
    each pair's metrics ({name: value}); better: name -> "lower" or "higher";
    aa: add each metric's `aa_resolution`."""
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
        if aa:
            out[name]["aa_resolution"] = resolution(values["parent"], values["change"],
                                                    direction)
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
        "command": " ".join(["python3", "perfbench/run.py", *run_args(workload, args)]),
        "pairs": args.pairs,
        "seeds": [args.seed] * args.pairs,
        "first": first,
        "exit_codes": sorted(codes),
        "correct": correct,
        "failed": failed,
        "metrics": summarize(runs, args.better, aa=args.aa),
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
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--base", help="the base revision, for git archive")
    side.add_argument("--aa", action="store_true",
                      help="A/A: the checkout's src/ on both sides")
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
    parser.add_argument("--merge", action="store_true",
                        help="add the workloads to the document already in --out")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.claim is not None and args.aa:
        parser.error("--claim compares two sides; --aa has one")
    if args.merge and args.out is None:
        parser.error("--merge needs --out")
    if args.claim is not None and args.claim.split(":", 1)[0] not in args.workload:
        parser.error("--claim must name one of the workloads, as W:METRIC")
    key = (lambda w: w) if args.seed is None else (lambda w: f"{w}-seed-{args.seed}")
    base = "A/A" if args.aa else args.base
    doc = {}
    if args.merge and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            doc = json.load(f)
        if doc.get("base") != base:
            parser.error(f"--merge: {args.out} holds base {doc.get('base')!r}, not {base!r}")
    with open(os.path.join(args.repo, "BENCHMARK.json"), encoding="utf-8") as f:
        args.better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    workloads, machine = doc.get("workloads", {}), None
    with tempfile.TemporaryDirectory() as tmp:
        trees = build_trees(args.repo, args.base, tmp)
        for workload in args.workload:
            workloads[key(workload)], note = measure(trees, workload, args)
            machine = machine or note
    sides = ("the checkout's src/ on both sides (A/A; `parent` and `change` name the two "
             "trees), each copied from the working tree" if args.aa else
             f"base {args.base} (parent) against the checkout (change), the parent's src/ "
             "from `git archive` and the change's copied from the working tree")
    doc.update({
        "description": (
            f"Paired benchmark runs, {sides}, each beside a copy of the checkout's "
            "perfbench/: per workload, `pairs` pairs of `command`, alternating which side "
            "runs first from pair to pair (`first`). Per metric: every run, each side's "
            "median and quartiles (inclusive), the parent's IQR, the pairs in which the "
            "change reads better (ties count for neither), the gap of the medians in the "
            "better direction and the relative change of the medians"
            + ("; `aa_resolution` is the smallest relative gain that would pass the claim "
               "rule on these runs." if args.aa else ".")),
        "base": base,
        "machine": doc.get("machine") or machine,
    })
    if args.claim is not None:
        workload, metric = args.claim.split(":", 1)
        doc["claim"] = claim(workloads, f"{key(workload)}:{metric}", args.expected)
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
