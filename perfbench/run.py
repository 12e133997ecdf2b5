"""Benchmark of the sifb package: four workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fb-small-stoch --seed 2024 --seconds 20 --trace 0

Workloads (see `workloads.py`): fb-small-stoch, sweep-cli, pd-split-cli,
fb-large. Without `--seed`, each uses the seed of the acceptance-suite
problem it reproduces.

`--trace 0` cycles through the workload's units (replicas, `sifb run`
calls or whole sweeps) for about `--seconds`, at least one full pass,
stopping at the unit boundary nearest to that time, and reports the end-to-end metrics: for each unit the median over its
samples, summed over the units, and scaled to reference speed by the
calibration slices timed between units (`speed.py`; fb-large is left
unscaled). The measured wall times are printed too. It fails if any replica
does not converge, exits non-zero, or misses its reference bound, or if a
unit's iteration counts or reference distances differ between its samples.

`--trace 1` runs one untraced round, then one traced round, and reports the
per-layer metrics, the plain-numpy floor and the tracing overhead. It fails
if a tracer self-check does not hold.

Each run prints one line per metric, a machine note, and as its last line a
JSON object {"correct", "attempted", "failed", "metrics"}; it also writes
that and the span aggregates to `.perfbench/results/`. Exit status: 0 when
every check passed, 1 when a check failed, 2 when the sifb sources are
missing. BLAS threading is left at the library default.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "total_s": "s", "setup_s": "s", "solve_s": "s", "iter_us": "us",
    "iterations": "count", "replicas_per_s": "1/s", "dist_to_ref_max": "norm",
    "peak_rss_mb": "MB",
}


def _import_sifb():
    """Import sifb from this checkout's src/ only; None when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "sifb", "__init__.py")):
        return None
    sys.path[:0] = [SRC, ROOT]
    import sifb

    if not os.path.abspath(sifb.__file__).startswith(SRC + os.sep):
        return None
    return sifb


def machine_note():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    note = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "l3_bytes": None,
    }
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            note["blas_threads"] = fn()
    # glibc sysconf(_SC_LEVEL3_CACHE_SIZE); the name is missing from os.sysconf
    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    l3 = libc.sysconf(194)
    note["l3_bytes"] = l3 if l3 > 0 else None
    return note


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux; children: the largest waited-for child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(samples, factor):
    """End-to-end metrics from the repeated samples of each unit.

    `samples[i]` holds every `Round` unit i produced. Each time is the
    median over a unit's samples, summed over the units: one pass's worth,
    then scaled to reference speed by `factor` (see `speed.py`). Also
    returns the unscaled times.
    """
    problems = []
    for i, runs in enumerate(samples):
        first = runs[0].replicas
        for k, rnd in enumerate(runs[1:], start=1):
            if [r.iterations for r in rnd.replicas] != [r.iterations for r in first]:
                problems.append(f"unit {i} sample {k}: iteration counts differ from sample 0")
            if [r.dist for r in rnd.replicas] != [r.dist for r in first]:
                problems.append(f"unit {i} sample {k}: reference distances differ "
                                "from sample 0")
    attempted = sum(len(rnd.replicas) for runs in samples for rnd in runs)
    failed = sum(not r.ok for runs in samples for rnd in runs for r in rnd.replicas)
    if failed:
        problems.append(f"{failed} of {attempted} replicas failed")

    def pass_sum(field):
        return sum(statistics.median(field(rnd) for rnd in runs) for runs in samples)

    raw = {
        "total_s": pass_sum(lambda rnd: rnd.total_s),
        "setup_s": pass_sum(lambda rnd: sum(r.setup_s for r in rnd.replicas)),
        "solve_s": pass_sum(lambda rnd: sum(r.solve_s for r in rnd.replicas)),
    }
    total_s, solve_s = factor * raw["total_s"], factor * raw["solve_s"]
    iterations = sum(r.iterations for runs in samples for r in runs[0].replicas)
    converged = sum(r.ok for runs in samples for r in runs[0].replicas)
    values = {
        "total_s": total_s,
        "setup_s": factor * raw["setup_s"],
        "solve_s": solve_s,
        "iter_us": 1e6 * solve_s / max(iterations, 1),
        "iterations": iterations,
        "replicas_per_s": converged / total_s,
        "dist_to_ref_max": max(r.dist for runs in samples for r in runs[0].replicas),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, attempted, failed, problems, raw


def run_untraced(workload, seconds):
    """Cycle through the units for about `seconds`, at least one pass.

    Calibration slices run after each unit, unless the unit timed its own
    (sweep-cli, in its workers).
    """
    from perfbench.speed import Speed
    from perfbench.tracer import Probe

    workload.prepare()
    units = workload.units()
    samples = [[] for _ in units]
    speed = Speed()
    probe = Probe(trace=False).install()
    try:
        workload.attach(probe)
        done = 0
        start = time.perf_counter()
        # stop at the unit boundary nearest to `seconds`, after one pass
        while (done < len(units)
               or (time.perf_counter() - start) * (1 + 0.5 / done) < seconds):
            i = done % len(units)
            rnd = workload.run_unit(units[i], probe)
            samples[i].append(rnd)
            if rnd.slices:
                speed.points += rnd.slices
            else:
                speed.sample(rnd.total_s)
            done += 1
    finally:
        probe.uninstall()
    factor = speed.factor() if workload.calibrated else 1.0
    metrics, attempted, failed, problems, raw = end_to_end(samples, factor)
    detail = {"passes": done / len(units), "speed_factor": speed.factor(),
              "speed_factor_applied": factor, "raw": raw}
    return metrics, attempted, failed, problems, detail


def run_traced(workload):
    from perfbench.layers import per_layer
    from perfbench.tracer import Probe

    workload.prepare()
    rounds = []
    layers = None
    for trace in (False, True):
        probe = Probe(trace=trace).install()
        try:
            workload.attach(probe)
            rounds.append(workload.round(probe))
            if trace:
                layers = probe.layers()
            else:
                base_workers = list(getattr(workload, "workers", []))
        finally:
            probe.uninstall()
    floor = workload.floor()
    metrics, problems, detail = per_layer(workload, rounds[0], rounds[1], layers,
                                          base_workers, floor)
    attempted = sum(len(r.replicas) for r in rounds)
    failed = sum(not rep.ok for r in rounds for rep in r.replicas)
    if failed:
        problems.append(f"{failed} of {attempted} replicas failed")
    return metrics, attempted, failed, problems, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_sifb() is None:
        print(f"perfbench: no sifb package under {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, make_workdir

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    note = machine_note()
    workdir = make_workdir(ROOT)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        if args.trace:
            result = run_traced(workload)
        else:
            result = run_untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, problems, detail = result

    for name, m in metrics.items():
        print(f"{workload.name} seed={workload.seed} {name} = {m['value']:.6g} {m['unit']}")
    if "raw" in detail:
        print(f"{workload.name} seed={workload.seed} measured wall times "
              f"(before the speed factor {detail['speed_factor_applied']:.4g}): "
              + ", ".join(f"{k} = {v:.6g} s" for k, v in detail["raw"].items()))
    print(f"{workload.name} seed={workload.seed} failed_frac = {failed / attempted:.6g} "
          f"ratio ({failed} of {attempted} replicas)")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    print("machine: " + json.dumps(note, sort_keys=True))
    out = {"correct": not problems, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir,
                        f"{workload.name}-seed{workload.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(dict(out, workload=workload.name, seed=workload.seed, machine=note,
                       problems=problems, **detail), f, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
