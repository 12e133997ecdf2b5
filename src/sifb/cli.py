"""Config-driven command-line runner.

Subcommands: `validate` (check every structural condition, exit 0 iff all
pass), `run` (one solve, artifacts on disk), `sweep` (independent multi-seed
replicas, concurrent), `constants` (print the feasibility constants).

Exit codes are a stable contract: 0 success, 1 validation failure, 2 run
failure (any replica not converged, a coupling norm that cannot be computed,
a reference solve that does not converge, or an I/O problem).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import statistics
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from .config import build_experiment, load_config
from .errors import (
    ConfigurationError,
    InfeasibleProblemError,
    NormEstimationError,
    OracleError,
)
from .operators import check_cocoercivity
from .primal_dual import compute_constants, extract_primal_dual
from .solver import CONVERGED, run
from .stochastic import derive_seeds

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUN = 2

DEFAULT_OUT = "runs"  # the output directory without --out
SWEEP_ERROR = "error"  # status of a sweep replica that raised
_sweep_experiment = None  # the running sweep's: the parent's build, inherited by fork


def _validation_rows(exp):
    """(name, passed, value) rows, one per condition gating this experiment."""
    rows = [(name, sched.violation() is None, json.dumps(sched.to_config()))
            for name, sched in (("summable noise variance (sum sigma_n^2 < inf)", exp.noise),
                                ("summable inertia (sum alpha_n < inf)", exp.inertia))]

    if exp.pd is not None:
        try:
            rep = compute_constants(exp.pd)
            rows.append(("coupling norm c < 1", True, f"c={rep.c:.6g}"))
            if exp.algorithm == "pd_class2":
                rows.append(("class-II constant 2*beta > 1", rep.feasible_class2,
                             f"beta={rep.beta:.6g}"))
            else:
                rows.append(("class-I constant beta_hat > 1/2", rep.feasible_class1,
                             f"beta_hat={rep.beta_hat:.6g}"))
        except InfeasibleProblemError as e:
            rows.append(("coupling norm c < 1", False, str(e)))
        if exp.algorithm == "pd_class2":
            rows.append(("all primal operators zero", exp.pd.primal_ops.is_zero(), ""))

    inst = None
    if all(passed for _, passed, _ in rows[2:]):  # else a failed gate refuses it
        try:
            inst = exp.make_instance(exp.seeds[0])
        except ConfigurationError as e:
            rows.insert(2, ("problem assembly", False, str(e)))

    if inst is not None:
        step_row = "step size in [eps, (2-eps)*beta]"
        try:
            cfg = exp.solver_config(inst.beta)
        except ConfigurationError as e:
            rows.append(("solver settings", False, str(e)))
        else:
            try:
                gamma = cfg.step_size(inst)
                lo, hi = cfg.gamma_range
                rows.append((f"{step_row} = [{lo:.3g}, {hi:.3g}]", True, f"gamma={gamma:.6g}"))
            except ConfigurationError as e:
                rows.append((step_row, False, str(e)))
        if exp.constants_given:
            if exp.pd is not None:
                prob = exp.pd
                a1 = check_cocoercivity(prob.smooth, metric=prob.V, trials=50,
                                        seed=0, beta=prob.nu0)
                a2 = check_cocoercivity(prob.dual_smooth, metric=prob.W, trials=50,
                                        seed=1, beta=prob.mu0)
                rows.append(("cocoercivity audit of given nu0", a1.passed,
                             f"min_slack={a1.min_slack:.3g} nu0={prob.nu0:.6g}"))
                rows.append(("cocoercivity audit of given mu0", a2.passed,
                             f"min_slack={a2.min_slack:.3g} mu0={prob.mu0:.6g}"))
            else:
                audit = check_cocoercivity(inst.oracle.base, trials=50, seed=0,
                                           beta=inst.beta)
                rows.append(("cocoercivity audit of given constants", audit.passed,
                             f"min_slack={audit.min_slack:.3g} beta={audit.beta:.6g}"))
    return rows


def _load_experiment(args):
    return build_experiment(load_config(args.config),
                            base_dir=os.path.dirname(os.path.abspath(args.config)))


def cmd_validate(args, exp=None):
    """Print one row per gating condition; `exp` reuses an experiment already built."""
    if exp is None:
        exp = _load_experiment(args)
    rows = _validation_rows(exp)
    ok = True
    for name, passed, value in rows:
        ok &= passed
        tag = "PASS" if passed else "FAIL"
        print(f"[{tag}] {name}" + (f"  ({value})" if value else ""))
    print(f"validation: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_VALIDATION


def _finite_or_null(value):
    """Non-finite floats (a diverged run's residual) become null: strict JSON."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_finite_or_null(payload), f, indent=2, sort_keys=True,
                  default=float, allow_nan=False)
        f.write("\n")


def _execute_single(exp, seed, out_dir, trace_name="trace.csv", reference=(None, None)):
    inst = exp.make_instance(seed)
    cfg = exp.solver_config(inst.beta)
    ref_primal, certificate = reference
    t0 = time.perf_counter()
    # the trace tracks distances only on the plain route; the primal-dual
    # routes report the primal distance in the summary below
    x, trace = run(inst, cfg, reference=ref_primal if exp.algorithm == "sifb" else None)
    trace.wall_time = time.perf_counter() - t0
    summary = trace.summary()
    summary.update({"seed": seed, "algorithm": exp.algorithm})
    if ref_primal is not None:
        summary["reference_certificate"] = certificate
        primal = x if exp.algorithm == "sifb" else extract_primal_dual(x, exp.pd)[0]
        summary["dist_to_ref"] = (primal - ref_primal).norm()
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, trace_name), "w", encoding="utf-8") as f:
        trace.to_csv(f)
    return x, trace, summary


def cmd_run(args):
    if args.seed is not None and args.seed < 0:
        raise ConfigurationError(f"--seed must be a non-negative integer, got {args.seed}")
    exp = _load_experiment(args)
    code = cmd_validate(args, exp)
    if code != EXIT_OK:
        return code
    seed = args.seed if args.seed is not None else exp.run_seed
    out_dir = args.out or DEFAULT_OUT
    try:
        _, trace, summary = _execute_single(exp, seed, out_dir, reference=exp.reference())
        _write_json(os.path.join(out_dir, "summary.json"), summary)
        snapshot = dict(exp.raw)
        snapshot["resolved_seed"] = seed
        _write_json(os.path.join(out_dir, "resolved_config.json"), snapshot)
    except OSError as e:
        print(f"i/o failure at {getattr(e, 'filename', out_dir)}: {e}", file=sys.stderr)
        return EXIT_RUN
    print(f"status={summary['status']} iterations={summary['iterations']} "
          f"final_fp_residual={summary['final_fp_residual']:.6g} "
          f"wall_time={summary['wall_time']:.3f}s -> {out_dir}")
    return EXIT_OK if summary["status"] == CONVERGED else EXIT_RUN


def _sweep_worker(payload):
    """One replica's summary; a replica that raises gets status `error`.

    A worker that is not forked from the sweep builds its experiment once.
    The error is caught here, so it costs only its own replica: the others
    keep their traces, and the sweep reports it (a one-line message in the
    summaries, the traceback on stderr) and exits 2.
    """
    global _sweep_experiment
    cfg, base_dir, seed, out_dir, index = payload
    try:
        if _sweep_experiment is None:
            _sweep_experiment = build_experiment(cfg, base_dir=base_dir)
        _, trace, summary = _execute_single(_sweep_experiment, seed, out_dir,
                                            trace_name=f"trace_{index:03d}.csv")
    except Exception as e:
        summary = {"status": SWEEP_ERROR,
                   "error": " ".join(f"{type(e).__name__}: {e}".split()),
                   "traceback": traceback.format_exc()}
    summary["index"] = index
    return summary


def _usable_cpus():
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(args):
    global _sweep_experiment
    for option, value in (("--seeds", args.seeds), ("--jobs", args.jobs)):
        if value is not None and value < 1:
            raise ConfigurationError(f"{option} must be at least 1, got {value}")
    exp = _load_experiment(args)
    code = cmd_validate(args, exp)
    if code != EXIT_OK:
        return code
    seeds = exp.seeds
    if args.seeds is not None:
        seeds = derive_seeds(seeds[0], args.seeds)
    out_dir = args.out or DEFAULT_OUT
    os.makedirs(out_dir, exist_ok=True)
    payloads = [(exp.raw, exp.base_dir, seed, out_dir, i)
                for i, seed in enumerate(seeds)]
    # a pool starts all its workers at once: no more than there are replicas
    jobs = min(args.jobs or _usable_cpus(), len(payloads))
    _sweep_experiment = exp
    try:
        if jobs == 1:
            results = [_sweep_worker(p) for p in payloads]
        else:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_sweep_worker, payloads))
    finally:
        _sweep_experiment = None

    # report: per replica, its stdout line and the traceback of one that raised
    rows, ran, errors, report = ["index,seed,status,iterations,final_fp_residual"], [], [], []
    for s, seed in zip(results, seeds):
        if s["status"] == SWEEP_ERROR:
            rows.append(f"{s['index']},{seed},{SWEEP_ERROR},,")
            errors.append({"index": s["index"], "seed": seed, "message": s["error"]})
            report.append((f"seed={seed} status={SWEEP_ERROR} {s['error']}",
                           f"replica {s['index']} (seed={seed}) failed:\n{s['traceback']}"))
        else:
            ran.append(s)
            rows.append(f"{s['index']},{seed},{s['status']},{s['iterations']},"
                        f"{s['final_fp_residual']:.17g}")
            report.append((f"seed={seed} status={s['status']} iterations={s['iterations']} "
                           f"final_fp_residual={s['final_fp_residual']:.6g}", None))
    with open(os.path.join(out_dir, "sweep_summary.csv"), "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")
    frac = sum(s["status"] == CONVERGED for s in ran) / len(results)
    aggregate = {
        "fraction_converged": frac,
        "median_iterations": (statistics.median(s["iterations"] for s in ran)
                              if ran else None),
        "max_final_residual": max((s["final_fp_residual"] for s in ran), default=None),
        "seeds": list(seeds),
        "errors": errors,
    }
    _write_json(os.path.join(out_dir, "sweep_summary.json"), aggregate)
    for line, failure in report:
        print(line)
        if failure is not None:
            print(failure, end="", file=sys.stderr)
    print(f"fraction_converged={frac:.3f} -> {out_dir}")
    return EXIT_OK if frac == 1.0 else EXIT_RUN


def cmd_constants(args):
    """Print the constants of the route's problem: the beta of its instance
    on the sifb route, the primal-dual constants on the others."""
    exp = _load_experiment(args)
    if exp.pd is None:
        inst = exp.make_instance(exp.seeds[0])
        print(f"beta={inst.beta:.12g} (single-inclusion instance; no "
              "structured constants)")
        return EXIT_OK
    try:
        rep = compute_constants(exp.pd)
    except InfeasibleProblemError as e:
        print(f"INFEASIBLE: {e}")
        return EXIT_VALIDATION
    for key, value in dataclasses.asdict(rep).items():
        print(f"{key}={value}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sifb",
        description="Config-driven runs of inertial forward-backward splitting "
                    "and its primal-dual assemblies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check every structural condition")
    p_val.add_argument("config")

    p_run = sub.add_parser("run", help="one solve with artifacts on disk")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="independent multi-seed replicas")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--seeds", type=int, default=None,
                         help="number of derived replica seeds")
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.add_argument("--out", default=None)

    p_const = sub.add_parser("constants", help="print feasibility constants")
    p_const.add_argument("config")

    args = parser.parse_args(argv)
    handlers = {
        "validate": cmd_validate,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "constants": cmd_constants,
    }
    try:
        return handlers[args.command](args)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return EXIT_RUN
    except (NormEstimationError, OracleError) as e:
        print(f"run failure: {e}", file=sys.stderr)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
