"""Per-layer metrics of a traced round, and the tracer's self-checks.

A layer this workload never enters reports 0.
"""

from __future__ import annotations

from perfbench.tracer import merge_layers

# metric name -> unit, in report order
UNITS = {
    "spaces.BlockVector.calls": "count",
    "spaces.BlockVector.self_s": "s",
    "spaces.block_split_concat.calls": "count",
    "spaces.block_split_concat.self_s": "s",
    "spaces.Preconditioner.calls": "count",
    "spaces.Preconditioner.self_s": "s",
    "spaces.BlockLinearOperator.calls": "count",
    "spaces.BlockLinearOperator.self_s": "s",
    "spaces.BlockLinearOperator.bytes_computed": "B",
    "spaces.estimate_weighted_norm.calls": "count",
    "spaces.estimate_weighted_norm.total_s": "s",
    "spaces.estimate_weighted_norm.gram_products": "count",
    "operators.CocoerciveMap.build.self_s": "s",
    "operators.CocoerciveMap.apply.calls": "count",
    "operators.CocoerciveMap.apply.self_s": "s",
    "operators.CocoerciveMap.apply.bytes_computed": "B",
    "operators.CocoerciveMap.apply.flop_per_byte": "flop/B",
    "operators.resolvent.calls": "count",
    "operators.resolvent.self_s": "s",
    "stochastic.sample.calls": "count",
    "stochastic.sample.self_s": "s",
    "stochastic.sample.per_step": "ratio",
    "solver.run.calls": "count",
    "solver.run.self_s": "s",
    "solver.step.calls": "count",
    "solver.step.self_s": "s",
    "solver.backward.calls": "count",
    "solver.backward.self_s": "s",
    "solver.fp_residual.calls": "count",
    "solver.fp_residual.total_s": "s",
    "solver.fp_residual.share": "ratio",
    "primal_dual.compute_constants.calls_per_run": "ratio",
    "primal_dual.compute_constants.total_s": "s",
    "primal_dual.assemble.calls": "count",
    "primal_dual.assemble.self_s": "s",
    "problems.instance.calls": "count",
    "problems.instance.total_s": "s",
    "config.build_experiment.calls": "count",
    "config.build_experiment.self_s": "s",
    "config.make_instance.calls": "count",
    "problems.reference_oracle.calls": "count",
    "problems.reference_oracle.total_s": "s",
    "oracles.total_s": "s",
    "cli.validate.total_s": "s",
    "cli.trace_write.total_s": "s",
    "cli.trace_bytes": "B",
    "fanout.workers": "count",
    "fanout.busy_frac": "ratio",
    "floor.numpy_iter_us": "us",
    "floor.overhead_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def _fanout(base_round, workers):
    """Processes that ran replicas, and the share of their wall time spent busy."""
    if workers:
        busy = sum(w["exit"] - w["entry"] for w in workers)
        count = len({w["pid"] for w in workers})
    else:
        busy = sum(r.setup_s + r.solve_s for r in base_round.replicas)
        count = 1
    return count, busy / (count * base_round.total_s)


def per_layer(workload, base_round, traced_round, layers, workers, floor):
    """(metrics, failed self-checks, detail to save) for one traced round."""
    totals, edges = {}, {}
    merge_layers((totals, edges), *layers)
    for rec in getattr(workload, "workers", []):
        if "layers" in rec:
            merge_layers((totals, edges), rec["layers"]["totals"],
                         {(c, p): n for c, p, n in rec["layers"]["edges"]})

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    values = {}
    for name in UNITS:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = get(layer, "calls")
        elif stat in ("self_s", "total_s"):
            values[name] = get(layer, stat[:-2] + "_ns") / 1e9
        elif stat == "bytes_computed":
            values[name] = get(layer, "bytes")

    runs = get("solver.run", "calls")
    steps = get("solver.step", "calls")
    apply_bytes = get("operators.CocoerciveMap.apply", "bytes")
    run_s = get("solver.run", "total_ns")
    values["spaces.estimate_weighted_norm.gram_products"] = edges.get(
        ("spaces.BlockLinearOperator", "spaces.estimate_weighted_norm"), 0) // 2
    values["operators.CocoerciveMap.apply.flop_per_byte"] = (
        get("operators.CocoerciveMap.apply", "flops") / apply_bytes if apply_bytes else 0.0)
    values["stochastic.sample.per_step"] = (
        get("stochastic.sample", "calls") / steps if steps else 0.0)
    values["solver.fp_residual.share"] = (
        get("solver.fp_residual", "total_ns") / run_s if run_s else 0.0)
    values["primal_dual.compute_constants.calls_per_run"] = (
        get("primal_dual.compute_constants", "calls") / runs if runs else 0.0)
    values["cli.trace_bytes"] = workload.trace_bytes()
    values["fanout.workers"], values["fanout.busy_frac"] = _fanout(base_round, workers)

    base_iters = [r.iterations for r in base_round.replicas]
    base_solve = sum(r.solve_s for r in base_round.replicas)
    iter_us = 1e6 * base_solve / max(sum(base_iters), 1)
    values["floor.numpy_iter_us"] = values["floor.overhead_ratio"] = 0.0
    problems = []
    if floor is not None:
        floor_s, floor_iters = floor
        values["floor.numpy_iter_us"] = 1e6 * floor_s / max(floor_iters, 1)
        values["floor.overhead_ratio"] = iter_us / values["floor.numpy_iter_us"]
        if floor_iters != sum(base_iters):
            problems.append(f"numpy floor took {floor_iters} iterations, "
                            f"the solver {sum(base_iters)}")
    values["trace.overhead_frac"] = traced_round.total_s / base_round.total_s - 1.0

    # self-checks against counts known from the algorithm and the CLI
    traced_iters = [r.iterations for r in traced_round.replicas]
    if traced_iters != base_iters:
        problems.append("traced round iteration counts differ from the untraced round")
    if runs != len(traced_iters):
        problems.append(f"solver.run.calls = {runs}, expected {len(traced_iters)}")
    if get("stochastic.sample", "calls") != steps or steps != sum(traced_iters):
        problems.append(f"stochastic.sample.calls = {get('stochastic.sample', 'calls')}, "
                        f"solver.step.calls = {steps}, iterations = {sum(traced_iters)}; "
                        "expected one draw per iteration")
    every = workload.record_every
    expected_res = sum(n // every + 1 for n in traced_iters)
    if get("solver.fp_residual", "calls") != expected_res:
        problems.append(f"solver.fp_residual.calls = {get('solver.fp_residual', 'calls')}, "
                        f"expected {expected_res} (record_every={every})")
    if workload.name == "pd-split-cli":
        cc = get("primal_dual.compute_constants", "calls")
        if cc != 3 * runs:
            problems.append(f"primal_dual.compute_constants: {cc} calls in {runs} runs, "
                            "expected 3 per run")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    detail = {"layers": totals,
              "edges": sorted([c, p, n] for (c, p), n in edges.items())}
    return metrics, problems, detail
