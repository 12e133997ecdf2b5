import ast
import contextlib
import copy
import dataclasses
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sifb
from sifb import NormEstimationError, OracleError
from sifb.cli import main
from sifb.config import build_experiment
from sifb.operators import CocoerciveMap, check_cocoercivity
from sifb.problems import build_lasso
from sifb.solver import run
from sifb.stochastic import derive_seeds


def read_file(*parts):
    with open(os.path.join(*parts)) as f:
        return f.read()


def load_json(*parts):
    with open(os.path.join(*parts)) as f:
        return json.load(f)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def lasso_config(**overrides):
    cfg = {
        "problem": {"demo": {"name": "lasso",
                             "params": {"n": 12, "p": 10, "lam": 0.2,
                                        "cond": 20.0, "seed": 3}}},
        "algorithm": "sifb",
        "solver": {"max_iter": 20000, "stop_tol": 1e-8, "record_every": 10},
        "noise": {"mode": "zero"},
        "inertia": {"mode": "zero"},
        "seeds": [7],
    }
    cfg.update(overrides)
    return cfg


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency of the package and its CLI
    src = os.path.dirname(os.path.dirname(os.path.abspath(sifb.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sifb, sifb.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# per config given: the exit code of `sifb run`, its trace.csv, its
# summary.json less wall_time, and the stdout of `sifb constants`
_RUN_ARTIFACTS = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from sifb.cli import main
out = {}
for path in sys.argv[2:]:
    run = path + ".run-" + os.environ["OPENBLAS_NUM_THREADS"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", path, "--out", run])
    constants = io.StringIO()
    with contextlib.redirect_stdout(constants):
        main(["constants", path])
    with open(os.path.join(run, "trace.csv")) as f:
        trace = f.read()
    with open(os.path.join(run, "summary.json")) as f:
        summary = json.load(f)
    del summary["wall_time"]
    out[os.path.basename(path)] = [code, trace, summary, constants.getvalue()]
print(json.dumps(out))
"""


def test_artifacts_are_the_same_at_one_and_two_blas_threads(tmp_path):
    # the set-up runs at one BLAS thread: at 200x300 the demo's QRs thread
    # at two, and the solve loop's products at this size give the same bits
    split = {"n": 200, "p": 300, "lam": 0.1, "cond": 100.0, "seed": 42}
    solver = {"max_iter": 100000, "stop_tol": 1e-8, "record_every": 1}
    paths = [write_config(tmp_path, lasso_config(
        problem={"demo": {"name": "lasso", "params": split, "form": "split"}},
        algorithm=algorithm, solver=solver, seeds=[0]), f"{algorithm}.json")
        for algorithm in ("pd_class1", "pd_class2")]
    paths.append(write_config(tmp_path, lasso_config(problem={"demo": {
        "name": "lasso", "params": {**split, "n": 20, "p": 30}}}, solver=solver),
        "sifb.json"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sifb.__file__)))
    runs = [json.loads(subprocess.run(
        [sys.executable, "-c", _RUN_ARTIFACTS, src, *paths], capture_output=True,
        text=True, check=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout)
        for threads in ("1", "2")]
    assert sorted(runs[0]) == ["pd_class1.json", "pd_class2.json", "sifb.json"]
    for name, (code, trace, summary, constants) in runs[0].items():
        assert code == 0 and trace.count("\n") > 100, name
        assert runs[1][name] == [code, trace, summary, constants], name


def test_every_exported_name_has_a_reader_outside_the_tests():
    # a name in sifb.__all__ must be read (a loaded name or attribute) by the
    # package outside __init__.py and its own definition, by a demo or by a
    # tool; a name only tests read belongs in tests/audits.py
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.dirname(os.path.abspath(sifb.__file__))
    files = [os.path.join(package, f) for f in os.listdir(package)
             if f.endswith(".py") and f != "__init__.py"]
    for folder in ("demos", "tools"):
        files += [os.path.join(repo, folder, f) for f in os.listdir(os.path.join(repo, folder))
                  if f.endswith(".py")]
    read = set()
    for path in files:
        for stmt in ast.parse(read_file(path), path).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
            names.discard(getattr(stmt, "name", None))
            read |= names
    assert [name for name in sifb.__all__ if name not in read] == []


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, lasso_config())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "[PASS] summable noise variance" in out
    assert "validation: ok" in out


def test_validate_rejects_nonsummable_noise(tmp_path, capsys):
    cfg = lasso_config(noise={"mode": "poly", "sigma0": 1.0, "theta": 0.4})
    path = write_config(tmp_path, cfg)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] summable noise variance" in out


def test_validate_rejects_coupling_norm_at_least_one(tmp_path, capsys):
    cfg = {
        "problem": {"custom_pd": {
            "primal": [{"dim": 2}],
            "dual": [{"dim": 2, "g": {"family": "l1", "lam": 1.0}}],
            "coupling": [[[[2.0, 0.0], [0.0, 1.0]]]],
            "V": {"kind": "scalar", "values": [1.0]},
            "W": {"kind": "scalar", "values": [1.0]},
        }},
        "algorithm": "pd_class1",
        "noise": {"mode": "zero"},
        "inertia": {"mode": "zero"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] coupling norm c < 1" in out or "[FAIL] problem assembly" in out


def test_fixed_step_gate_fails_validate_and_run_before_iterating(tmp_path, capsys):
    # the class-I sweep is the stacked backward map only at gamma = 1
    cfg = lasso_config(algorithm="pd_class1",
                       solver={"max_iter": 20000, "stop_tol": 1e-8, "gamma": 0.5})
    cfg["problem"]["demo"]["form"] = "split"
    path = write_config(tmp_path, cfg)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] step size" in out and "only at gamma=1.0, got 0.5" in out
    assert "validation: FAILED" in out
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] step size" in captured.out and captured.err == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("solver,inertia,refusal", [
    ({"relaxation": 0.0}, {"mode": "zero"}, "relaxation lambda=0.0 outside [eps, 1]"),
    ({"epsilon": 0.3}, {"mode": "geom", "alpha0": 0.9, "rho": 0.5},
     "inertia alpha0=0.9 exceeds 1 - eps = 0.7"),
    ({"max_iter": -1}, {"mode": "zero"}, "max_iter must be nonnegative, got -1"),
], ids=["relaxation", "inertia", "max_iter"])
def test_validate_files_a_solver_setting_refusal_under_solver_settings(
        tmp_path, capsys, solver, inertia, refusal):
    # only a refused step size is filed under the step-size row
    path = write_config(tmp_path, lasso_config(solver=solver, inertia=inertia))
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert f"[FAIL] solver settings  ({refusal}" in out
    assert "step size" not in out


def test_run_writes_artifacts_and_is_deterministic(tmp_path, capsys):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    path = write_config(tmp_path, lasso_config())
    assert main(["run", path, "--out", out1]) == 0
    assert main(["run", path, "--out", out2]) == 0
    for out in (out1, out2):
        assert os.path.exists(os.path.join(out, "trace.csv"))
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert os.path.exists(os.path.join(out, "resolved_config.json"))
    t1 = read_file(out1, "trace.csv")
    t2 = read_file(out2, "trace.csv")
    assert t1 == t2
    summary = load_json(out1, "summary.json")
    assert summary["status"] == "converged"
    assert summary["final_fp_residual"] <= 1e-8
    assert summary["dist_to_ref"] <= 1e-5
    snap = load_json(out1, "resolved_config.json")
    assert snap["resolved_seed"] == 7


@pytest.mark.parametrize("algorithm", ["sifb", "pd_class1"])
def test_summary_carries_the_reference_certificate(tmp_path, algorithm):
    problem = {"demo": {"name": "lasso", "params": {"n": 12, "p": 10, "lam": 0.2,
                                                    "cond": 20.0, "seed": 3},
                        "form": "split"}}
    for reference in (True, False):
        out = str(tmp_path / f"{algorithm}-{reference}")
        path = write_config(tmp_path, lasso_config(problem=problem, algorithm=algorithm,
                                                   reference=reference))
        assert main(["run", path, "--out", out]) == 0
        summary = load_json(out, "summary.json")
        if reference:
            assert 0 <= summary["reference_certificate"] <= 1e-12
            assert summary["dist_to_ref"] <= 1e-5
        else:
            assert "reference_certificate" not in summary
            assert "dist_to_ref" not in summary


def test_run_stochastic_seeds_differ_but_converge(tmp_path):
    cfg = lasso_config(noise={"mode": "poly", "sigma0": 0.3, "theta": 0.75},
                       solver={"max_iter": 50000, "stop_tol": 1e-4,
                               "record_every": 50})
    path = write_config(tmp_path, cfg)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["run", path, "--seed", "1", "--out", out1]) == 0
    assert main(["run", path, "--seed", "2", "--out", out2]) == 0
    t1 = read_file(out1, "trace.csv")
    t2 = read_file(out2, "trace.csv")
    assert t1 != t2
    for out in (out1, out2):
        s = load_json(out, "summary.json")
        assert s["status"] == "converged"
        assert s["dist_to_ref"] <= 1e-2


def test_run_exit_code_2_when_not_converged(tmp_path):
    cfg = lasso_config(solver={"max_iter": 3, "stop_tol": 1e-12})
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("error", [
    NormEstimationError("power iteration did not converge"),
    OracleError("reference solve did not converge"),
])
def test_run_exit_code_2_on_numerical_failure(tmp_path, capsys, monkeypatch, error):
    def failing_run(*args, **kwargs):
        raise error

    monkeypatch.setattr("sifb.cli.run", failing_run)
    path = write_config(tmp_path, lasso_config())
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failure: ") and err.count("\n") == 1


def test_run_exit_code_2_on_nan_coupling(tmp_path, capsys):
    cfg = {
        "problem": {"custom_pd": {
            "primal": [{"dim": 2}],
            "dual": [{"dim": 2, "g": {"family": "l1", "lam": 1.0}}],
            "coupling": [[[[float("nan"), 0.0], [0.0, 0.5]]]],
            "V": {"kind": "scalar", "values": [1.0]},
            "W": {"kind": "scalar", "values": [1.0]},
        }},
        "algorithm": "pd_class1",
        "noise": {"mode": "zero"},
        "inertia": {"mode": "zero"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failure: ") and "non-finite" in err


def _refuse_constant(token):
    raise ValueError(f"bare {token} is not JSON")


def test_diverged_run_writes_strict_json(tmp_path):
    # an x0 of +-1e200 overflows the first residual: a diverged run whose
    # residual and step norm are infinite
    cfg = {
        "problem": {"custom": {
            "blocks": [{"dim": 2, "operator": {"family": "l1", "lam": 0.1}}],
            "map": {"kind": "lstsq", "a": [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
                    "b": [1.0, 0.0, 2.0]},
            "x0": [1e200, -1e200],
        }},
        "algorithm": "sifb",
        "noise": {"mode": "zero"},
        "inertia": {"mode": "zero"},
    }
    path = write_config(tmp_path, cfg)
    out, sweep = tmp_path / "o", tmp_path / "s"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", path, "--out", str(out)]) == 2
        assert main(["sweep", path, "--jobs", "1", "--out", str(sweep)]) == 2
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_refuse_constant)
    assert summary["status"] == "diverged"
    assert summary["final_fp_residual"] is None
    assert summary["max_step_norm"] is None
    aggregate = json.loads((sweep / "sweep_summary.json").read_text(),
                           parse_constant=_refuse_constant)
    assert aggregate["max_final_residual"] is None


@pytest.mark.parametrize("x0", [{"file": "x0.txt"}, [float("nan"), 1.0, 2.0, 0.0, 0.0]],
                         ids=["file", "inline"])
def test_non_finite_x0_is_refused(tmp_path, capsys, x0):
    (tmp_path / "x0.txt").write_text("nan 1 2 inf 0\n")
    rng = np.random.default_rng(4)
    cfg = {
        "problem": {"custom": {
            "blocks": [{"dim": 5, "operator": {"family": "l1", "lam": 0.1}}],
            "map": {"kind": "lstsq", "a": rng.standard_normal((7, 5)).tolist(),
                    "b": rng.standard_normal(7).tolist()},
            "x0": x0,
        }},
        "algorithm": "sifb",
        "noise": {"mode": "zero"},
        "inertia": {"mode": "zero"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["validate", path]) == 1
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "x0" in err and "non-finite" in err
    if isinstance(x0, dict):
        assert "x0.txt" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("demo,form", [
    ({"name": "lasso", "params": {"n": 6, "p": 5, "lam": 0.1}}, "bogus"),
    ({"name": "coupled_box_qp", "params": {"m": 2, "dims": 3}}, "split"),
    ({"name": "parallel_sum", "params": {"dims": 5, "mu": 0.5, "lam": 0.1}}, "smooth"),
], ids=["lasso", "coupled_box_qp", "parallel_sum"])
@pytest.mark.parametrize("algorithm", ["sifb", "pd_class1"])
def test_undeclared_form_is_refused_on_every_route(tmp_path, capsys, demo, form,
                                                   algorithm):
    cfg = lasso_config(problem={"demo": dict(demo, form=form)}, algorithm=algorithm)
    path = write_config(tmp_path, cfg)
    for command in ("validate", "constants"):
        assert main([command, path]) == 1
        err = capsys.readouterr().err
        assert f"has no form {form!r}" in err
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_split_form_on_sifb_lasso_stays_valid(tmp_path):
    cfg = lasso_config()
    cfg["problem"]["demo"]["form"] = "split"
    assert main(["validate", write_config(tmp_path, cfg)]) == 0


@pytest.fixture
def count_builds(monkeypatch, tmp_path):
    """The pids of the build_experiment calls, read back from a file, so that
    calls in forked sweep workers are counted too."""
    log = tmp_path / "builds.log"
    log.touch()

    def counting(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return build_experiment(*args, **kwargs)

    monkeypatch.setattr("sifb.cli.build_experiment", counting)
    return lambda: log.read_text().split()


def test_run_builds_the_experiment_once(tmp_path, count_builds):
    path = write_config(tmp_path, pd_lasso_config())
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
    assert len(count_builds()) == 1


def test_sweep_parent_builds_the_experiment_once(tmp_path, count_builds):
    # serial replicas run the parent's build in process, forked workers
    # inherit it; a second sweep in the same process builds its own
    path = write_config(tmp_path, lasso_config(seeds=[1, 2, 3]))
    for jobs in ("1", "2"):
        assert main(["sweep", path, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    assert count_builds() == [str(os.getpid())] * 2
    assert read_file(tmp_path / "1", "sweep_summary.csv") == read_file(
        tmp_path / "2", "sweep_summary.csv")


def test_sweep_jobs_are_capped_at_the_replica_count(tmp_path, monkeypatch):
    # a pool starts all its workers up front; this stand-in records the size
    # asked for and runs the replicas in process, starting none
    sizes = []

    class StandIn(contextlib.AbstractContextManager):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __exit__(self, *exc):
            return None

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr("sifb.cli.ProcessPoolExecutor", StandIn)
    path = write_config(tmp_path, lasso_config(seeds=[1, 2, 3]))
    assert main(["sweep", path, "--jobs", "500", "--out", str(tmp_path / "s")]) == 0
    assert sizes == [3]


@pytest.mark.parametrize("platform", ["affinity", "no affinity"])
def test_sweep_on_one_usable_cpu_runs_serially(tmp_path, monkeypatch, platform):
    # --jobs defaults to the CPUs the process may run on, else the CPU count
    def no_pool(max_workers):
        raise AssertionError(f"a pool of {max_workers} started")

    monkeypatch.setattr("sifb.cli.ProcessPoolExecutor", no_pool)
    if platform == "affinity":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    path = write_config(tmp_path, lasso_config(seeds=[1, 2, 3]))
    assert main(["sweep", path, "--out", str(tmp_path / "s")]) == 0
    assert len(read_file(tmp_path / "s", "sweep_summary.csv").splitlines()) == 4


def test_spawned_sweep_workers_give_the_serial_traces(tmp_path):
    # a worker that does not inherit the parent's build makes its own
    cfg = lasso_config(noise=NOISY, solver={"max_iter": 20000, "stop_tol": 1e-4,
                                            "record_every": 50}, seeds=[4, 5, 6])
    path = write_config(tmp_path, cfg)
    assert main(["sweep", path, "--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        assert main(["sweep", path, "--jobs", "2", "--out", str(tmp_path / "spawn")]) == 0
    finally:
        multiprocessing.set_start_method(previous, force=True)
    for name in ("trace_000.csv", "trace_001.csv", "trace_002.csv", "sweep_summary.csv"):
        assert read_file(tmp_path / "spawn", name) == read_file(tmp_path / "serial", name)


def test_instances_of_one_experiment_share_its_map():
    exp = build_experiment(lasso_config())
    assert exp.make_instance(1).oracle.base is exp.make_instance(2).oracle.base


@pytest.mark.parametrize("noise, want", [
    ({"mode": "zero"}, 1e-8),
    ({"mode": "poly", "sigma0": 0.0, "theta": 1.0}, 1e-8),
    ({"mode": "geom", "sigma0": 0.0, "rho": 0.5}, 1e-8),
    ({"mode": "poly", "sigma0": 0.2, "theta": 1.0}, 1e-4),
    ({"mode": "geom", "sigma0": 0.2, "rho": 0.5}, 1e-4),
], ids=["zero", "poly-sigma0-0", "geom-sigma0-0", "poly-noisy", "geom-noisy"])
def test_default_stop_tolerance_is_the_noise_free_one_when_every_sigma_is_0(noise, want):
    cfg = lasso_config(noise=noise, solver={"max_iter": 10})
    assert build_experiment(cfg).solver_spec["stop_tol"] == want


def test_two_threads_on_one_experiment_give_the_serial_traces():
    cfg = lasso_config(noise=NOISY, inertia={"mode": "poly", "alpha0": 0.4, "q": 1.5},
                       solver={"max_iter": 20000, "stop_tol": 1e-4, "record_every": 1},
                       seeds=[3, 8])

    def trace_of(exp, seed, barrier=None):
        if barrier is not None:
            barrier.wait()
        inst = exp.make_instance(seed)
        _, trace = run(inst, exp.solver_config(inst.beta))
        out = io.StringIO()
        trace.to_csv(out)
        return out.getvalue()

    exp = build_experiment(cfg)
    serial = [trace_of(exp, seed) for seed in cfg["seeds"]]
    barrier = threading.Barrier(2)
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(lambda seed: trace_of(exp, seed, barrier), cfg["seeds"]))
    assert threaded == serial and serial[0] != serial[1]


def pd_lasso_config():
    return {
        "problem": {"demo": {"name": "lasso",
                             "params": {"n": 12, "p": 10, "lam": 0.2,
                                        "cond": 20.0, "seed": 3},
                             "form": "split"}},
        "algorithm": "pd_class1",
        "noise": {"mode": "zero"},
        "inertia": {"mode": "zero"},
    }


def test_validate_lists_only_checks_that_can_fail(tmp_path, capsys):
    path = write_config(tmp_path, pd_lasso_config())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "[PASS] coupling norm c < 1" in out
    assert "xi_hat" not in out


@pytest.fixture
def count_constants(monkeypatch):
    """Calls of compute_constants (every binding) and of the norm eigensolve."""
    calls = {"compute_constants": 0, "estimate_weighted_norm": 0}

    def counted(name):
        original = getattr(sifb.primal_dual, name)

        def counting(*args):
            calls[name] += 1
            return original(*args)

        return counting

    constants = counted("compute_constants")
    monkeypatch.setattr("sifb.primal_dual.compute_constants", constants)
    monkeypatch.setattr("sifb.cli.compute_constants", constants)
    monkeypatch.setattr("sifb.primal_dual.estimate_weighted_norm",
                        counted("estimate_weighted_norm"))
    return calls


@pytest.mark.parametrize("algorithm", ["pd_class1", "pd_class2"])
def test_run_computes_the_coupling_norm_once(tmp_path, count_constants, algorithm):
    # a custom problem has no known norm: validation, its assembly and the
    # run's assembly share one eigensolve
    cfg = custom_pd_config()
    cfg["algorithm"] = algorithm
    path = write_config(tmp_path, cfg)
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
    assert count_constants == {"compute_constants": 3, "estimate_weighted_norm": 1}


@pytest.mark.parametrize("command", ["validate", "constants"])
def test_validate_and_constants_compute_the_coupling_norm_once(tmp_path, count_constants,
                                                               command):
    path = write_config(tmp_path, custom_pd_config())
    assert main([command, path]) == 0
    assert count_constants["estimate_weighted_norm"] == 1


@pytest.mark.parametrize("form,algorithm", [("split", "pd_class1"), ("split", "pd_class2"),
                                            ("cp", "pd_class1")])
@pytest.mark.parametrize("command", ["run", "validate", "constants"])
def test_lasso_forms_take_the_coupling_norm_from_the_demo(tmp_path, count_constants, form,
                                                          algorithm, command):
    # the split and cp forms give c from the demo's spectrum: no eigensolve of
    # the coupling, however often compute_constants asks
    cfg = pd_lasso_config()
    cfg["problem"]["demo"]["form"], cfg["algorithm"] = form, algorithm
    path = write_config(tmp_path, cfg)
    args = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, path, *args]) == 0
    assert count_constants["estimate_weighted_norm"] == 0
    if command == "run":
        assert count_constants["compute_constants"] == 3


@pytest.mark.parametrize("demo,want", [
    ({"name": "lasso", "params": {"n": 12, "p": 10, "lam": 0.2, "seed": 3},
      "form": "split"}, 1),
    ({"name": "lasso", "params": {"n": 8, "p": 12, "lam": 0.2, "seed": 3},
      "form": "split"}, 1),
    ({"name": "lasso", "params": {"n": 12, "p": 10, "lam": 0.2, "seed": 3},
      "form": "cp"}, 1),
    ({"name": "lasso", "params": {"n": 8, "p": 12, "lam": 0.2, "seed": 3},
      "form": "smooth"}, 1),
    ({"name": "parallel_sum", "params": {"dims": 6, "mu": 0.5, "lam": 0.1, "seed": 2}},
     3),
], ids=["lasso-split-tall", "lasso-split-wide", "lasso-cp", "lasso-smooth",
        "parallel_sum"])
def test_primal_dual_run_solves_the_data_spectrum_once(tmp_path, count_eigvalsh, demo,
                                                       want):
    # the form's step, its coupling norm (split and cp) and the reference
    # share one eigensolve of the demo's smaller Gram matrix; so does the
    # smooth form's map, whose V = 1/lambda_max is exactly 1.0 here (the
    # data's top singular value is 1), a metric of ones. The coupling norm of
    # parallel_sum and its smooth term, in the metric V, take one each
    path = write_config(tmp_path, {**pd_lasso_config(), "problem": {"demo": demo}})
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
    assert len(count_eigvalsh) == want, count_eigvalsh


def test_parallel_sum_forward_backward_run_solves_the_data_spectrum_once(
        tmp_path, count_eigvalsh):
    # the map constant of each instance built (validation, then the run) and
    # the reference step read one eigensolve
    demo = {"name": "parallel_sum", "params": {"dims": 6, "mu": 0.5, "lam": 0.1, "seed": 2}}
    path = write_config(tmp_path, lasso_config(problem={"demo": demo}))
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
    assert len(count_eigvalsh) == 1


def test_lasso_forward_backward_run_builds_its_map_once(tmp_path, count_eigvalsh,
                                                       monkeypatch):
    # validation and the run share one map, whose constant and the reference's
    # step read the demo's one eigensolve
    builds = []
    lstsq = CocoerciveMap.least_squares_gradient.__func__

    def counting(cls, *args, **kwargs):
        builds.append(1)
        return lstsq(cls, *args, **kwargs)

    monkeypatch.setattr(CocoerciveMap, "least_squares_gradient", classmethod(counting))
    path = write_config(tmp_path, lasso_config())
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
    assert len(builds) == 1 and len(count_eigvalsh) == 1, count_eigvalsh


def coupled_pd_config(coupling, algorithm="pd_class1", **extra):
    return {"problem": {"custom_pd": {
        "primal": [{"dim": 2}],
        "dual": [{"dim": 2, "g": {"family": "l1", "lam": 1.0}}],
        "coupling": [[coupling]],
        "V": {"kind": "scalar", "values": [1.0]},
        "W": {"kind": "scalar", "values": [1.0]}, **extra}},
        "algorithm": algorithm}


@pytest.mark.parametrize("cfg,failed", [
    (coupled_pd_config(2.0), "coupling norm c < 1  (||sqrt(W) L sqrt(V)|| = 2 >= 1"),
    (coupled_pd_config(0.5, smooth={"kind": "scaled_identity", "mu": 4.0}, nu0=0.25),
     "class-I constant beta_hat > 1/2  (beta_hat=0.1875)"),
    ({**pd_lasso_config(), "algorithm": "pd_class2",
      "problem": {"demo": {**pd_lasso_config()["problem"]["demo"], "form": "cp"}}},
     "all primal operators zero"),
], ids=["coupling-norm", "class-I-constant", "class-II-primal-operators"])
def test_a_failed_gate_prints_one_fail_row(tmp_path, capsys, cfg, failed):
    # the assembly that the gate refuses adds no row of its own
    path = write_config(tmp_path, cfg)
    assert main(["validate", path]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(rows) == 1 and rows[0].startswith(f"[FAIL] {failed}"), rows


def test_run_exit_code_2_on_a_coupling_norm_that_overflows(tmp_path, capsys):
    cfg = {"problem": {"custom_pd": {
        "primal": [{"dim": 2}],
        "dual": [{"dim": 2, "g": {"family": "l1", "lam": 1.0}}],
        "coupling": [[1e200]],
        "V": {"kind": "scalar", "values": [1.0]},
        "W": {"kind": "scalar", "values": [1.0]}}},
        "algorithm": "pd_class1"}
    path = write_config(tmp_path, cfg)
    with np.errstate(over="ignore"):
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run failure: ") and "non-finite" in err


def test_experiment_builds_pd_problem_once():
    exp = build_experiment(pd_lasso_config())
    assert exp.pd is exp.pd


def test_sweep_zero_noise_identical_traces(tmp_path, capsys):
    cfg = lasso_config(seeds=[1, 2, 3])
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "sweep")
    assert main(["sweep", path, "--jobs", "1", "--out", out]) == 0
    traces = [read_file(out, f"trace_{i:03d}.csv") for i in range(3)]
    assert traces[0] == traces[1] == traces[2]  # no randomness consumed
    rows = read_file(out, "sweep_summary.csv").strip().split("\n")
    assert rows[0] == "index,seed,status,iterations,final_fp_residual"
    assert len(rows) == 4
    agg = load_json(out, "sweep_summary.json")
    statuses = [r.split(",")[2] for r in rows[1:]]
    iters = [int(r.split(",")[3]) for r in rows[1:]]
    residuals = [float(r.split(",")[4]) for r in rows[1:]]
    assert agg["fraction_converged"] == sum(s == "converged" for s in statuses) / 3
    assert agg["median_iterations"] == sorted(iters)[1]
    assert agg["max_final_residual"] == max(residuals)


def test_sweep_derived_seeds_and_parallel(tmp_path):
    cfg = lasso_config(noise={"mode": "poly", "sigma0": 0.2, "theta": 0.75},
                       solver={"max_iter": 50000, "stop_tol": 1e-4,
                               "record_every": 100},
                       seeds={"count": 4, "master_seed": 11})
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "sweep")
    assert main(["sweep", path, "--jobs", "2", "--out", out]) == 0
    rows = read_file(out, "sweep_summary.csv").strip().split("\n")
    assert len(rows) == 5
    seeds = [int(r.split(",")[1]) for r in rows[1:]]
    assert len(set(seeds)) == 4


def test_sweep_seeds_option_runs_replicas_of_derived_seeds(tmp_path, capsys):
    # --seeds N replaces the config's seed list by derive_seeds(seeds[0], N);
    # each replica's trace is that of `sifb run --seed` at its derived seed
    cfg = lasso_config(noise=NOISY, solver={"max_iter": 20000, "stop_tol": 1e-4,
                                            "record_every": 50},
                       seeds=[9, 4], reference=False)
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "sweep")
    assert main(["sweep", path, "--seeds", "3", "--jobs", "1", "--out", out]) == 0
    seeds = derive_seeds(9, 3)
    assert load_json(out, "sweep_summary.json")["seeds"] == seeds
    rows = read_file(out, "sweep_summary.csv").strip().split("\n")
    assert [int(r.split(",")[1]) for r in rows[1:]] == seeds
    for i, seed in enumerate(seeds):
        run_out = str(tmp_path / f"run{i}")
        assert main(["run", path, "--seed", str(seed), "--out", run_out]) == 0
        assert read_file(out, f"trace_{i:03d}.csv") == read_file(run_out, "trace.csv")
    assert not os.path.exists(os.path.join(out, "trace_003.csv"))


def test_run_into_an_existing_file_is_an_io_failure(tmp_path, capsys):
    path = write_config(tmp_path, lasso_config(reference=False))
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["run", path, "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"i/o failure at {blocker}") and "Traceback" not in err
    assert blocker.read_text() == ""


def test_validate_of_a_missing_config_file_is_an_io_failure(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert main(["validate", str(missing)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o failure: ") and str(missing) in captured.err


def test_sweep_exit_2_on_partial_failure(tmp_path):
    cfg = lasso_config(solver={"max_iter": 3, "stop_tol": 1e-12}, seeds=[1, 2])
    path = write_config(tmp_path, cfg)
    assert main(["sweep", path, "--jobs", "1", "--out", str(tmp_path / "s")]) == 2


def test_single_seed_sweep_reduces_to_run(tmp_path):
    cfg = lasso_config(seeds=[5], reference=False)
    path = write_config(tmp_path, cfg)
    out_run, out_sweep = str(tmp_path / "run"), str(tmp_path / "sweep")
    assert main(["run", path, "--out", out_run]) == 0
    assert main(["sweep", path, "--jobs", "1", "--out", out_sweep]) == 0
    t_run = read_file(out_run, "trace.csv")
    t_sweep = read_file(out_sweep, "trace_000.csv")
    assert t_run == t_sweep


def test_constants_command(tmp_path, capsys):
    cfg = {
        "problem": {"demo": {"name": "parallel_sum",
                             "params": {"dims": 8, "mu": 0.5, "lam": 0.3,
                                        "seed": 5}}},
        "algorithm": "pd_class1",
        "noise": {"mode": "zero"},
        "inertia": {"mode": "zero"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["constants", path]) == 0
    out = capsys.readouterr().out
    assert "beta_hat=" in out and "xi_hat=" in out and "c=" in out
    assert "feasible_class1=True" in out


@pytest.mark.parametrize("demo", [
    {"name": "lasso", "params": {"n": 12, "p": 10, "lam": 0.2, "seed": 3}},
    {"name": "coupled_box_qp", "params": {"m": 2, "dims": 3, "seed": 1}},
    {"name": "parallel_sum", "params": {"dims": 6, "mu": 0.5, "lam": 0.1, "seed": 2}},
], ids=lambda demo: demo["name"])
def test_forward_backward_constants_print_the_beta_the_run_reads(
        tmp_path, capsys, count_constants, monkeypatch, demo):
    # the sifb route's constants are its instance's beta, read from the one
    # map the experiment builds; no primal-dual form is assembled
    builds = []
    init = CocoerciveMap.__init__

    def counting(self, *args, **kwargs):
        builds.append(args[0])
        init(self, *args, **kwargs)

    cfg = lasso_config(problem={"demo": demo})
    path = write_config(tmp_path, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(CocoerciveMap, "__init__", counting)
        assert main(["constants", path]) == 0
    assert len(builds) == 1 and count_constants["compute_constants"] == 0, builds
    beta = build_experiment(cfg).make_instance(cfg["seeds"][0]).beta
    out = capsys.readouterr().out
    assert out.splitlines() == [
        f"beta={beta:.12g} (single-inclusion instance; no structured constants)"]


@pytest.mark.parametrize("shape", [(12, 10), (8, 12)], ids=["tall", "wide"])
def test_lasso_forward_backward_constants_read_the_demos_spectrum(tmp_path, capsys,
                                                                  count_eigvalsh, shape):
    # one eigensolve, and the beta line of a map that solves its own spectrum
    n, p = shape
    demo = {"name": "lasso", "params": {"n": n, "p": p, "lam": 0.2, "seed": 3}}
    path = write_config(tmp_path, lasso_config(problem={"demo": demo}))
    assert main(["constants", path]) == 0
    assert len(count_eigvalsh) == 1, count_eigvalsh
    data = build_lasso(n, p, 0.2, seed=3).data
    beta = CocoerciveMap.least_squares_gradient(data["a"], data["b"]).beta
    assert capsys.readouterr().out.splitlines() == [
        f"beta={beta:.12g} (single-inclusion instance; no structured constants)"]


def test_custom_problem_with_matrix_files(tmp_path):
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    np.savetxt(tmp_path / "a.txt", a)
    np.savetxt(tmp_path / "b.txt", b)
    custom = {
        "blocks": [{"dim": 5, "operator": {"family": "l1", "lam": 0.1}}],
        "map": {"kind": "lstsq", "a": {"file": "a.txt"}, "b": {"file": "b.txt"}},
    }
    cfg = {
        "problem": {"custom": custom},
        "algorithm": "sifb",
        "solver": {"max_iter": 50000, "stop_tol": 1e-9},
        "noise": {"mode": "zero"},
        "inertia": {"mode": "zero"},
    }
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["run", path, "--out", out]) == 0
    # inline matrices give the identical run
    custom_inline = {
        "blocks": custom["blocks"],
        "map": {"kind": "lstsq", "a": a.tolist(), "b": b.tolist()},
    }
    cfg2 = dict(cfg, problem={"custom": custom_inline})
    path2 = write_config(tmp_path, cfg2, name="config2.json")
    out2 = str(tmp_path / "out2")
    assert main(["run", path2, "--out", out2]) == 0
    t1 = read_file(out, "trace.csv")
    t2 = read_file(out2, "trace.csv")
    assert t1 == t2


def test_custom_given_constant_audited(tmp_path, capsys):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    custom = {
        "blocks": [{"dim": 4, "operator": {"family": "l1", "lam": 0.1}}],
        "map": {"kind": "lstsq", "a": a.tolist(),
                "b": rng.standard_normal(6).tolist()},
        "beta": 50.0,  # overstated on purpose
    }
    cfg = {
        "problem": {"custom": custom},
        "algorithm": "sifb",
        "noise": {"mode": "zero"},
        "inertia": {"mode": "zero"},
    }
    path = write_config(tmp_path, cfg)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] cocoercivity audit" in out


def test_malformed_config_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"problem": }')
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_matrix_file_reported(tmp_path, capsys):
    cfg = {
        "problem": {"custom": {
            "blocks": [{"dim": 2}],
            "map": {"kind": "lstsq", "a": {"file": "nope.txt"}, "b": [0.0, 0.0]},
        }},
        "algorithm": "sifb",
    }
    path = write_config(tmp_path, cfg)
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "nope.txt" in err


def test_matrix_file_that_is_not_numeric_is_reported(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("a b\n1 2\n")
    cfg = custom_prox_config(None)
    cfg["problem"]["custom"]["map"]["a"] = {"file": "a.txt"}
    path = write_config(tmp_path, cfg)
    assert main(["validate", path]) == 1
    [line] = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("configuration error: matrix file ") and "a.txt" in line


NOISY = {"mode": "poly", "sigma0": 0.2, "theta": 0.75}


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
def test_negative_config_seed_is_refused(tmp_path, capsys, command):
    path = write_config(tmp_path, lasso_config(noise=NOISY, seeds=[3, -1]))
    args = [command, path] + ([] if command == "validate" else ["--out", str(tmp_path / "o")])
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "configuration error: seeds must be non-negative integers, got -1"]
    assert not (tmp_path / "o").exists()


def test_negative_seed_option_is_refused(tmp_path, capsys):
    path = write_config(tmp_path, lasso_config(noise=NOISY))
    assert main(["run", path, "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "configuration error: --seed must be a non-negative integer, got -1"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("first", [2**64, 2**64 + 5])
def test_sweep_seeds_option_refuses_a_first_seed_outside_64_bits(tmp_path, capsys, first):
    # --seeds derives from seeds[0]; masked to 64 bits, 2**64 + 5 would derive
    # the seeds of 5. A run of that seed is an oracle seed of any size.
    path = write_config(tmp_path, lasso_config(noise=NOISY, seeds=[first]))
    assert main(["sweep", path, "--seeds", "2", "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"configuration error: --seeds: master seed must be in [0, 2**64), got {first}"]
    assert not (tmp_path / "o").exists()
    assert main(["validate", path]) == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_replica_that_raises_costs_only_itself(tmp_path, capsys, jobs):
    # a directory where replica 1's trace goes makes that replica, and only
    # that one, raise while it writes
    cfg = lasso_config(noise=NOISY, solver={"max_iter": 20000, "stop_tol": 1e-4,
                                            "record_every": 10}, seeds=[4, 5, 6])
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    (out / "trace_001.csv").mkdir(parents=True)
    assert main(["sweep", path, "--jobs", jobs, "--out", str(out)]) == 2
    rows = (out / "sweep_summary.csv").read_text().strip().split("\n")
    assert rows[0] == "index,seed,status,iterations,final_fp_residual"
    assert rows[2] == "1,5,error,,"
    for row, seed in zip((rows[1], rows[3]), (4, 6)):
        index, row_seed, status, iters, res = row.split(",")
        assert (int(row_seed), status) == (seed, "converged")
        trace = (out / f"trace_{int(index):03d}.csv").read_text().strip().split("\n")
        assert int(trace[-1].split(",")[0]) == int(iters)
    agg = json.loads((out / "sweep_summary.json").read_text())
    assert agg["fraction_converged"] == 2 / 3
    [error] = agg["errors"]
    assert (error["index"], error["seed"]) == (1, 5)
    assert error["message"].startswith("IsADirectoryError:")
    assert "trace_001.csv" in error["message"] and "\n" not in error["message"]
    captured = capsys.readouterr()
    assert "seed=5 status=error IsADirectoryError" in captured.out
    assert "replica 1 (seed=5) failed:\nTraceback" in captured.err


def custom_prox_config(operator):
    return {"problem": {"custom": {
                "blocks": [{"dim": 2, "operator": operator}],
                "map": {"kind": "lstsq", "a": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.0]}}},
            "algorithm": "sifb"}


def custom_pd_config(primal_operator=None, dual_g=None):
    primal = {"dim": 2} if primal_operator is None else {"dim": 2, "operator": primal_operator}
    return {"problem": {"custom_pd": {
                "primal": [primal],
                "dual": [{"dim": 2, "g": dual_g or {"family": "l1", "lam": 1.0}}],
                "coupling": [[0.5]]}},
            "algorithm": "pd_class1"}


def edited(cfg, change):
    """cfg after change(cfg) edits it in place."""
    change(cfg)
    return cfg


def unit_metrics(dims):
    """The identity metric spelt three ways: null, a scalar 1.0 per block and
    a diagonal of ones."""
    return [None, {"kind": "scalar", "values": [1.0] * len(dims)},
            {"kind": "diagonal", "weights": [[1.0] * d for d in dims]}]


UNIT_Q = [[1.0, 0.2, 0.0, 0.1, 0.0], [0.2, 0.9, 0.1, 0.0, 0.0], [0.0, 0.1, 0.8, 0.0, 0.1],
          [0.1, 0.0, 0.0, 0.7, 0.2], [0.0, 0.0, 0.1, 0.2, 0.6]]
UNIT_SMOOTH = {"kind": "linear", "q": UNIT_Q, "offset": [0.5, -1.0, 0.2, 0.4, -0.3]}


def unit_metric_problem(route, metric):
    """A custom problem on `route` with two blocks of each side, in `metric`."""
    ops = [{"family": "l1", "lam": 0.2}, {"family": "sq_l2", "lam": 0.7, "center": 0.3}]
    if route == "sifb":
        return {"custom": {"blocks": [{"dim": d, "operator": op} for d, op in zip((2, 3), ops)],
                           "map": UNIT_SMOOTH, "preconditioner": metric}}
    primal = [{"dim": 2, "z": [0.1, -0.2]}, {"dim": 3, "z": [0.0, 0.3, -0.1]}]
    if route == "pd_class1":
        primal = [{**block, "operator": op} for block, op in zip(primal, ops)]
    return {"custom_pd": {
        "primal": primal,
        "dual": [{"dim": 2, "g": {"family": "box", "lo": -0.4, "hi": 0.6}, "r": [0.2, -0.1]},
                 {"dim": 3, "g": {"family": "l1", "lam": 0.3}}],
        "coupling": [[[[0.3, 0.1], [0.0, 0.2]], None], [None, 0.4]],
        "smooth": UNIT_SMOOTH, "V": metric, "W": metric}}


@pytest.mark.parametrize("route", ["sifb", "pd_class1", "pd_class2"])
def test_a_metric_of_ones_writes_the_identity_metrics_trace(tmp_path, route):
    # every entry 1.0 is the identity: the same trace bytes, noisy and
    # inertial, over 300 recorded iterations that stop short of the
    # tolerance (exit 2)
    traces = []
    for i, metric in enumerate(unit_metrics((2, 3))):
        cfg = {"problem": unit_metric_problem(route, metric), "algorithm": route,
               "solver": {"max_iter": 300, "stop_tol": 1e-12, "record_every": 1},
               "noise": NOISY, "inertia": {"mode": "poly", "alpha0": 0.4, "q": 1.5},
               "seeds": [5]}
        out = tmp_path / f"o{i}"
        assert main(["run", write_config(tmp_path, cfg, f"c{i}.json"), "--out", str(out)]) == 2
        traces.append((out / "trace.csv").read_bytes())
    assert len(traces[0].splitlines()) == 303 and traces[1:] == traces[:1] * 2


@pytest.mark.parametrize("nu0,mu0", [(1e160, 1.0), (1.0, 1e20)],
                         ids=["square-overflows", "cancels"])
def test_validate_passes_extreme_given_constants(tmp_path, capsys, nu0, mu0):
    # beta_hat = 0.75 > 1/2 for a 0.5 coupling; the balance parameter neither
    # overflows nor cancels to 0
    cfg = edited(custom_pd_config(),
                 lambda c: c["problem"]["custom_pd"].update(nu0=nu0, mu0=mu0))
    assert main(["validate", write_config(tmp_path, cfg)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert rows and all(row.startswith("[PASS]") for row in rows)
    assert "[PASS] class-I constant beta_hat > 1/2  (beta_hat=0.75)" in rows


# (config, the entry its one-line refusal names first)
MALFORMED = [
    pytest.param(lasso_config(solver={"relaxation": None}), "solver.relaxation",
                 id="null relaxation"),
    pytest.param(lasso_config(solver={"gamma": "abc"}), "solver.gamma", id="string gamma"),
    pytest.param(lasso_config(solver={"max_iter": "abc"}), "solver.max_iter",
                 id="string max_iter"),
    pytest.param(lasso_config(problem={"demo": {"name": "lasso", "params": {
        "n": 4, "p": 3, "lam": 0.1, "bogus": 1}}}), "problem.demo.params",
                 id="unknown demo param"),
    pytest.param(custom_prox_config({"family": "l1"}), "problem.custom.blocks[0].operator",
                 id="prox key missing"),
    pytest.param(custom_prox_config({"family": "l1", "lam": 0.5, "lamda": 2}),
                 "problem.custom.blocks[0].operator: unknown key 'lamda'; "
                 "accepted keys: family, lam", id="prox key unknown"),
    pytest.param(lasso_config(noise={"mode": "poly", "sigma0": 0.1}), "noise needs 'theta'",
                 id="noise without theta"),
    pytest.param(lasso_config(inertia={"mode": "poly", "alpha0": None, "q": 1.5}),
                 "inertia.alpha0", id="null alpha0"),
    pytest.param(lasso_config(noise="poly"), "noise", id="noise not an object"),
    pytest.param(lasso_config(solver=[]), "solver", id="solver not an object"),
    pytest.param(lasso_config(seeds=[]), "seeds", id="empty seed list"),
    pytest.param(lasso_config(seeds={"count": 0}), "seeds", id="zero seed count"),
    pytest.param(lasso_config(seeds={"count": -3}), "seeds count", id="negative seed count"),
    pytest.param(lasso_config(seeds=5), "seeds", id="seeds a number"),
    pytest.param(lasso_config(seeds=["a"]), "seeds", id="string seed"),
    pytest.param(lasso_config(seeds=[1.0]), "seeds", id="float seed"),
    pytest.param(lasso_config(seeds=[True]), "seeds", id="bool seed"),
    pytest.param(lasso_config(seeds={"master_seed": "x", "count": 2}), "seeds.master_seed",
                 id="string master_seed"),
    # masked to 64 bits it would derive the seeds of master_seed 5
    pytest.param(lasso_config(seeds={"master_seed": 2**64 + 5, "count": 3}),
                 "seeds.master_seed: master seed must be in [0, 2**64), got 18446744073709551621",
                 id="master_seed of 65 bits"),
    pytest.param(lasso_config(problem={"demo": {"name": "lasso", "params": {
        "n": "12", "p": 10, "lam": 0.1}}}), "problem.demo.params.n", id="string demo param"),
    pytest.param(lasso_config(problem={"demo": {"name": "lasso", "params": {
        "n": 12.5, "p": 10, "lam": 0.1}}}), "problem.demo.params.n",
                 id="float integer demo param"),
    pytest.param(lasso_config(problem={"demo": {"name": "lasso", "params": {
        "n": 12, "p": 10, "lam": 0.1, "seed": -1}}}), "problem.demo.params: demo seed",
                 id="negative demo seed"),
    pytest.param(lasso_config(problem={"demo": {"name": "lasso", "params": {
        "n": 12, "p": 10, "lam": 0.1, "cond": -1.0}}}), "problem.demo.params: cond",
                 id="negative lasso cond"),
    pytest.param(custom_prox_config({"family": "l1", "lam": "0.5"}),
                 "problem.custom.blocks[0].operator.lam", id="string prox value"),
    pytest.param(lasso_config(solver={"max_iters": 3}), "solver", id="unknown solver key"),
    pytest.param(lasso_config(noise={"mode": "poly", "sigma0": 0.2, "theta": 0.75,
                                     "thetaa": 3}),
                 "noise: unknown key 'thetaa'; accepted keys: mode, sigma0, theta",
                 id="unknown noise key"),
    pytest.param(lasso_config(inertia={"mode": "zero", "alpha": 0.1}),
                 "inertia: unknown key 'alpha'; accepted keys: mode, alpha0",
                 id="unknown inertia key"),
    pytest.param(lasso_config(noise={"mode": "poly", "sigma0": 0.2, "theta": 0.75, "rho": 0.5}),
                 "noise: unknown key 'rho'", id="noise key of another mode"),
    pytest.param(lasso_config(noise={"mode": "zero", "sigma0": 5}), "noise: zero mode",
                 id="nonzero scale of zero noise"),
    pytest.param(lasso_config(noise={"mode": "geom", "sigma0": 0.2, "rho": 0.5, "theta": 1}),
                 "noise: unknown key 'theta'", id="geom noise with theta"),
    pytest.param(lasso_config(noise={"mode": "poly", "sigma0": 0.2, "theta": "x"}),
                 "noise.theta", id="string noise theta"),
    pytest.param(lasso_config(algoritm="pd_class1"), "config", id="misspelled algorithm key"),
    pytest.param(lasso_config(problem={"demo": {"name": "lasso", "params": {
        "n": 4, "p": 3, "lam": 0.1}, "frm": "cp"}}), "problem.demo",
                 id="misspelled demo form key"),
    pytest.param({"problem": {"custom": {
        "blocks": [{"dim": 2}],
        "map": {"kind": "linear", "q": [[1.0, 0.0], [0.0, 1.0]], "offest": [1.0, 0.0]}}},
                  "algorithm": "sifb"},
                 "problem.custom.map: unknown key 'offest'; accepted keys: kind, q, offset",
                 id="misspelled linear map offset"),
    pytest.param(edited(custom_pd_config(),
                        lambda c: c["problem"]["custom_pd"]["dual"][0].update(dinv_muu=0.5)),
                 "problem.custom_pd.dual[0]", id="misspelled dinv_mu"),
    pytest.param(edited(custom_pd_config(), lambda c: c["problem"].update(
        demo={"name": "lasso", "params": {"n": 4, "p": 3, "lam": 0.1}})), "problem",
                 id="demo and custom_pd"),
    pytest.param(edited(custom_prox_config(None),
                        lambda c: c["problem"]["custom"]["blocks"][0].update(dim="two")),
                 "problem.custom.blocks[0].dim", id="string dim"),
    pytest.param(edited(custom_prox_config(None),
                        lambda c: c["problem"]["custom"]["blocks"][0].update(dim=-1)),
                 "problem.custom.blocks[0]", id="negative dim"),
    pytest.param({"problem": {"custom": {"blocks": [{"dim": 0}], "map": {"kind": "zero"}}}},
                 "problem.custom.blocks[0]", id="zero dim"),
    pytest.param({"problem": {"custom": {"blocks": [], "map": {"kind": "zero"}}}},
                 "problem.custom.blocks", id="no blocks"),
    pytest.param(edited(custom_pd_config(), lambda c: c["problem"]["custom_pd"].update(
        primal=[], coupling=None)), "problem.custom_pd.primal", id="no primal blocks"),
    pytest.param(edited(custom_prox_config(None),
                        lambda c: c["problem"]["custom"].update(blocks=3)),
                 "problem.custom.blocks", id="blocks a number"),
    pytest.param(lasso_config(problem=5), "problem", id="problem a number"),
    pytest.param(edited(custom_prox_config(None), lambda c: c["problem"]["custom"].update(
        preconditioner={"kind": "diagonal"})), "problem.custom.preconditioner",
                 id="diagonal metric without weights"),
    pytest.param(edited(custom_pd_config(),
                        lambda c: c["problem"]["custom_pd"].update(coupling=[["a"]])),
                 "problem.custom_pd.coupling[0][0]", id="string coupling cell"),
    pytest.param(custom_prox_config({"family": "box", "lo": "a", "hi": 1.0}),
                 "problem.custom.blocks[0].operator.lo", id="string box lo"),
    pytest.param(edited(custom_prox_config(None),
                        lambda c: c["problem"]["custom"].update(beta="a")),
                 "problem.custom.beta", id="string beta"),
    pytest.param(edited(custom_pd_config(), lambda c: c["problem"]["custom_pd"].update(nu0="a")),
                 "problem.custom_pd.nu0", id="string nu0"),
    pytest.param(custom_prox_config(3), "problem.custom.blocks[0].operator",
                 id="operator a number"),
    pytest.param(edited(custom_prox_config(None),
                        lambda c: c["problem"]["custom"]["map"].update(bogus=1)),
                 "problem.custom.map", id="unknown map key"),
    pytest.param(edited(custom_pd_config(), lambda c: c["problem"]["custom_pd"].update(
        V={"kind": "scalar", "values": [1.0], "valuse": [2.0]})),
                 "problem.custom_pd.V: unknown key 'valuse'; accepted keys: kind, values",
                 id="unknown metric key"),
    pytest.param(edited(custom_prox_config(None), lambda c: c["problem"]["custom"]["blocks"][0]
                        .update(operatr={"family": "l1", "lam": 0.1})),
                 "problem.custom.blocks[0]", id="unknown block key"),
    pytest.param(edited(custom_prox_config(None), lambda c: c["problem"]["custom"]["map"].update(
        b={"file": "b.txt", "rows": 2})), "problem.custom.map.b",
                 id="unknown matrix reference key"),
    pytest.param(lasso_config(problem={"demo": {"name": "coupled_box_qp", "params": {
        "m": 2, "dims": 0}}}), "problem.demo.params: dims must be at least 1, got 0",
                 id="zero coupled_box_qp dims"),
    pytest.param(lasso_config(problem={"demo": {"name": "parallel_sum", "params": {
        "dims": -1, "mu": 0.5, "lam": 0.1}}}),
                 "problem.demo.params: dims must be at least 1, got -1",
                 id="negative parallel_sum dims"),
    pytest.param(lasso_config(problem={"demo": {"name": "lasso", "params": {
        "n": 12, "p": 10, "lam": 0.1, "cond": float("inf")}}}),
                 "problem.demo.params: cond must be finite and at least 1, got inf",
                 id="infinite lasso cond"),
    pytest.param(lasso_config(problem={"demo": {"name": "parallel_sum", "params": {
        "dims": 6, "mu": float("inf"), "lam": 0.1}}}),
                 "problem.demo.params: smoothing mu must be finite, got inf",
                 id="infinite parallel_sum mu"),
    pytest.param(lasso_config(problem={"demo": {"name": "parallel_sum", "params": {
        "dims": 6, "mu": 0.5, "lam": 0.1, "g_family": "l1"}}}),
                 "problem.demo.params: unknown key 'g_family'", id="removed g_family key"),
    pytest.param(edited(custom_prox_config(None), lambda c: c.update(algorithm="pd_class1")),
                 "flat custom problems run on the sifb route", id="custom on pd_class1"),
    pytest.param(edited(custom_pd_config(), lambda c: c["problem"]["custom_pd"].update(
        dual=[{"dim": 2, "dinv_mu": 0.5}, {"dim": 1, "dinv_mu": 0.25}], coupling=[[0.5], [None]])),
                 "problem.custom_pd.dual: per-block dinv_mu values must currently agree",
                 id="different dinv_mu"),
]


@pytest.mark.parametrize("cfg,entry", MALFORMED)
def test_malformed_value_exits_1_with_one_line(tmp_path, capsys, cfg, entry):
    (tmp_path / "b.txt").write_text("1 0\n")  # a matrix file the configs may reference
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run", "sweep"):
        args = [command, path] + ([] if command == "validate" else ["--out", str(tmp_path / "o")])
        assert main(args) == 1, command
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {entry}") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


NAN = float("nan")  # json writes it as NaN, which json reads back


def _nan_pd_dinv_mu(c):
    c["problem"]["custom_pd"]["dual"][0]["dinv_mu"] = NAN


# (config with one NaN value, the refusal it prints)
NAN_VALUES = [
    pytest.param(lasso_config(problem={"demo": {"name": "lasso", "params": {
        "n": 12, "p": 10, "lam": NAN}}}), "lam must be nonnegative, got nan", id="lasso lam"),
    pytest.param(lasso_config(problem={"demo": {"name": "parallel_sum", "params": {
        "dims": 6, "mu": 0.5, "lam": NAN}}}), "lam must be nonnegative, got nan",
                 id="parallel_sum lam"),
    pytest.param(lasso_config(problem={"demo": {"name": "parallel_sum", "params": {
        "dims": 6, "mu": NAN, "lam": 0.1}}}), "smoothing mu must be positive, got nan",
                 id="parallel_sum mu"),
    pytest.param(custom_prox_config({"family": "l1", "lam": NAN}),
                 "l1 weight must be nonnegative, got nan", id="l1 lam"),
    pytest.param(custom_prox_config({"family": "sq_l2", "lam": NAN}),
                 "sq_l2 weight must be positive, got nan", id="sq_l2 lam"),
    pytest.param(custom_prox_config({"family": "sq_l2", "lam": 1.0, "center": [0.0, NAN]}),
                 "center has a NaN entry", id="sq_l2 center"),
    pytest.param(custom_prox_config({"family": "linf_ball", "radius": NAN}),
                 "ball radius must be nonnegative, got nan", id="linf_ball radius"),
    pytest.param(custom_prox_config({"family": "box", "lo": NAN, "hi": 1.0}),
                 "lo has a NaN entry", id="box lo"),
    pytest.param(custom_prox_config({"family": "box", "lo": -1.0, "hi": [NAN, 1.0]}),
                 "hi has a NaN entry", id="box hi"),
    pytest.param(custom_prox_config({"family": "affine", "c": NAN}),
                 "c has a NaN entry", id="affine c"),
    pytest.param(custom_pd_config(dual_g={"family": "box", "lo": -1.0, "hi": NAN}),
                 "hi has a NaN entry", id="custom_pd box hi"),
    pytest.param(edited(custom_prox_config(None), lambda c: c["problem"]["custom"].update(
        preconditioner={"kind": "scalar", "values": [NAN]})),
                 "preconditioner entries must be positive; min = nan", id="metric entry"),
    pytest.param(edited(custom_pd_config(), _nan_pd_dinv_mu),
                 "scale must be positive, got nan", id="dinv_mu"),
    pytest.param(lasso_config(solver={"stop_tol": NAN}),
                 "stop_tol must be nonnegative, got nan", id="stop_tol"),
]


@pytest.mark.parametrize("cfg,refusal", NAN_VALUES)
def test_nan_value_exits_1_before_any_solve(tmp_path, capsys, cfg, refusal):
    # a range check written so that NaN fails it: the value never reaches a
    # solve, where it diverges or runs the reference to its iteration cap
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run", "sweep"):
        args = [command, path] + ([] if command == "validate" else ["--out", str(tmp_path / "o")])
        assert main(args) == 1, command
        captured = capsys.readouterr()
        assert refusal in captured.out + captured.err, command
        assert "Traceback" not in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sweep_seed_count_below_one_is_refused(tmp_path, capsys, count):
    path = write_config(tmp_path, lasso_config(noise=NOISY))
    assert main(["sweep", path, "--seeds", count, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"configuration error: --seeds must be at least 1, got {count}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_jobs_below_one_is_refused(tmp_path, capsys, jobs):
    path = write_config(tmp_path, lasso_config(seeds=[1, 2]))
    assert main(["sweep", path, "--jobs", jobs, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        f"configuration error: --jobs must be at least 1, got {jobs}"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section,spec,accepted", [
    ("solver", {"max_iters": 3},
     "epsilon, gamma, relaxation, max_iter, stop_tol, record_every"),
    ("noise", {"mode": "poly", "sigma0": 0.2, "theta": 0.75, "thetaa": 3},
     "mode, sigma0, theta"),
    ("inertia", {"mode": "geom", "alpha0": 0.2, "rho": 0.5, "q0": 1}, "mode, alpha0, rho"),
], ids=["solver", "noise", "inertia"])
def test_unknown_section_key_is_refused_with_the_accepted_keys(tmp_path, capsys, section,
                                                               spec, accepted):
    path = write_config(tmp_path, lasso_config(**{section: spec}))
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    assert "unknown key" in line and line.endswith(f"accepted keys: {accepted}")


@pytest.mark.parametrize("section,spec,prefix", [
    ("noise", {"mode": "poly", "sigma0": -1, "theta": 1}, "noise.sigma0 must lie in [0, inf)"),
    ("inertia", {"mode": "poly", "alpha0": 1.5, "q": 2}, "inertia.alpha0 must lie in [0, 1)"),
    ("noise", {"mode": "geom", "sigma0": 0.1, "rho": -0.5}, "noise.rho must be nonnegative"),
    ("inertia", {"mode": "geom", "alpha0": 0.1, "rho": -1}, "inertia.rho must be nonnegative"),
], ids=["noise.sigma0", "inertia.alpha0", "noise.rho", "inertia.rho"])
def test_schedule_range_refusal_names_its_path(tmp_path, capsys, section, spec, prefix):
    path = write_config(tmp_path, lasso_config(**{section: spec}))
    assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.strip().splitlines()
    assert line.startswith(f"configuration error: {prefix}")


def assert_one_configuration_error(tmp_path, capsys, cfg, line):
    path = write_config(tmp_path, cfg)
    for command in ("validate", "run"):
        args = [command, path] + ([] if command == "validate" else ["--out", str(tmp_path / "o")])
        assert main(args) == 1, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [line]
    assert not (tmp_path / "o").exists()


def test_custom_pd_coupling_cell_of_wrong_shape_is_a_configuration_error(tmp_path, capsys):
    cfg = {"problem": {"custom_pd": {
               "primal": [{"dim": 2}],
               "dual": [{"dim": 3, "g": {"family": "l1", "lam": 1.0}}],
               "coupling": [[[[0.5, 0.0], [0.0, 0.5]]]]}},
           "algorithm": "pd_class1"}
    assert_one_configuration_error(
        tmp_path, capsys, cfg, "configuration error: problem.custom_pd.coupling: "
        "entry (0,0): shape (2, 2), expected (3, 2)")


def test_custom_lstsq_map_with_other_column_count_is_a_configuration_error(tmp_path, capsys):
    cfg = {"problem": {"custom": {
               "blocks": [{"dim": 3}],
               "map": {"kind": "lstsq", "a": np.ones((5, 2)).tolist(), "b": [1.0] * 5}}},
           "algorithm": "sifb"}
    assert_one_configuration_error(
        tmp_path, capsys, cfg,
        "configuration error: problem.custom.map: A has 2 columns, block dims (3,)")


def test_linear_map_with_a_number_for_q_is_a_configuration_error(tmp_path, capsys):
    cfg = custom_prox_config(None)
    cfg["problem"]["custom"]["map"] = {"kind": "linear", "q": 5.0}
    assert_one_configuration_error(
        tmp_path, capsys, cfg,
        "configuration error: problem.custom.map: quadratic matrix must be square, got ()")


def custom_map_config(map_spec, **custom):
    """custom_prox_config(None) with the map map_spec and the other custom keys."""
    return edited(custom_prox_config(None),
                  lambda c: c["problem"]["custom"].update(map=map_spec, **custom))


def demo_config(name, **params):
    return lasso_config(problem={"demo": {"name": name, "params": params}})


def beta_out_of_range(where, scale):
    return (f"{where}: mu times the metric's largest entry is {scale}: "
            f"beta = 1/{scale} is out of the float64 range")


# (config, its one refusal line): a value of the right type that the piece
# built from it refuses, reported under the config entry it came from
NAMED_REFUSALS = [
    pytest.param(custom_map_config({"kind": "linear", "q": [[1.0, 2.0], [0.0, 1.0]]}),
                 "problem.custom.map: quadratic matrix must be symmetric", id="asymmetric q"),
    pytest.param(custom_map_config({"kind": "linear", "q": [[-1.0, 0.0], [0.0, -2.0]]}),
                 "problem.custom.map: quadratic matrix must be positive semidefinite",
                 id="negative definite q"),
    # an indefinite Q is not monotone: such a run diverges
    pytest.param(custom_map_config({"kind": "linear", "q": [[-1.0, 0.0], [0.0, 1.0]],
                                    "offset": [1.0, 1.0]}),
                 "problem.custom.map: quadratic matrix must be positive semidefinite",
                 id="indefinite q"),
    pytest.param(custom_map_config({"kind": "lstsq", "a": [[1.0, 0.0], [0.0, 1.0]],
                                    "b": [1.0, 0.0, 2.0]}),
                 "problem.custom.map: data shapes incompatible: A (2, 2), b (3,)",
                 id="lstsq rows"),
    pytest.param(custom_map_config({"kind": "scaled_identity", "mu": -1}),
                 "problem.custom.map: scale must be positive, got -1.0", id="negative mu"),
    pytest.param(edited(custom_pd_config(), lambda c: c["problem"]["custom_pd"]["dual"][0]
                        .update(dinv_mu=-1)),
                 "problem.custom_pd.dual[0].dinv_mu: scale must be positive, got -1.0",
                 id="negative dinv_mu"),
    pytest.param(custom_prox_config({"family": "l1", "lam": -1}),
                 "problem.custom.blocks[0].operator: l1 weight must be nonnegative, got -1",
                 id="l1 lam"),
    pytest.param(custom_prox_config({"family": "sq_l2", "lam": 0}),
                 "problem.custom.blocks[0].operator: sq_l2 weight must be positive, got 0",
                 id="sq_l2 lam"),
    pytest.param(custom_prox_config({"family": "box", "lo": 1.0, "hi": -1.0}),
                 "problem.custom.blocks[0].operator: box indicator needs lo <= hi",
                 id="box bounds"),
    pytest.param(custom_prox_config({"family": "linf_ball", "radius": -1}),
                 "problem.custom.blocks[0].operator: ball radius must be nonnegative, got -1",
                 id="linf_ball radius"),
    pytest.param(custom_prox_config({"family": "affine", "c": [0.0, float("nan")]}),
                 "problem.custom.blocks[0].operator: c has a NaN entry", id="affine c"),
    # infinite parameters that leave the prox without a point: each such run
    # diverged at its first iteration
    pytest.param(custom_prox_config({"family": "sq_l2", "lam": float("inf")}),
                 "problem.custom.blocks[0].operator: sq_l2 weight must be finite, got inf",
                 id="infinite sq_l2 lam"),
    pytest.param(custom_prox_config({"family": "sq_l2", "center": [0.0, float("inf")]}),
                 "problem.custom.blocks[0].operator: center has an entry inf, which leaves "
                 "the prox undefined", id="infinite sq_l2 center"),
    pytest.param(custom_prox_config({"family": "affine", "c": [float("-inf"), 0.0]}),
                 "problem.custom.blocks[0].operator: c has an entry -inf, which leaves the "
                 "prox undefined", id="infinite affine c"),
    pytest.param(custom_prox_config({"family": "box", "lo": [0.0, float("inf")],
                                     "hi": float("inf")}),
                 "problem.custom.blocks[0].operator: lo has an entry inf, which leaves the "
                 "prox undefined", id="box lo +inf"),
    pytest.param(custom_prox_config({"family": "box", "lo": float("-inf"),
                                     "hi": float("-inf")}),
                 "problem.custom.blocks[0].operator: hi has an entry -inf, which leaves the "
                 "prox undefined", id="box hi -inf"),
    pytest.param(custom_pd_config(dual_g={"family": "l1", "lam": -1}),
                 "problem.custom_pd.dual[0].g: l1 weight must be nonnegative, got -1",
                 id="custom_pd dual g"),
    pytest.param(demo_config("lasso", n=12, p=10, lam=-1),
                 "problem.demo.params: lam must be nonnegative, got -1", id="lasso lam"),
    pytest.param(demo_config("lasso", n=0, p=10, lam=0.1),
                 "problem.demo.params: need n, p >= 1, got (0, 10)", id="lasso n"),
    pytest.param(demo_config("coupled_box_qp", m=1, dims=3),
                 "problem.demo.params: need at least 2 blocks, got 1", id="coupled_box_qp m"),
    pytest.param(demo_config("parallel_sum", dims=6, mu=0, lam=0.1),
                 "problem.demo.params: smoothing mu must be positive, got 0",
                 id="parallel_sum mu"),
    pytest.param(demo_config("parallel_sum", dims=6, mu=0.5, lam=-1),
                 "problem.demo.params: lam must be nonnegative, got -1", id="parallel_sum lam"),
    # beta = 1/(mu * largest metric entry) would be 0 or inf: refused by the
    # map's entry, not as a solver setting the config never gave
    pytest.param(custom_map_config({"kind": "scaled_identity", "mu": 1e200},
                                   preconditioner={"kind": "diagonal",
                                                   "weights": [[1e200, 1.0]]}),
                 beta_out_of_range("problem.custom.map", "inf"), id="scaled_identity overflow"),
    pytest.param(custom_map_config({"kind": "scaled_identity", "mu": 1e-200},
                                   preconditioner={"kind": "diagonal",
                                                   "weights": [[1e-200, 1e-200]]}),
                 beta_out_of_range("problem.custom.map", "0.0"),
                 id="scaled_identity underflow"),
    pytest.param(custom_map_config({"kind": "scaled_identity", "mu": 1e-160},
                                   preconditioner={"kind": "scalar", "values": [1e-150]}),
                 beta_out_of_range("problem.custom.map", "1e-310"),
                 id="scaled_identity subnormal"),
    pytest.param(edited(custom_pd_config(), lambda c: (
        c["problem"]["custom_pd"]["dual"][0].update(dinv_mu=1e200),
        c["problem"]["custom_pd"].update(W={"kind": "diagonal", "weights": [[1e200, 1.0]]}))),
        beta_out_of_range("problem.custom_pd.dual[0].dinv_mu", "inf"), id="dinv_mu overflow"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cfg,line", NAMED_REFUSALS)
def test_refused_value_names_its_entry(tmp_path, capsys, cfg, line):
    assert_one_configuration_error(tmp_path, capsys, cfg, f"configuration error: {line}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infinities_with_a_meaning_are_accepted_and_converge(tmp_path, capsys):
    # an infinite l1 weight pins its block at 0, an infinite ball radius
    # leaves its block free, and a box may have open sides
    inf = float("inf")
    cfg = {"problem": {"custom": {
               "blocks": [{"dim": 2, "operator": {"family": "l1", "lam": inf}},
                          {"dim": 2, "operator": {"family": "linf_ball", "radius": inf}},
                          {"dim": 2, "operator": {"family": "box", "lo": [0.0, -inf],
                                                  "hi": inf}}],
               "map": {"kind": "linear", "q": np.eye(6).tolist(),
                       "offset": [-1.0, 1.0, -2.0, 2.0, 1.0, 1.0]}}},
           "algorithm": "sifb"}
    path = write_config(tmp_path, cfg)
    assert main(["validate", path]) == 0
    out = str(tmp_path / "o")
    assert main(["run", path, "--out", out]) == 0
    assert load_json(out, "summary.json")["status"] == "converged"
    exp = build_experiment(cfg)
    inst = exp.make_instance(exp.run_seed)
    x, trace = run(inst, exp.solver_config(inst.beta))
    assert trace.status == "converged"
    assert np.allclose(x.concatenated(), [0.0, 0.0, 2.0, -2.0, 0.0, -1.0], atol=1e-7)


def test_linear_map_offset_of_other_length_is_a_configuration_error(tmp_path, capsys):
    cfg = custom_prox_config(None)
    cfg["problem"]["custom"]["map"] = {"kind": "linear", "q": np.eye(2).tolist(),
                                       "offset": [1.0, 2.0, 3.0]}
    assert_one_configuration_error(
        tmp_path, capsys, cfg,
        "configuration error: problem.custom.map: offset has length 3, expected 2")


def test_custom_diagonal_metric_of_other_dims_is_a_configuration_error(tmp_path, capsys):
    cfg = {"problem": {"custom": {
               "blocks": [{"dim": 2}],
               "preconditioner": {"kind": "diagonal", "weights": [[1.0, 1.0, 1.0]]},
               "map": {"kind": "lstsq", "a": np.eye(2).tolist(), "b": [1.0, 0.0]}}},
           "algorithm": "sifb"}
    assert_one_configuration_error(
        tmp_path, capsys, cfg, "configuration error: problem.custom.preconditioner: "
        "weight lengths (3,) != block dims (2,)")


# a vector parameter of a catalogue family is refused, by entry, unless its
# shape is (), (1,) or the block's (d,)


def test_box_lo_of_other_length_on_a_custom_block_is_a_configuration_error(tmp_path, capsys):
    cfg = custom_prox_config({"family": "box", "lo": [-1.0, -1.0, -1.0], "hi": 1.0})
    assert_one_configuration_error(
        tmp_path, capsys, cfg,
        "configuration error: problem.custom.blocks[0]: lo has shape (3,), block dim 2")


def test_box_bounds_of_two_shapes_are_a_configuration_error(tmp_path, capsys):
    cfg = custom_prox_config({"family": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0]})
    assert_one_configuration_error(
        tmp_path, capsys, cfg, "configuration error: problem.custom.blocks[0].operator: "
        "lo has shape (3,), hi has shape (2,)")


def test_affine_c_of_other_length_on_a_custom_pd_primal_block_is_a_configuration_error(
        tmp_path, capsys):
    cfg = custom_pd_config(primal_operator={"family": "affine", "c": [1.0, 2.0, 3.0]})
    assert_one_configuration_error(
        tmp_path, capsys, cfg,
        "configuration error: problem.custom_pd.primal[0]: c has shape (3,), block dim 2")


def test_sq_l2_center_of_other_length_on_a_custom_pd_dual_g_is_a_configuration_error(
        tmp_path, capsys):
    cfg = custom_pd_config(dual_g={"family": "sq_l2", "lam": 1.0, "center": [1.0, 2.0, 3.0]})
    assert_one_configuration_error(
        tmp_path, capsys, cfg,
        "configuration error: problem.custom_pd.dual[0]: center has shape (3,), block dim 2")


def test_box_of_other_length_on_a_custom_pd_dual_g_is_a_configuration_error(tmp_path, capsys):
    # a box has no closed-form conjugate prox: its dual block takes the Moreau path
    cfg = custom_pd_config(dual_g={"family": "box", "lo": [-1.0, -1.0, -1.0], "hi": 1.0})
    assert_one_configuration_error(
        tmp_path, capsys, cfg,
        "configuration error: problem.custom_pd.dual[0]: lo has shape (3,), block dim 2")


def test_one_element_center_runs_as_the_scalar_center(tmp_path):
    traces = []
    for center in ([0.5], 0.5):
        cfg = custom_prox_config({"family": "sq_l2", "lam": 1.0, "center": center})
        out = tmp_path / f"o{len(traces)}"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        traces.append(read_file(out, "trace.csv"))
    assert traces[0] == traces[1]


# a missing key or a non-positive metric entry is refused with one line


def test_nonpositive_diagonal_metric_weight_is_a_configuration_error(tmp_path, capsys):
    cfg = custom_prox_config(None)
    cfg["problem"]["custom"]["preconditioner"] = {"kind": "diagonal", "weights": [[1.0, -1.0]]}
    assert_one_configuration_error(
        tmp_path, capsys, cfg,
        "configuration error: problem.custom.preconditioner: "
        "preconditioner entries must be positive; min = -1.0")


def test_nonpositive_scalar_metric_value_is_a_configuration_error(tmp_path, capsys):
    cfg = custom_pd_config()
    cfg["problem"]["custom_pd"]["W"] = {"kind": "scalar", "values": [0.0]}
    assert_one_configuration_error(
        tmp_path, capsys, cfg,
        "configuration error: problem.custom_pd.W: "
        "preconditioner entries must be positive; min = 0.0")


def _non_finite_cases():
    """(config, key path of one matrix or vector in it, whether the entry may
    name a file) for each custom-problem entry checked for non-finite values
    (x0 has its own test)."""
    lstsq = custom_prox_config(None)
    linear = edited(custom_prox_config(None), lambda c: c["problem"]["custom"].update(
        map={"kind": "linear", "q": [[1.0, 0.0], [0.0, 2.0]], "offset": [1.0, 0.0]}))
    pd = edited(custom_pd_config(), lambda c: c["problem"]["custom_pd"].update(
        smooth={"kind": "lstsq", "a": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.0]}))
    pd["problem"]["custom_pd"]["primal"][0]["z"] = [1.0, 0.0]
    pd["problem"]["custom_pd"]["dual"][0]["r"] = [1.0, 0.0]
    return [pytest.param(cfg, keys, file, id=".".join(map(str, keys))) for cfg, keys, file in [
        (lstsq, ("custom", "map", "a"), True),
        (lstsq, ("custom", "map", "b"), True),
        (linear, ("custom", "map", "q"), True),
        (linear, ("custom", "map", "offset"), True),
        (pd, ("custom_pd", "smooth", "a"), True),
        (pd, ("custom_pd", "primal", 0, "z"), False),
        (pd, ("custom_pd", "dual", 0, "r"), False),
    ]]


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("cfg,keys,file", _non_finite_cases())
def test_non_finite_custom_data_exits_1_before_any_solve(tmp_path, capsys, cfg, keys, file,
                                                         bad):
    # NaN inline, inf from a file where the entry takes one (z and r are
    # inline only): one line naming the entry and its source, no numpy warning
    cfg = copy.deepcopy(cfg)
    parent = cfg["problem"]
    for key in keys[:-1]:
        parent = parent[key]
    values = np.array(parent[keys[-1]], dtype=np.float64)
    values.flat[0] = float(bad)
    if bad == "inf" and file:
        np.savetxt(tmp_path / "bad.txt", values)
        parent[keys[-1]], source = {"file": "bad.txt"}, "bad.txt"
    else:
        parent[keys[-1]], source = values.tolist(), "inline"
    where = "problem" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_one_configuration_error(
            tmp_path, capsys, cfg,
            f"configuration error: {where} ({source}) has non-finite entries")


@pytest.mark.parametrize("cfg,where", [
    (edited(custom_prox_config(None), lambda c: c["problem"]["custom"].update(
        preconditioner={"kind": "diagonal", "weights": [[1.0, float("inf")]]})),
     "problem.custom.preconditioner"),
    (edited(custom_pd_config(), lambda c: c["problem"]["custom_pd"].update(
        V={"kind": "scalar", "values": [float("inf")]})), "problem.custom_pd.V"),
], ids=["diagonal", "scalar"])
def test_infinite_metric_entry_is_a_configuration_error(tmp_path, capsys, cfg, where):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_one_configuration_error(
            tmp_path, capsys, cfg, f"configuration error: {where}: preconditioner entries "
                                   "must be finite; max = inf")


@pytest.mark.parametrize("cfg,where,what", [
    (edited(custom_prox_config(None), lambda c: c["problem"]["custom"].update(
        map={"kind": "lstsq", "a": [[1e200, 0.0], [0.0, 2.0], [1.0, 1.0]],
             "b": [1.0, 0.0, 0.0]})), "problem.custom.map", "A'A"),
    (edited(custom_prox_config(None), lambda c: c["problem"]["custom"].update(
        preconditioner={"kind": "diagonal", "weights": [[1e200, 1.0]]},
        map={"kind": "linear", "q": [[1e200, 0.0], [0.0, 1.0]]})), "problem.custom.map", "Q"),
    (edited(custom_pd_config(), lambda c: c["problem"]["custom_pd"].update(
        smooth={"kind": "lstsq", "a": [[1e200, 0.0], [0.0, 2.0], [1.0, 1.0]],
                "b": [1.0, 0.0, 0.0]})), "problem.custom_pd.smooth", "A'A"),
], ids=["lstsq", "linear", "custom_pd-smooth"])
def test_map_whose_matrix_overflows_is_a_configuration_error(tmp_path, capsys, cfg, where,
                                                             what):
    # finite entries whose Gram matrix in the metric overflows: one line
    # naming the map, no numpy warning and no beta of nan reported as a
    # solver setting
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_one_configuration_error(
            tmp_path, capsys, cfg, f"configuration error: {where}: lambda_max of {what} in "
                                   "the metric is nan: the matrix overflows float64")


def test_scalar_metric_without_values_is_a_configuration_error(tmp_path, capsys):
    cfg = custom_prox_config(None)
    cfg["problem"]["custom"]["preconditioner"] = {"kind": "scalar"}
    assert_one_configuration_error(
        tmp_path, capsys, cfg, "configuration error: problem.custom.preconditioner needs 'values'")


def test_block_without_dim_is_a_configuration_error(tmp_path, capsys):
    cfg = custom_pd_config()
    del cfg["problem"]["custom_pd"]["dual"][0]["dim"]
    assert_one_configuration_error(
        tmp_path, capsys, cfg, "configuration error: problem.custom_pd.dual[0] needs 'dim'")


def test_map_without_kind_is_a_configuration_error(tmp_path, capsys):
    cfg = custom_prox_config(None)
    del cfg["problem"]["custom"]["map"]["kind"]
    assert_one_configuration_error(tmp_path, capsys, cfg,
                                   "configuration error: problem.custom.map needs 'kind'")


def test_demo_without_name_is_a_configuration_error(tmp_path, capsys):
    cfg = lasso_config()
    del cfg["problem"]["demo"]["name"]
    assert_one_configuration_error(tmp_path, capsys, cfg,
                                   "configuration error: problem.demo needs 'name'")


def test_run_on_its_snapshot_replays_the_run(tmp_path):
    path = write_config(tmp_path, lasso_config(noise=NOISY, seeds=[3], solver={
        "max_iter": 20000, "stop_tol": 1e-4, "record_every": 10}))
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert main(["run", path, "--seed", "7", "--out", str(first)]) in (0, 2)
    snapshot = str(first / "resolved_config.json")
    assert load_json(snapshot)["resolved_seed"] == 7
    assert main(["run", snapshot, "--out", str(replay)]) in (0, 2)
    assert read_file(replay, "trace.csv") == read_file(first, "trace.csv")
    assert load_json(replay, "resolved_config.json") == load_json(snapshot)


def test_overflowing_coupling_norm_exits_2_without_a_warning(tmp_path, capsys):
    cfg = custom_pd_config()
    cfg["problem"]["custom_pd"]["coupling"] = [[1e200]]
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    [line] = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("run failure: ") and "non-finite" in line


def readme_text():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as f:
        return f.read()


def test_readme_python_blocks_run_in_order_in_one_namespace(capsys):
    # the library quick start and the stochastic snippet that builds on it:
    # an API change cannot leave the documented calls stale
    blocks = re.findall(r"```python\n(.*?)```", readme_text(), re.S)
    assert len(blocks) == 2
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    [printed] = capsys.readouterr().out.splitlines()
    assert float(printed) < 1e-6  # the forward-backward distance to the reference
    reference = namespace["reference_oracle"](namespace["demo"])
    assert (namespace["primal"] - reference).norm() < 1e-6
    assert namespace["cfg"].beta == namespace["inst"].beta


# a config fuzzer: known-good configs, each mutated once


def readme_example():
    return json.loads(re.search(r"A config is one JSON document:\n\n```json\n(.*?)```",
                                readme_text(), re.S).group(1))


def fuzz_bases():
    """The README example and this file's demo, custom and custom_pd configs,
    with a short solver budget."""
    bases = [readme_example(), lasso_config(), pd_lasso_config(),
             lasso_config(problem={"demo": {"name": "parallel_sum", "params": {
                 "dims": 4, "mu": 0.5, "lam": 0.3, "seed": 5}}}, algorithm="pd_class1"),
             lasso_config(problem={"demo": {"name": "coupled_box_qp", "params": {
                 "m": 2, "dims": 2, "seed": 1}, "form": "smooth"}}, algorithm="pd_class2"),
             custom_prox_config({"family": "box", "lo": -1.0, "hi": [1.0, 2.0]}),
             edited(custom_prox_config({"family": "l1", "lam": 0.1}), lambda c: c["problem"][
                 "custom"].update(beta=0.5, x0=[0.5, 0.5], preconditioner={
                     "kind": "diagonal", "weights": [[1.0, 2.0]]})),
             edited(custom_prox_config(None), lambda c: c["problem"]["custom"]["map"].update(
                 a={"file": "a.txt"})),
             edited(custom_prox_config(None), lambda c: c["problem"]["custom"].update(map={
                 "kind": "linear", "q": [[1.0, 0.0], [0.0, 2.0]], "offset": [1.0, 0.0]})),
             edited(custom_pd_config(dual_g={"family": "sq_l2", "lam": 1.0}), lambda c: c[
                 "problem"]["custom_pd"].update(V={"kind": "scalar", "values": [1.0]}, nu0=1.0)),
             edited(custom_pd_config(primal_operator={"family": "box", "lo": -1.0, "hi": 1.0}),
                    lambda c: c["problem"]["custom_pd"]["dual"][0].update(dinv_mu=0.5))]
    for cfg in bases:
        cfg["solver"] = {"max_iter": 20, "stop_tol": 1e-8, "record_every": 5}
    return bases


FUZZ_BASES = fuzz_bases()
# a replacement leaf: null, a bool, a string, a negative, a huge number, an
# empty list and object, a matrix of the wrong shape, a nested list
FUZZ_VALUES = [None, True, "x", -1, 1e308, [], {}, [[1.0, 2.0, 3.0]], [[[1.0]]]]
# keys a mutant adds: every key of the bases, the optional keys they omit, and a misspelling
FUZZ_KEYS = sorted({"x0", "z", "r", "nu0", "mu0", "beta", "dinv_mu", "offset", "smooth",
                    "form", "reference", "resolved_seed", "weights", "gamma", "operatr"}
                   | {key for cfg in FUZZ_BASES for key in re.findall(r'"(\w+)":',
                                                                       json.dumps(cfg))})


def _entries(node, path=()):
    """(path, value) of every entry below node."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _entries(value, path + (key,))


@st.composite
def config_mutants(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    entries = [p for p, _ in _entries(cfg)]
    objects = [()] + [p for p, v in _entries(cfg) if isinstance(v, dict)]
    op = draw(st.sampled_from(["delete", "add", "replace"]))
    path = draw(st.sampled_from(objects if op == "add" else entries))
    parent = cfg
    for key in path[:-1] if op != "add" else path:
        parent = parent[key]
    if op == "delete" and isinstance(parent, dict):  # a list entry is replaced instead
        del parent[path[-1]]
    elif op == "add":
        parent[draw(st.sampled_from(FUZZ_KEYS))] = draw(st.sampled_from(FUZZ_VALUES))
    else:
        parent[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
    return cfg


def test_mutated_configs_exit_by_the_contract(tmp_path, monkeypatch):
    # validate exits 0 or 1 and a config it passes runs to 0, 1 or 2; an
    # escape raises out of main here. A mutant without the bases' solver
    # budget runs 50 iterations at most.
    np.savetxt(tmp_path / "a.txt", np.eye(2))
    monkeypatch.setattr("sifb.cli.run", lambda inst, cfg, **kw: sifb.run(
        inst, dataclasses.replace(cfg, max_iter=min(cfg.max_iter, 50)), **kw))

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(cfg=config_mutants())
    def check(cfg):
        path = write_config(tmp_path, cfg)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            code = main(["validate", path])
            assert code in (0, 1)
            if code == 0:
                assert main(["run", path, "--out", str(tmp_path / "o")]) in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    check()


# --- property B: the sifb route's gates against the runs they admit -----------------

FAMILIES = ("zero", "l1", "sq_l2", "box", "linf_ball", "affine")
BUDGET = 20000  # iterations of one admitted run


def _orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def _psd(rng, n, rank):
    """A symmetric PSD n x n matrix of the given rank, its top eigenvalue 1
    and its other nonzero ones in [0.3, 1], which is 0 outside the rows and
    columns of `rank` coordinates: the others span its null space."""
    s = rng.uniform(0.3, 1.0, rank)
    s[:1] = 1.0
    u = _orthogonal(rng, rank)
    q = np.zeros((n, n))
    on = rng.permutation(n)[:rank]
    q[np.ix_(on, on)] = (u * s) @ u.T
    return q


@st.composite
def gated_custom_configs(draw):
    """A noise-free `custom` config on the sifb route whose inclusion has a
    zero, and where its step lies in the gate's range (0: eps, 1: the top).

    The map is lstsq (tall or wide, on one block), linear (PSD, singular ones
    included), scaled_identity or zero; the metric identity, scalar or
    diagonal; each block's operator any catalogue family. A zero exists
    because the linear term that no block can cancel lies in the map's
    range: a linear offset plus the affine blocks' c is Q y (without affine
    blocks, the offset lies in Q's range), an affine c on an lstsq block is
    A'A y, and on a zero map 0.

    The slowest run fits the budget: the map's top eigenvalue in the metric,
    1/beta, lies in [0.5, 2], and its other nonzero ones within a factor 0.3
    of it in the plain metric; a singular Q's null space is spanned by
    coordinates, so that no block function meets it at a small angle; an l1
    or sq_l2 weight is 0 (l1) or in [0.2, 2]; and eps, the least step and
    relaxation, lies in [0.2, 0.4].
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["lstsq", "linear", "scaled_identity", "zero"]))
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=1 if kind == "lstsq" else 2))
    n = sum(dims)
    cfg = {"blocks": [], "x0": rng.uniform(-2.0, 2.0, n).tolist()}
    metric = draw(st.sampled_from(["identity", "scalar", "diagonal"]))
    diag = np.ones(n)
    if metric == "scalar":
        values = rng.uniform(0.5, 2.0, len(dims))
        diag = np.repeat(values, dims)
        cfg["preconditioner"] = {"kind": "scalar", "values": values.tolist()}
    elif metric == "diagonal":
        diag = rng.uniform(0.5, 2.0, n)
        cfg["preconditioner"] = {"kind": "diagonal", "weights": [
            w.tolist() for w in np.split(diag, np.cumsum(dims)[:-1])]}
    sw, top = np.sqrt(diag), draw(st.floats(0.5, 2.0))
    hessian = np.zeros((n, n))
    if kind == "lstsq":
        wide = n > 1 and draw(st.booleans())
        rows = draw(st.integers(1, n - 1) if wide else st.integers(n + 1, n + 3))
        k = min(rows, n)
        a = (_orthogonal(rng, rows)[:, :k] * rng.uniform(0.55, 1.0, k)) @ _orthogonal(rng, n)[:k]
        a *= np.sqrt(top / np.linalg.eigvalsh((a * sw).T @ (a * sw))[-1])
        hessian = a.T @ a
        cfg["map"] = {"kind": "lstsq", "a": a.tolist(), "b": rng.standard_normal(rows).tolist()}
    elif kind == "linear":
        q = _psd(rng, n, draw(st.integers(0, n)))
        scale = np.linalg.eigvalsh(sw[:, None] * q * sw[None, :])[-1]
        hessian = q * (top / scale) if scale > 0 else q
        cfg["map"] = {"kind": "linear", "q": hessian.tolist()}
    elif kind == "scaled_identity":
        hessian = np.eye(n) * top / diag.max()
        cfg["map"] = {"kind": "scaled_identity", "mu": top / diag.max()}
    else:
        cfg["map"] = {"kind": "zero"}
    linear_term = np.zeros(n)
    for d, start in zip(dims, np.cumsum([0, *dims[:-1]])):
        family = draw(st.sampled_from(FAMILIES))
        params = {}
        if family in ("l1", "sq_l2"):
            params["lam"] = draw(st.floats(0.2, 2.0))
            if family == "l1" and draw(st.booleans()):
                params["lam"] = 0.0
        if family == "sq_l2":
            params["center"] = rng.uniform(-1.0, 1.0, d).tolist()
        if family == "box":
            mid = rng.uniform(-1.0, 1.0, d)
            params.update(lo=(mid - rng.uniform(0.0, 1.0, d)).tolist(),
                          hi=(mid + rng.uniform(0.0, 1.0, d)).tolist())
        if family == "linf_ball":
            params["radius"] = draw(st.floats(0.0, 2.0))
        if family == "affine":
            c = rng.uniform(-1.0, 1.0, d)
            if kind == "lstsq":
                c = hessian @ rng.uniform(-1.0, 1.0, n)
            elif kind == "zero":
                c = np.zeros(d)
            linear_term[start:start + d] = c
            params["c"] = c.tolist()
        cfg["blocks"].append({"dim": d, "operator": {"family": family, **params}})
    if kind == "linear":
        cfg["map"]["offset"] = (hessian @ rng.uniform(-1.0, 1.0, n) - linear_term).tolist()
    eps = draw(st.floats(0.2, 0.4))
    relaxation = draw(st.one_of(st.just(eps), st.just(1.0), st.floats(eps, 1.0)))
    step = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return {"problem": {"custom": cfg}, "algorithm": "sifb",
            "solver": {"epsilon": eps, "relaxation": relaxation, "max_iter": BUDGET,
                       "stop_tol": 1e-8, "record_every": 100},
            "seeds": [0]}, step


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=gated_custom_configs())
def test_sifb_gates_admit_only_runs_that_converge(case):
    # a custom problem that validate admits converges noise-free within a
    # fixed budget with bounded steps, and its map passes the audit at the
    # beta the instance reads; a counterexample is a gate bug
    cfg, step = case
    beta = build_experiment(cfg).make_instance(0).beta
    eps = cfg["solver"]["epsilon"]
    lo, hi = eps, min((2.0 - eps) * beta, 10.0)  # a zero map has beta = inf
    cfg["solver"]["gamma"] = hi if step == 1.0 else lo + step * (hi - lo)
    exp = build_experiment(cfg)
    if not all(passed for _, passed, _ in sifb.cli._validation_rows(exp)):
        return
    inst = exp.make_instance(0)
    x, trace = run(inst, exp.solver_config(inst.beta))
    assert trace.status == "converged", (trace.iterations, trace.final_residual)
    assert trace.steps_bounded and np.isfinite(x.flat).all()
    assert check_cocoercivity(inst.oracle.base, beta=inst.beta).passed
