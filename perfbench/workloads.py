"""The four benchmark workloads.

Each workload builds its inputs from the seed, computes its own reference
solutions with `sifb.problems.reference_oracle` (untimed), and then runs its
units: one replica (library workloads), one `sifb run` (pd-split-cli) or one
whole `sifb sweep` (sweep-cli). A unit is a fixed piece of work, the same
inputs every time, so its iteration counts must repeat exactly. `run_unit()`
returns a `Round`: one `Replica` per solve plus the unit's wall time. A round
is one pass over all units.

Library workloads call `sifb` directly; CLI workloads call `sifb.cli.main`
in process, exactly as `sifb run` / `sifb sweep` would run. All calls go
through module attributes (`problems.sifb_instance`, `solver.run`, ...) so
the probe's patches apply.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from sifb import cli, problems, solver, stochastic

# Poly noise and poly inertia of acceptance criterion 6.
STOCH = {"noise": {"mode": "poly", "sigma0": 0.25, "theta": 0.75},
         "inertia": {"mode": "poly", "alpha0": 0.5, "q": 1.5}}
SMALL_LASSO = {"n": 20, "p": 30, "lam": 0.1, "cond": 100.0, "seed": 42}


@dataclass
class Replica:
    setup_s: float
    solve_s: float
    iterations: int
    status: str
    dist: float          # primal distance to the reference solution
    ok: bool             # converged, exit code 0, and within the reference bound


@dataclass
class Round:
    total_s: float
    replicas: list
    # calibration slices (s) timed inside the unit, by the processes that ran it
    slices: list = field(default_factory=list)


def _replica(setup_s, solve_s, iterations, status, x, ref, ref_tol, exit_ok=True):
    dist = float(np.linalg.norm(np.asarray(x)[:ref.size] - ref))
    ok = exit_ok and status == solver.CONVERGED and dist <= ref_tol
    return Replica(setup_s, solve_s, int(iterations), status, dist, ok)


def _reference(demo):
    return problems.reference_oracle(demo, tol=1e-10).concatenated()


class Workload:
    name = ""
    default_seed = 0
    ref_tol = 0.0
    record_every = 1
    calibrated = True   # report times at reference speed (see speed.py)

    def __init__(self, seed, workdir):
        self.seed = self.default_seed if seed is None else int(seed)
        self.workdir = workdir

    def prepare(self):
        """Build the inputs and the reference solutions (untimed)."""

    def attach(self, probe):
        """Hook a freshly installed probe where the workload needs it."""

    def units(self):
        """The keys of this workload's units, in pass order."""
        raise NotImplementedError

    def run_unit(self, key, probe):
        raise NotImplementedError

    def round(self, probe):
        """One pass over all units, as a single `Round`."""
        parts = [self.run_unit(key, probe) for key in self.units()]
        return Round(sum(p.total_s for p in parts),
                     [r for p in parts for r in p.replicas])

    def floor(self):
        """(seconds, iterations) of the plain-numpy floor on these inputs."""
        return None

    def trace_bytes(self):
        return 0


class LibraryLasso(Workload):
    """Lasso replicas through `sifb_instance` + `run`, serially, in process.

    A replica is a (data seed, oracle seed) pair: noisy workloads solve one
    problem with many oracle seeds, noise-free ones several problems once.
    """

    shape = (20, 30)
    stoch = False
    replicas = 1
    data_seeds = 1
    stop_tol = 1e-8
    max_iter = 100000

    def prepare(self):
        n, p = self.shape
        first = SMALL_LASSO["seed"] if self.stoch else self.seed
        self.demos = [problems.build_lasso(n, p, 0.1, cond=100.0, seed=first + k)
                      for k in range(self.data_seeds)]
        self.refs = [_reference(demo) for demo in self.demos]
        if self.stoch:
            self.noise = stochastic.NoiseSchedule.from_config(STOCH["noise"])
            self.inertia = stochastic.InertiaSchedule.from_config(STOCH["inertia"])
            seeds = stochastic.derive_seeds(self.seed, self.replicas)
        else:
            self.noise = stochastic.NoiseSchedule.zero()
            self.inertia = stochastic.InertiaSchedule.zero()
            seeds = [0]
        self.cases = [(k, s) for k in range(self.data_seeds) for s in seeds]
        self.gammas = {}

    def _setup(self, case):
        k, seed = case
        inst = problems.sifb_instance(self.demos[k], noise=self.noise, seed=seed)
        cfg = solver.SolverConfig(beta=inst.beta, inertia=self.inertia,
                                  max_iter=self.max_iter, stop_tol=self.stop_tol,
                                  record_every=self.record_every)
        return inst, cfg

    def units(self):
        return self.cases

    def run_unit(self, case, probe):
        t0 = time.perf_counter()
        inst, cfg = self._setup(case)
        t1 = time.perf_counter()
        x, trace = solver.run(inst, cfg)
        t2 = time.perf_counter()
        self.gammas[case] = inst.default_gamma
        rep = _replica(t1 - t0, t2 - t1, trace.iterations, trace.status,
                       x.concatenated(), self.refs[case[0]], self.ref_tol)
        probe.flush()
        return Round(t2 - t0, [rep])

    def floor(self):
        from .floor import fb_lasso_iterations

        noise, inertia = self.noise, self.inertia
        seconds, iterations = 0.0, 0
        for case in self.cases:
            if case not in self.gammas:
                self.gammas[case] = self._setup(case)[0].default_gamma
            demo = self.demos[case[0]]
            t0 = time.perf_counter()
            iterations += fb_lasso_iterations(
                demo.data["a"], demo.data["b"], 0.1, self.gammas[case], case[1],
                sigma0=noise.sigma0, theta=noise.theta,
                alpha0=inertia.alpha0, q=inertia.q, stop_tol=self.stop_tol,
                max_iter=self.max_iter, record_every=self.record_every)
            seconds += time.perf_counter() - t0
        return seconds, iterations


class FbSmallStoch(LibraryLasso):
    """Lasso 20x30, poly noise and inertia, residual every iteration.

    Per-iteration Python overhead is nearly all of the time. 60 replicas, not
    20, because iterations to tolerance vary by about 30% between replicas;
    the first 20 seeds are those of acceptance criterion 6.
    """

    name = "fb-small-stoch"
    default_seed = 2024
    stoch = True
    replicas = 60
    stop_tol = 1e-4
    max_iter = 50000
    ref_tol = 1e-2   # stop_tol times cond(A'A)


class FbLarge(LibraryLasso):
    """Lasso 1000x1500, noise-free, six data seeds.

    Set-up (power-iteration norm estimate, dense eigh) and 12 MB dense
    matvecs dominate; per-object overhead does not. Six problems, not one
    2000x3000, because the power iteration's length varies by about a fifth
    between data seeds.
    """

    name = "fb-large"
    default_seed = 42
    shape = (1000, 1500)
    data_seeds = 6
    ref_tol = 1e-6
    # Its time is spent in BLAS, which the host's slow phases barely slow, so
    # scaling by the pure-Python calibration slice would add noise, not remove it.
    calibrated = False


class SweepCli(Workload):
    """`sifb sweep` on the acceptance-criterion-6 config, default --jobs.

    The fb-small-stoch problem with the residual every 25th iteration, plus
    config fan-out, per-worker rebuild, the process pool and CSV writes.
    60 seeds from the master seed, not 20, for the same reason as
    fb-small-stoch: one sweep of 60 fills a run, and the sum of its
    iteration counts varies less between master seeds than that of 20.
    """

    name = "sweep-cli"
    default_seed = 2024
    replicas = 60
    record_every = 25
    ref_tol = 1e-2

    def prepare(self):
        self.cfg = {
            "problem": {"demo": {"name": "lasso", "params": SMALL_LASSO}},
            "algorithm": "sifb",
            "solver": {"max_iter": 50000, "stop_tol": 1e-4,
                       "record_every": self.record_every},
            **STOCH,
            "seeds": {"count": self.replicas, "master_seed": self.seed},
            "reference": False,
        }
        self.cfg_path = os.path.join(self.workdir, "sweep.json")
        with open(self.cfg_path, "w", encoding="utf-8") as f:
            json.dump(self.cfg, f)
        self.ref = _reference(problems.build_lasso(**SMALL_LASSO))
        self.hook_dir = os.path.join(self.workdir, "hooks")
        self.out_dir = os.path.join(self.workdir, "sweep_out")
        self._bytes = 0
        self.workers = []

    def attach(self, probe):
        probe.hook_sweep(self.hook_dir)

    def units(self):
        return [None]

    def run_unit(self, _key, probe):
        for d in (self.hook_dir, self.out_dir):
            shutil.rmtree(d, ignore_errors=True)
        os.makedirs(self.hook_dir)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", self.cfg_path, "--out", self.out_dir])
        total = time.perf_counter() - t0
        rows = {}
        with contextlib.suppress(OSError):
            with open(os.path.join(self.out_dir, "sweep_summary.csv"),
                      encoding="utf-8") as f:
                rows = {int(r["index"]): r for r in csv.DictReader(f)}
        self.workers = []
        out = []
        for path in sorted(glob.glob(os.path.join(self.hook_dir, "worker_*.json"))):
            with open(path, encoding="utf-8") as f:
                rec = json.load(f)
            self.workers.append(rec)
            if len(rec["runs"]) != 1:
                continue
            run = rec["runs"][0]
            row = rows.get(rec["index"], {})
            agree = (row.get("status") == run["status"]
                     and int(row.get("iterations", -1)) == run["iterations"])
            out.append(_replica(run["start"] - rec["entry"], run["end"] - run["start"],
                                run["iterations"], run["status"], run["x"], self.ref,
                                self.ref_tol, exit_ok=rc == 0 and agree))
        missing = self.replicas - len(out)
        out += [Replica(0.0, 0.0, 0, "missing", float("nan"), False)] * missing
        self._bytes = sum(os.path.getsize(p) for p in
                          glob.glob(os.path.join(self.out_dir, "trace_*.csv")))
        return Round(total, out, [rec["slice_s"] for rec in self.workers])

    def floor(self):
        lib = FbSmallStoch(self.seed, self.workdir)
        lib.replicas, lib.record_every = self.replicas, self.record_every
        lib.prepare()
        return lib.floor()

    def trace_bytes(self):
        return self._bytes


class PdSplitCli(Workload):
    """`sifb run` on lasso 200x300 split form: 10 data seeds x class I and II.

    Class-I/II backward sweeps over two dense coupling blocks (A and a dense
    identity), and three `compute_constants` calls per run. Ten data seeds, not fewer, because iterations to tolerance vary by about
    a fifth from one data seed to the next at this size.
    """

    name = "pd-split-cli"
    default_seed = 42
    shape = (200, 300)
    data_seeds = 10
    ref_tol = 1e-6

    def prepare(self):
        n, p = self.shape
        self.jobs = []
        self.refs = {}
        for k in range(self.data_seeds):
            params = {"n": n, "p": p, "lam": 0.1, "cond": 100.0, "seed": self.seed + k}
            self.refs[k] = _reference(problems.build_lasso(**params))
            for alg in ("pd_class1", "pd_class2"):
                cfg = {"problem": {"demo": {"name": "lasso", "params": params,
                                            "form": "split"}},
                       "algorithm": alg,
                       "solver": {"stop_tol": 1e-8, "record_every": 1,
                                  "max_iter": 100000},
                       "noise": {"mode": "zero"},
                       "seeds": [0]}
                path = os.path.join(self.workdir, f"pd_{k}_{alg}.json")
                with open(path, "w", encoding="utf-8") as f:
                    json.dump(cfg, f)
                self.jobs.append((path, k))
        self._bytes = {}

    def units(self):
        return list(range(len(self.jobs)))

    def run_unit(self, i, probe):
        path, k = self.jobs[i]
        out_dir = os.path.join(self.workdir, f"run_{i}")
        shutil.rmtree(out_dir, ignore_errors=True)
        first = len(probe.runs)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", path, "--out", out_dir])
        total = time.perf_counter() - t0
        probe.flush()
        runs = probe.runs[first:]
        try:
            with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as f:
                summary = json.load(f)
            self._bytes[i] = os.path.getsize(os.path.join(out_dir, "trace.csv"))
        except OSError:
            runs = []
        if len(runs) != 1:
            return Round(total, [Replica(0.0, 0.0, 0, "missing", float("nan"), False)])
        run = runs[0]
        agree = (summary["status"] == run["status"]
                 and summary["iterations"] == run["iterations"])
        return Round(total, [_replica(run["start"] - t0, run["end"] - run["start"],
                                      run["iterations"], run["status"], run["x"],
                                      self.refs[k], self.ref_tol,
                                      exit_ok=rc == 0 and agree)])

    def trace_bytes(self):
        return sum(self._bytes.values())


WORKLOADS = {w.name: w for w in (FbSmallStoch, SweepCli, PdSplitCli, FbLarge)}


def make_workdir(root):
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)
