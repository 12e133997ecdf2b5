"""Experiment configuration: a single JSON document per experiment.

The document names a problem (a built-in demo with parameters, or a custom
problem spelled out blockwise with matrices inline or in plain-text files),
an algorithm route, solver settings, and the noise / inertia schedules.
Everything needed to replay a run is in the resolved snapshot the runner
writes next to its outputs.
"""

from __future__ import annotations

import json
import numbers
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionMismatch, check_keys, config_key, config_number
from .operators import CocoerciveMap, MonotoneBlock, ProxFunction
from .primal_dual import PrimalDualProblem, assemble_class1, assemble_class2
from .problems import (DemoProblem, build_demo, pd_problem, reference_oracle,
                       sifb_instance)
from .solver import ProblemInstance, SolverConfig
from .spaces import BlockLinearOperator, BlockVector, Preconditioner
from .stochastic import InertiaSchedule, NoiseSchedule, StochasticOracle, derive_seeds

ALGORITHMS = ("sifb", "pd_class1", "pd_class2")


def load_config(path):
    """Read a JSON config; parse errors keep their line/column context."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigurationError(
            f"malformed config {path}: {e.msg} at line {e.lineno} column {e.colno}"
        ) from e


def load_matrix(spec, base_dir):
    """A matrix given inline (nested lists) or as {"file": path} plain text."""
    if isinstance(spec, dict):
        if "file" not in spec:
            raise ConfigurationError(f"matrix reference needs a 'file' key, got {spec}")
        path = os.path.join(base_dir, spec["file"])
        if not os.path.exists(path):
            raise ConfigurationError(f"matrix file does not exist: {path}")
        return np.atleast_1d(np.loadtxt(path, dtype=np.float64))
    return np.asarray(spec, dtype=np.float64)


_BLOCK_ENTRY = re.compile(r"\w+\[\d+\]: ")  # a message naming one block: `primal[0]: ...`


@contextmanager
def _at(path):
    """Report a shape mismatch raised while building the config entry at
    `path` as a ConfigurationError that names it; a message that names one of
    its blocks extends the path (`problem.custom_pd.primal[0]: ...`)."""
    try:
        yield
    except DimensionMismatch as e:
        raise ConfigurationError(
            f"{path}{'.' if _BLOCK_ENTRY.match(str(e)) else ': '}{e}") from None


def _load_precond(spec, dims):
    if spec is None or spec.get("kind", "identity") == "identity":
        return Preconditioner.identity(dims)
    kind = spec["kind"]
    if kind == "scalar":
        return Preconditioner.scalar(config_key(spec, "values", "scalar preconditioner"), dims)
    if kind == "diagonal":
        metric = Preconditioner.diagonal([np.asarray(w, dtype=np.float64)
                                          for w in spec["weights"]])
        if metric.dims != dims:
            raise DimensionMismatch(f"weight lengths {metric.dims} != block dims {dims}")
        return metric
    raise ConfigurationError(f"unknown preconditioner kind {kind!r}")


def _load_map(spec, dims, metric, base_dir):
    kind = config_key(spec, "kind", "map")
    if kind == "zero":
        return CocoerciveMap.zero_map(dims)
    if kind == "lstsq":
        a = load_matrix(spec["a"], base_dir)
        b = load_matrix(spec["b"], base_dir).reshape(-1)
        if a.ndim == 2 and (a.shape[1],) != dims:
            raise DimensionMismatch(f"A has {a.shape[1]} columns, block dims {dims}")
        return CocoerciveMap.least_squares_gradient(a, b, metric=metric)
    if kind == "linear":
        q = load_matrix(spec["q"], base_dir)
        offset = (load_matrix(spec["offset"], base_dir).reshape(-1)
                  if "offset" in spec else None)
        return CocoerciveMap.linear(q, offset, dims=dims, metric=metric)
    if kind == "scaled_identity":
        return CocoerciveMap.scaled_identity(dims, spec["mu"], metric=metric)
    raise ConfigurationError(f"unknown map kind {kind!r}")


# the keys of the solver section, all read by `Experiment.solver_config`
_SOLVER_KEYS = ("epsilon", "gamma", "relaxation", "max_iter", "stop_tol", "record_every")


def _solver_spec(spec):
    """The solver section: known keys only, every value a number, except a null
    gamma (the default step)."""
    check_keys(spec, _SOLVER_KEYS, "solver")
    for key, value in spec.items():
        if not (key == "gamma" and value is None):
            config_number(spec, key, "solver")
    return spec


def _block_dims(blocks, where):
    """The `dim` of every block of a block list."""
    return tuple(int(config_key(b, "dim", f"{where}[{i}]")) for i, b in enumerate(blocks))


def _block_operator(spec):
    if spec is None or spec.get("family") == "zero":
        return MonotoneBlock.rule_zero()
    return MonotoneBlock.rule_subdiff(ProxFunction.from_config(spec))


class FlatProblem:
    """Custom single-inclusion problem for the sifb route, parsed once.

    `beta` is the constant the config gives, or None to take the map's own.
    """

    def __init__(self, spec, base_dir):
        blocks = spec["blocks"]
        dims = _block_dims(blocks, "problem.custom.blocks")
        with _at("problem.custom.preconditioner"):
            self.metric = _load_precond(spec.get("preconditioner"), dims)
        self.operator = MonotoneBlock([_block_operator(b.get("operator")) for b in blocks])
        with _at("problem.custom"):
            self.operator.check_dims(dims, "blocks")
        with _at("problem.custom.map"):
            self.map = _load_map(spec["map"], dims, self.metric, base_dir)
        self.beta = None if spec.get("beta") is None else float(spec["beta"])
        self.x0 = BlockVector.zeros(dims)
        if "x0" in spec:
            flat = load_matrix(spec["x0"], base_dir).reshape(-1)
            if not np.isfinite(flat).all():
                where = spec["x0"].get("file") if isinstance(spec["x0"], dict) else "inline"
                raise ConfigurationError(f"x0 ({where}) has non-finite entries")
            with _at("problem.custom.x0"):
                self.x0 = BlockVector.from_flat(flat, dims)

    def sifb_instance(self, noise=None, seed=0, oracle_mode="additive_gaussian",
                      batch0=1):
        oracle = StochasticOracle(self.map, noise=noise, rng_seed=seed,
                                  mode=oracle_mode, batch0=batch0)
        return ProblemInstance.forward_backward(self.operator, oracle, self.metric,
                                                self.x0, beta=self.beta)


def _build_custom_pd(spec, base_dir):
    """Custom structured problem for the primal-dual routes."""
    primal = spec["primal"]
    dual = spec.get("dual", [])
    pdims = _block_dims(primal, "problem.custom_pd.primal")
    ddims = _block_dims(dual, "problem.custom_pd.dual")
    with _at("problem.custom_pd.V"):
        v = _load_precond(spec.get("V"), pdims)
    with _at("problem.custom_pd.W"):
        w = _load_precond(spec.get("W"), ddims)
    z = BlockVector([np.asarray(b.get("z", np.zeros(d)), dtype=np.float64)
                     for b, d in zip(primal, pdims)])
    r = BlockVector([np.asarray(b.get("r", np.zeros(d)), dtype=np.float64)
                     for b, d in zip(dual, ddims)])
    primal_ops = MonotoneBlock([_block_operator(b.get("operator")) for b in primal])
    dual_rules = []
    for b in dual:
        g = b.get("g")
        if g is None:
            dual_rules.append(MonotoneBlock.rule_zero())
        else:
            dual_rules.append(
                MonotoneBlock.rule_conjugate_subdiff(ProxFunction.from_config(g)))
    rows = spec.get("coupling")
    if rows is None:
        coupling = BlockLinearOperator.zero(pdims, ddims)
    else:
        with _at("problem.custom_pd.coupling"):
            coupling = BlockLinearOperator(
                [[None if cell is None else load_matrix(cell, base_dir) for cell in row]
                 for row in rows],
                pdims, ddims,
            )
    smooth = None
    if "smooth" in spec:
        with _at("problem.custom_pd.smooth"):
            smooth = _load_map(spec["smooth"], pdims, v, base_dir)
    mus = [b.get("dinv_mu") for b in dual]
    dual_smooth = None
    if any(mu is not None for mu in mus):
        if len(set(mus)) != 1:
            raise ConfigurationError(
                "per-block dinv_mu values must currently agree across dual blocks"
            )
        dual_smooth = CocoerciveMap.scaled_identity(ddims, float(mus[0]), metric=w)
    with _at("problem.custom_pd"):
        prob = PrimalDualProblem(
            primal_ops=primal_ops, z=z, V=v,
            dual_inverse=MonotoneBlock(dual_rules), r=r, W=w,
            coupling=coupling, smooth=smooth, dual_smooth=dual_smooth,
            nu0=spec.get("nu0"), mu0=spec.get("mu0"),
        )
    given = spec.get("nu0") is not None or spec.get("mu0") is not None
    return prob, given


@dataclass
class Experiment:
    """A fully resolved experiment: problem, route, schedules, solver knobs.

    `problem` is what the config names: a demo, a `FlatProblem` or a custom
    `PrimalDualProblem`. `pd` is the structured problem the primal-dual routes
    assemble (None on sifb), and `pd_form` the demo's checked form.
    """

    raw: dict
    base_dir: str
    algorithm: str
    noise: NoiseSchedule
    inertia: InertiaSchedule
    solver_spec: dict
    seeds: list
    output_dir: str
    problem: object = None
    pd: PrimalDualProblem = None
    pd_form: str = None
    constants_given: bool = False
    want_reference: bool = True
    _reference: object = field(default=None, repr=False)

    def make_instance(self, seed):
        if self.pd is None:
            return sifb_instance(self.problem, noise=self.noise, seed=seed)
        assemble = assemble_class1 if self.algorithm == "pd_class1" else assemble_class2
        return assemble(self.pd, noise=self.noise, seed=seed)

    def solver_config(self, beta):
        spec = dict(self.solver_spec)
        stop_default = 1e-8 if self.noise.mode == "zero" else 1e-4
        return SolverConfig(
            beta=beta,
            epsilon=spec.get("epsilon", 1e-3),
            gamma=spec.get("gamma"),
            relaxation=spec.get("relaxation", 1.0),
            inertia=self.inertia,
            max_iter=int(spec.get("max_iter", 100000)),
            stop_tol=float(spec.get("stop_tol", stop_default)),
            record_every=int(spec.get("record_every", 1)),
        )

    def reference(self):
        """Oracle solution for demo problems (primal blocks), cached."""
        if not self.want_reference or not isinstance(self.problem, DemoProblem):
            return None
        if self._reference is None:
            self._reference = reference_oracle(self.problem, tol=1e-10)
        return self._reference


def _seed(value, rule):
    """value, refused with `rule` unless it is a non-negative integer (a bool or
    a float is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigurationError(f"{rule}, got {json.dumps(value, default=repr)}")
    return value


def build_experiment(cfg, base_dir="."):
    if "problem" not in cfg:
        raise ConfigurationError("config needs a 'problem' section")
    algorithm = cfg.get("algorithm", "sifb")
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    for section in ("noise", "inertia", "solver"):
        if cfg.get(section) is not None and not isinstance(cfg[section], dict):
            raise ConfigurationError(f"config section {section!r} must be an object")
    noise = NoiseSchedule.from_config(cfg.get("noise"))
    inertia = InertiaSchedule.from_config(cfg.get("inertia"))
    seeds_spec = cfg.get("seeds", [0])
    if isinstance(seeds_spec, dict):
        check_keys(seeds_spec, ("master_seed", "count"), "seeds")
        seeds = derive_seeds(
            _seed(seeds_spec.get("master_seed", 0), "master_seed must be a non-negative integer"),
            _seed(seeds_spec.get("count", 1), "seeds count must be a non-negative integer"))
    elif isinstance(seeds_spec, list):
        seeds = [_seed(s, "seeds must be non-negative integers") for s in seeds_spec]
    else:
        raise ConfigurationError(
            "seeds must be a list of non-negative integers or an object with "
            f"'master_seed' and 'count', got {json.dumps(seeds_spec, default=repr)}")
    if not seeds:
        raise ConfigurationError(f"seeds must give at least one seed, got {seeds_spec!r}")
    exp = Experiment(
        raw=cfg,
        base_dir=base_dir,
        algorithm=algorithm,
        noise=noise,
        inertia=inertia,
        solver_spec=_solver_spec(cfg.get("solver") or {}),
        seeds=seeds,
        output_dir=cfg.get("output_dir", "runs"),
        want_reference=bool(cfg.get("reference", True)),
    )
    problem = cfg["problem"]
    if "demo" in problem:
        exp.problem = build_demo(config_key(problem["demo"], "name", "problem.demo"),
                                 problem["demo"].get("params", {}))
        exp.pd_form = exp.problem.check_form(problem["demo"].get("form"))
        if algorithm != "sifb":
            exp.pd = pd_problem(exp.problem, exp.pd_form)
    elif "custom" in problem:
        if algorithm != "sifb":
            raise ConfigurationError(
                "flat custom problems run on the sifb route; use custom_pd "
                "for the primal-dual routes"
            )
        exp.problem = FlatProblem(problem["custom"], base_dir)
        exp.constants_given = exp.problem.beta is not None
    elif "custom_pd" in problem:
        if algorithm == "sifb":
            raise ConfigurationError(
                "custom_pd problems run on the primal-dual routes"
            )
        exp.pd, exp.constants_given = _build_custom_pd(problem["custom_pd"], base_dir)
        exp.problem = exp.pd
    else:
        raise ConfigurationError(
            "problem section needs one of 'demo', 'custom', 'custom_pd'"
        )
    return exp
