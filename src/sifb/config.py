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
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DimensionMismatch, bind_config, bind_kind, check_type,
                     config_entry)
from .operators import CocoerciveMap, MonotoneBlock, ProxFunction
from .primal_dual import PrimalDualProblem, assemble_class1, assemble_class2
from .problems import (DemoProblem, ForwardBackwardProblem, build_demo, certified_reference,
                       pd_problem, sifb_instance)
from .solver import SolverConfig
from .spaces import BlockLinearOperator, BlockVector, Preconditioner
from .stochastic import InertiaSchedule, NoiseSchedule, derive_seeds

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


def _matrix_file(file: str, *, base_dir):
    path = os.path.join(base_dir, file)
    if not os.path.exists(path):
        raise ConfigurationError(f"matrix file does not exist: {path}")
    try:
        return np.atleast_1d(np.loadtxt(path, dtype=np.float64))
    except ValueError as e:
        raise ConfigurationError(f"matrix file {path}: {e}") from None


def _finite(matrix, spec, where):
    """matrix, read from the config value spec at `where`, refused with the
    entry and its source (inline or the file) named if an entry is not finite."""
    if not np.isfinite(matrix).all():
        source = spec["file"] if isinstance(spec, dict) else "inline"
        raise ConfigurationError(f"{where} ({source}) has non-finite entries")
    return matrix


def load_matrix(spec, base_dir, where, finite=True):
    """The matrix at config path `where`: inline (a number or nested lists of
    numbers) or a {"file": path} reference to plain text, relative to base_dir.
    With `finite`, a non-finite entry is refused (`_finite`)."""
    if isinstance(spec, dict):
        matrix = bind_config(_matrix_file, spec, where, base_dir=base_dir)
    else:
        check_type(spec, "np.ndarray", where)
        matrix = np.asarray(spec, dtype=np.float64)
    return _finite(matrix, spec, where) if finite else matrix


# readers that `bind_config` binds to config objects: each signature is the
# schema of the object it reads


def _scalar_metric(values: list[float], *, dims):
    return Preconditioner.scalar(values, dims)


def _diagonal_metric(weights: list[np.ndarray], *, dims):
    metric = Preconditioner.diagonal(weights)
    if metric.dims != dims:
        raise DimensionMismatch(f"weight lengths {metric.dims} != block dims {dims}")
    return metric


_METRICS = {"identity": lambda *, dims: Preconditioner.identity(dims),
            "scalar": _scalar_metric, "diagonal": _diagonal_metric}


def _metric(spec, dims, where):
    """The metric at `where`; none, or one without a kind, is the identity."""
    return bind_kind(_METRICS, {} if spec is None else spec, where, default="identity",
                     dims=dims)


def _lstsq_map(a, b, *, dims, metric, base_dir, path):
    a = load_matrix(a, base_dir, f"{path}.a")
    b = load_matrix(b, base_dir, f"{path}.b").reshape(-1)
    if a.ndim == 2 and (a.shape[1],) != dims:
        raise DimensionMismatch(f"A has {a.shape[1]} columns, block dims {dims}")
    return CocoerciveMap.least_squares_gradient(a, b, metric=metric)


def _linear_map(q, offset=None, *, dims, metric, base_dir, path):
    if offset is not None:
        offset = load_matrix(offset, base_dir, f"{path}.offset").reshape(-1)
    return CocoerciveMap.linear(load_matrix(q, base_dir, f"{path}.q"), offset, dims=dims,
                                metric=metric)


def _scaled_identity_map(mu: float, *, dims, metric, **_):
    return CocoerciveMap.scaled_identity(dims, mu, metric=metric)


_MAPS = {"zero": lambda *, dims, **_: CocoerciveMap.zero_map(dims), "lstsq": _lstsq_map,
         "linear": _linear_map, "scaled_identity": _scaled_identity_map}


def _map(spec, where, dims, metric, base_dir):
    return bind_kind(_MAPS, spec, where, dims=dims, metric=metric, base_dir=base_dir,
                     path=where)


def _block(dim: int, operator: dict | None = None, *, path):
    """A block of `custom`: its dim and the rule of its operator, the
    subdifferential of a catalogue function (none: zero)."""
    if dim < 1:
        raise DimensionMismatch(f"dim must be at least 1, got {dim}")
    fn = None if operator is None else ProxFunction.from_config(operator, f"{path}.operator")
    zero = fn is None or fn.family == "zero"
    return dim, MonotoneBlock.rule_zero() if zero else MonotoneBlock.rule_subdiff(fn)


def _primal_block(dim: int, operator: dict | None = None, z: np.ndarray | None = None, *,
                  path):
    """A primal block of `custom_pd`: a `custom` block and its offset z (none: 0)."""
    dim, rule = _block(dim, operator, path=path)
    if z is not None:
        z = _finite(np.asarray(z, np.float64), z, f"{path}.z")
    return dim, rule, np.zeros(dim) if z is None else z


def _dual_block(dim: int, g: dict | None = None, r: np.ndarray | None = None,
                dinv_mu: float | None = None, *, path):
    """A dual block of `custom_pd`: its dim, the rule of g's conjugate (no g:
    zero), its offset r (none: 0) and D^-1 = dinv_mu I (none: no D^-1)."""
    dim, rule = _block(dim, path=path)
    if g is not None:
        rule = MonotoneBlock.rule_conjugate_subdiff(ProxFunction.from_config(g, f"{path}.g"))
    if r is not None:
        r = _finite(np.asarray(r, np.float64), r, f"{path}.r")
    return dim, rule, np.zeros(dim) if r is None else r, dinv_mu


def _blocks(specs, where, reader, fields, empty=False):
    """The `fields` columns (dims, rules, ...) of the block list at `where`,
    which must give a block unless `empty`."""
    if not specs and not empty:
        raise ConfigurationError(f"{where} must give at least one block, got []")
    blocks = [bind_config(reader, spec, f"{where}[{i}]", path=f"{where}[{i}]")
              for i, spec in enumerate(specs)]
    return [tuple(b[k] for b in blocks) for k in range(fields)]


def _flat_problem(blocks: list, map: dict, preconditioner: dict | None = None,
                  beta: float | None = None, x0=None, *, base_dir):
    """`problem.custom`: a single-inclusion problem for the sifb route, with
    the constant `beta` the config gives or None to take the map's own."""
    dims, rules = _blocks(blocks, "problem.custom.blocks", _block, 2)
    metric = _metric(preconditioner, dims, "problem.custom.preconditioner")
    operator = MonotoneBlock(rules)
    operator.check_dims(dims, "blocks")
    b_map = _map(map, "problem.custom.map", dims, metric, base_dir)
    start = BlockVector.zeros(dims)
    if x0 is not None:
        flat = load_matrix(x0, base_dir, "problem.custom.x0").reshape(-1)
        with config_entry("problem.custom.x0"):
            start = BlockVector.from_flat(flat, dims)
    return ForwardBackwardProblem(operator, b_map, metric, start, beta)


def _custom_pd(primal: list, dual: list = (), V: dict | None = None, W: dict | None = None,
               coupling: list[list] | None = None, smooth: dict | None = None,
               nu0: float | None = None, mu0: float | None = None, *, base_dir):
    """`problem.custom_pd`: a structured problem for the primal-dual routes, and
    whether the config gives its constants."""
    where = "problem.custom_pd"
    pdims, primal_rules, z = _blocks(primal, f"{where}.primal", _primal_block, 3)
    ddims, dual_rules, r, mus = _blocks(dual, f"{where}.dual", _dual_block, 4, empty=True)
    v, w = _metric(V, pdims, f"{where}.V"), _metric(W, ddims, f"{where}.W")
    if coupling is None:
        coupling = BlockLinearOperator.zero(pdims, ddims)
    else:
        with config_entry(f"{where}.coupling"):
            coupling = BlockLinearOperator(
                # a non-finite cell fails the coupling norm: a run failure
                [[None if cell is None else
                  load_matrix(cell, base_dir, f"{where}.coupling[{k}][{i}]", finite=False)
                  for i, cell in enumerate(row)] for k, row in enumerate(coupling)],
                pdims, ddims,
            )
    if smooth is not None:
        smooth = _map(smooth, f"{where}.smooth", pdims, v, base_dir)
    if len(set(mus)) > 1:
        raise ConfigurationError("per-block dinv_mu values must currently agree across "
                                 "dual blocks")
    dual_smooth = (None if not mus or mus[0] is None
                   else CocoerciveMap.scaled_identity(ddims, float(mus[0]), metric=w))
    prob = PrimalDualProblem(
        primal_ops=MonotoneBlock(primal_rules), z=BlockVector(z), V=v,
        dual_inverse=MonotoneBlock(dual_rules), r=BlockVector(r), W=w,
        coupling=coupling, smooth=smooth, dual_smooth=dual_smooth, nu0=nu0, mu0=mu0,
    )
    return prob, nu0 is not None or mu0 is not None


@dataclass
class Experiment:
    """A fully resolved experiment: problem, route, schedules, solver knobs.

    Each seed's instance is made from the route's problem: `fb` on the sifb
    route, `pd` on the primal-dual routes (the other is None). `demo` is the
    demo the problem comes from, the reference's source, or None for a custom
    problem. `run_seed`, the seed of `sifb run` without `--seed`, is
    `resolved_seed` or else seeds[0].
    """

    raw: dict
    base_dir: str
    algorithm: str
    noise: NoiseSchedule
    inertia: InertiaSchedule
    solver_spec: dict
    seeds: list
    run_seed: int
    want_reference: bool
    demo: DemoProblem = None
    fb: ForwardBackwardProblem = None
    pd: PrimalDualProblem = None
    constants_given: bool = False

    def make_instance(self, seed):
        if self.pd is None:
            return sifb_instance(self.fb, noise=self.noise, seed=seed)
        assemble = assemble_class1 if self.algorithm == "pd_class1" else assemble_class2
        return assemble(self.pd, noise=self.noise, seed=seed)

    def solver_config(self, beta):
        return SolverConfig(beta=beta, inertia=self.inertia, **self.solver_spec)

    def reference(self):
        """Oracle solution for demo problems (primal blocks) and its
        certificate; (None, None) when there is none."""
        if not self.want_reference or self.demo is None:
            return None, None
        return certified_reference(self.demo, tol=1e-10)


def _seed(value, rule):
    """value, refused with `rule` unless it is a non-negative integer (a bool or
    a float is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigurationError(f"{rule}, got {json.dumps(value, default=repr)}")
    return value


def _derived_seeds(master_seed: int = 0, count: int = 1):
    return derive_seeds(_seed(master_seed, "master_seed must be a non-negative integer"),
                        _seed(count, "seeds count must be a non-negative integer"))


def _solver(epsilon: float = 1e-3, gamma: float | None = None, relaxation: float = 1.0,
            max_iter: int = 100000, stop_tol: float = None, record_every: int = 1, *,
            noise):
    """The `solver` section as SolverConfig arguments; a null gamma is the default
    step, and the stop tolerance defaults to 1e-8 without noise, 1e-4 with it."""
    if stop_tol is None:
        stop_tol = 1e-8 if noise.mode == "zero" else 1e-4
    return dict(epsilon=epsilon, gamma=gamma, relaxation=relaxation, max_iter=max_iter,
                stop_tol=float(stop_tol), record_every=record_every)


def _demo(name: str, params: dict | None = None, form: str | None = None, *, algorithm):
    demo = build_demo(name, {} if params is None else params, "problem.demo.params")
    form = demo.check_form(form)
    if algorithm == "sifb":
        return dict(demo=demo, fb=demo.forward_backward())
    return dict(demo=demo, pd=pd_problem(demo, form))


def _problem(demo: dict | None = None, custom: dict | None = None,
             custom_pd: dict | None = None, *, algorithm, base_dir):
    """The `problem` section as the Experiment fields it sets."""
    named = [repr(k) for k, v in (("demo", demo), ("custom", custom), ("custom_pd", custom_pd))
             if v is not None]
    if len(named) != 1:
        raise ConfigurationError("problem needs exactly one of 'demo', 'custom', 'custom_pd'"
                                 + (f", got {' and '.join(named)}" if named else ""))
    if demo is not None:
        return bind_config(_demo, demo, "problem.demo", algorithm=algorithm)
    if custom is not None:
        if algorithm != "sifb":
            raise ConfigurationError(
                "flat custom problems run on the sifb route; use custom_pd "
                "for the primal-dual routes"
            )
        flat = bind_config(_flat_problem, custom, "problem.custom", base_dir=base_dir)
        return dict(fb=flat, constants_given=flat.beta is not None)
    if algorithm == "sifb":
        raise ConfigurationError("custom_pd problems run on the primal-dual routes")
    pd, given = bind_config(_custom_pd, custom_pd, "problem.custom_pd", base_dir=base_dir)
    return dict(pd=pd, constants_given=given)


def _experiment(problem: dict, algorithm: str = "sifb", solver: dict | None = None,
                noise: dict | None = None, inertia: dict | None = None,
                seeds: list | dict = (0,), reference: bool = True,
                resolved_seed: int | None = None, *, raw, base_dir):
    """The config document `raw`; `sifb run` writes `resolved_seed` into its snapshot."""
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    noise = NoiseSchedule.from_config(noise, "noise")
    inertia = InertiaSchedule.from_config(inertia, "inertia")
    seed_list = (bind_config(_derived_seeds, seeds, "seeds") if isinstance(seeds, dict) else
                 [_seed(s, "seeds must be non-negative integers") for s in seeds])
    if not seed_list:
        raise ConfigurationError(f"seeds must give at least one seed, got {seeds!r}")
    if resolved_seed is not None:
        _seed(resolved_seed, "resolved_seed must be a non-negative integer")
    return Experiment(
        raw=raw, base_dir=base_dir, algorithm=algorithm, noise=noise, inertia=inertia,
        solver_spec=bind_config(_solver, {} if solver is None else solver, "solver",
                                noise=noise),
        seeds=seed_list, run_seed=seed_list[0] if resolved_seed is None else resolved_seed,
        want_reference=reference,
        **bind_config(_problem, problem, "problem", algorithm=algorithm, base_dir=base_dir))


def build_experiment(cfg, base_dir="."):
    """The Experiment of the config document cfg; matrix files are relative to base_dir."""
    return bind_config(_experiment, cfg, "", raw=cfg, base_dir=base_dir)
