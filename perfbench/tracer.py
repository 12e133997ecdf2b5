"""Instrumentation the benchmark attaches to `sifb` from the outside.

A `Probe` patches functions of the installed `sifb` modules; nothing under
`src/` changes. It always keeps a run log (start, end, iterate and trace of
every `solver.run` call), which is how the benchmark times the set-up and
solve phases of CLI runs and checks their iterates. With `trace=True` it also
wraps the public functions of every module listed in `LAYERS` and records one
span per call: name, start, end and the enclosing span. Spans live in flat
in-memory arrays until `flush`, which folds them into per-layer totals:

* calls: number of spans;
* total_ns: summed duration of the outermost span of each nest (a layer that
  re-enters itself is not counted twice);
* self_ns: duration minus the time covered by child spans;
* bytes, flops: computed from array sizes for the dense kernels (labelled as
  computed, since cache reuse is invisible from here);
* edges: (child layer, parent layer) call counts.

A name imported into another module is a separate binding, so every binding
of a patched function in every loaded `sifb` module is replaced, e.g.
`sifb.cli.run`, `sifb.cli.compute_constants` and `estimate_weighted_norm` in
`operators` and `primal_dual`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import weakref
from array import array

import numpy as np

from perfbench.speed import slice_s

# (layer, module, attribute path, cost model). A class attribute is written
# "Class.method"; several entries may share one layer name.
LAYERS = [
    ("spaces.BlockVector", "sifb.spaces", "BlockVector.__add__", None),
    ("spaces.BlockVector", "sifb.spaces", "BlockVector.__sub__", None),
    ("spaces.BlockVector", "sifb.spaces", "BlockVector.__rmul__", None),
    ("spaces.BlockVector", "sifb.spaces", "BlockVector.__neg__", None),
    ("spaces.BlockVector", "sifb.spaces", "BlockVector.axpy", None),
    ("spaces.BlockVector", "sifb.spaces", "BlockVector.dot", None),
    ("spaces.BlockVector", "sifb.spaces", "BlockVector.norm", None),
    ("spaces.block_split_concat", "sifb.spaces", "block_split", None),
    ("spaces.block_split_concat", "sifb.spaces", "block_concat", None),
    ("spaces.Preconditioner", "sifb.spaces", "Preconditioner.apply", None),
    ("spaces.Preconditioner", "sifb.spaces", "Preconditioner.apply_inverse", None),
    ("spaces.Preconditioner", "sifb.spaces", "Preconditioner.apply_sqrt", None),
    ("spaces.BlockLinearOperator", "sifb.spaces", "BlockLinearOperator.apply",
     "block_matvec"),
    ("spaces.BlockLinearOperator", "sifb.spaces",
     "BlockLinearOperator.adjoint_apply", "block_matvec"),
    ("spaces.estimate_weighted_norm", "sifb.spaces", "estimate_weighted_norm", None),
    ("operators.CocoerciveMap.build", "sifb.operators",
     "CocoerciveMap.least_squares_gradient", "register_lstsq"),
    ("operators.CocoerciveMap.build", "sifb.operators", "CocoerciveMap.linear",
     "register_linear"),
    ("operators.CocoerciveMap.build", "sifb.operators",
     "CocoerciveMap.scaled_identity", None),
    ("operators.CocoerciveMap.build", "sifb.operators", "CocoerciveMap.paired", None),
    ("operators.CocoerciveMap.build", "sifb.operators", "CocoerciveMap.zero_map", None),
    ("operators.CocoerciveMap.build", "sifb.operators",
     "CocoerciveMap.from_callable", None),
    ("operators.CocoerciveMap.apply", "sifb.operators", "CocoerciveMap.apply",
     "map_apply"),
    ("operators.resolvent", "sifb.operators", "MonotoneBlock.resolvent", None),
    ("stochastic.sample", "sifb.stochastic", "StochasticOracle.sample", None),
    ("solver.run", "sifb.solver", "run", None),
    ("solver.step", "sifb.solver", "step", None),
    ("solver.backward", "sifb.solver", "ProblemInstance.backward", None),
    ("solver.fp_residual", "sifb.solver", "fp_residual", None),
    ("primal_dual.compute_constants", "sifb.primal_dual", "compute_constants", None),
    ("primal_dual.assemble", "sifb.primal_dual", "assemble_class1", None),
    ("primal_dual.assemble", "sifb.primal_dual", "assemble_class2", None),
    ("problems.instance", "sifb.problems", "sifb_instance", None),
    ("problems.instance", "sifb.problems", "pd_problem", None),
    ("problems.reference_oracle", "sifb.problems", "reference_oracle", None),
    ("oracles", "sifb.oracles", "ista_lasso", None),
    ("oracles", "sifb.oracles", "projected_gradient_box", None),
    ("oracles", "sifb.oracles", "smoothed_lasso_ista", None),
    ("oracles", "sifb.oracles", "least_squares", None),
    ("config.build_experiment", "sifb.config", "build_experiment", None),
    ("config.make_instance", "sifb.config", "Experiment.make_instance", None),
    ("cli.validate", "sifb.cli", "cmd_validate", None),
    ("cli.trace_write", "sifb.solver", "RunTrace.to_csv", None),
]

_F8 = 8  # bytes per float64


class _Kernels:
    """Computed bytes and flops of the dense kernels, from array sizes."""

    def __init__(self):
        # per CocoerciveMap: (bytes, flops) of one apply
        self.maps = weakref.WeakKeyDictionary()

    def block_matvec(self, args, out):
        op = args[0]
        cells = [c for row in op.entries for c in row if c is not None]
        nbytes = sum(c.nbytes for c in cells) + _F8 * (sum(op.dims_in) + sum(op.dims_out))
        return nbytes, sum(2 * c.size for c in cells)

    def register_lstsq(self, args, out):
        # apply = A^T (A x - b): A is read twice, each matvec reads its input
        # vector and writes its output
        n, p = np.shape(args[1])
        self.maps[out] = (2 * _F8 * n * p + 2 * _F8 * (n + p), 4 * n * p)
        return 0, 0

    def register_linear(self, args, out):
        n = np.shape(args[1])[0]
        self.maps[out] = (_F8 * n * n + 2 * _F8 * n, 2 * n * n)
        return 0, 0

    def map_apply(self, args, out):
        return self.maps.get(args[0], (0, 0))


class Tracer:
    """Span recorder: flat arrays, one entry per call of a wrapped function."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._depth = []
        self._stack = [-1]
        self._name = array("q")
        self._parent = array("q")
        self._outer = array("q")
        self._t0 = array("q")
        self._t1 = array("q")
        self._bytes = array("q")
        self._flops = array("q")
        self.totals = {}
        self.edges = {}

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, name, fn, cost=None):
        nid = self._intern(name)
        name_a, parent_a, outer_a = self._name, self._parent, self._outer
        t0_a, t1_a, bytes_a, flops_a = self._t0, self._t1, self._bytes, self._flops
        stack, depth, clock = self._stack, self._depth, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(t0_a)
            d = depth[nid]
            depth[nid] = d + 1
            name_a.append(nid)
            parent_a.append(stack[-1])
            outer_a.append(d == 0)
            t1_a.append(0)
            bytes_a.append(0)
            flops_a.append(0)
            stack.append(i)
            t0_a.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1_a[i] = clock()
                stack.pop()
                depth[nid] = d
            if cost is not None:
                bytes_a[i], flops_a[i] = cost(args, out)
            return out

        return functools.update_wrapper(traced, fn)

    def flush(self):
        """Fold the recorded spans into `totals` and `edges`; clear the spans.

        Call only with no span open, i.e. from outside every wrapped call.
        """
        n = len(self._t0)
        if n == 0:
            return
        if len(self._stack) != 1:
            raise RuntimeError("flush with an open span")
        name = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        outer = np.array(self._outer, dtype=np.int64)
        dur = np.array(self._t1, dtype=np.int64) - np.array(self._t0, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.names)
        fields = {
            "calls": np.bincount(name, minlength=k),
            "total_ns": np.bincount(name, weights=dur * outer, minlength=k),
            "self_ns": np.bincount(name, weights=dur - child, minlength=k),
            "bytes": np.bincount(name, weights=np.array(self._bytes, dtype=np.int64),
                                 minlength=k),
            "flops": np.bincount(name, weights=np.array(self._flops, dtype=np.int64),
                                 minlength=k),
        }
        for j in np.flatnonzero(fields["calls"]):
            agg = self.totals.setdefault(self.names[j], dict.fromkeys(fields, 0))
            for key, col in fields.items():
                agg[key] += int(col[j])
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        pairs, counts = np.unique(np.stack([name, parent_name]), axis=1,
                                  return_counts=True)
        for (c, p), cnt in zip(pairs.T, counts):
            key = (self.names[c], self.names[p] if p >= 0 else "")
            self.edges[key] = self.edges.get(key, 0) + int(cnt)
        self._clear_spans()

    def _clear_spans(self):
        for a in (self._name, self._parent, self._outer, self._t0, self._t1,
                  self._bytes, self._flops):
            del a[:]

    def reset(self):
        self._clear_spans()
        del self._stack[1:]
        self._depth[:] = [0] * len(self._depth)
        self.totals, self.edges = {}, {}

    def take(self):
        """Flush, return (totals, edges) and start from empty totals."""
        self.flush()
        out = (self.totals, self.edges)
        self.totals, self.edges = {}, {}
        return out


def merge_layers(into, totals, edges):
    """Add one (totals, edges) pair into an accumulator of the same shape."""
    acc_totals, acc_edges = into
    for name, agg in totals.items():
        slot = acc_totals.setdefault(name, dict.fromkeys(agg, 0))
        for key, value in agg.items():
            slot[key] += value
    for key, value in edges.items():
        acc_edges[key] = acc_edges.get(key, 0) + value


def _sifb_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sifb" or name.startswith("sifb."))]


class Probe:
    """Run log plus, with `trace=True`, the layer tracer; see the module doc."""

    active = None  # the installed probe; forked sweep workers inherit it

    def __init__(self, trace):
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.kernels = _Kernels()
        self.runs = []
        self.pid = None
        self._undo = []

    # -- patching --------------------------------------------------------
    def _rebind(self, original, replacement):
        """Replace every module-level binding of `original` in sifb."""
        for module in _sifb_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _patch_class(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def install(self):
        if Probe.active is not None:
            raise RuntimeError("a probe is already installed")
        if self.trace:
            for layer, modname, path, cost in LAYERS:
                module = importlib.import_module(modname)
                cost_fn = getattr(self.kernels, cost) if cost else None
                head, _, attr = path.rpartition(".")
                wrap = (lambda fn, layer=layer, cost_fn=cost_fn:
                        self.tracer.wrap(layer, fn, cost_fn))
                if head:
                    self._patch_class(getattr(module, head), attr, wrap)
                else:
                    original = getattr(module, attr)
                    self._rebind(original, wrap(original))
        solver = importlib.import_module("sifb.solver")
        current = solver.run
        self._rebind(current, self._logged_run(current))
        Probe.active = self
        self.pid = os.getpid()
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
        Probe.active = None

    def original(self, module, attr):
        """The unpatched value of a module attribute."""
        for owner, name, value in self._undo:
            if owner is module and name == attr:
                return value
        return getattr(module, attr)

    def _logged_run(self, run_fn):
        runs, clock = self.runs, time.perf_counter

        def logged_run(prob, cfg, reference=None):
            start = clock()
            x, trace = run_fn(prob, cfg, reference=reference)
            runs.append({"start": start, "end": clock(), "x": x.concatenated(),
                         "iterations": trace.iterations, "status": trace.status})
            return x, trace

        return logged_run

    def hook_sweep(self, hook_dir):
        """Route `sifb sweep` replicas through `sweep_worker_entry`."""
        sifb_cli = importlib.import_module("sifb.cli")
        self._undo.append((sifb_cli, "_sweep_worker", sifb_cli._sweep_worker))
        sifb_cli._sweep_worker = functools.partial(
            sweep_worker_entry, hook_dir, self.trace, os.getpid())

    def reset(self):
        """Forget everything recorded (a forked child holds the parent's)."""
        self.runs.clear()
        if self.trace:
            self.tracer.reset()
        self.pid = os.getpid()

    def flush(self):
        """Fold recorded spans into totals; call between replicas to bound memory."""
        if self.trace:
            self.tracer.flush()

    def layers(self):
        """Per-layer (totals, edges) recorded since the last call; resets."""
        return self.tracer.take() if self.trace else ({}, {})


def sweep_worker_entry(hook_dir, trace, parent_pid, payload):
    """Stands in for `sifb.cli._sweep_worker` during a benchmarked sweep.

    Runs the real worker and writes what the probe saw (phase times, the
    iterate, and in a child process the layer totals) to `hook_dir`, since
    the sweep itself keeps none of it. It also times one calibration slice
    (`speed.slice_s`) before the replica: the parent idles while the sweep
    runs, so the speed factor of a sweep is measured in its workers. Works
    in the parent (serial sweep), in a forked child (inherits the installed
    probe) and in a spawned child (installs a fresh one).
    """
    calibration = slice_s()
    entry = time.perf_counter()
    probe = Probe.active
    if probe is None:
        probe = Probe(trace).install()
    elif probe.pid != os.getpid():
        probe.reset()
    first = len(probe.runs)
    sifb_cli = importlib.import_module("sifb.cli")
    summary = probe.original(sifb_cli, "_sweep_worker")(payload)
    record = {
        "index": summary["index"],
        "pid": os.getpid(),
        "entry": entry,
        "exit": time.perf_counter(),
        "slice_s": calibration,
        "runs": [dict(r, x=r["x"].tolist()) for r in probe.runs[first:]],
    }
    if os.getpid() != parent_pid:
        totals, edges = probe.layers()
        record["layers"] = {"totals": totals,
                            "edges": [[c, p, n] for (c, p), n in edges.items()]}
    path = os.path.join(hook_dir, f"worker_{summary['index']:04d}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f)
    return summary
