"""Check that two source trees write the same run artifacts, byte for byte.

    python tools/trace_identity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a `sifb` package (a checkout's
`src/`). Every config in `configs()` goes through `sifb run`, once with each
tree: one subprocess per tree imports that tree's `sifb` and calls
`sifb.cli.main` in process for each config. Per config the script compares
the exit code, the `[PASS]`/`[FAIL]` rows of the validation that `sifb run`
prints, `trace.csv`, `summary.json` without `wall_time`, the bytes of the
final iterate, on the primal-dual routes the duality residuals of the
final iterate (each block's `float.hex`, or null, and the unchecked blocks),
and on demo configs the demo's objective at the final primal point
(`objective.txt`: the `float.hex` of `problems.objective`).
It also compares the exit code and stdout of `sifb constants` on the config,
which print the full `repr` of c, xi_hat, beta_hat and beta, so c is checked
bit for bit. The subprocess takes the final iterate from
`sifb.cli._execute_single`. It prints every difference and exits 1 if there
is one, 0 otherwise. Under a difference in a file other than a trace or
the final iterate it prints the first three lines that differ, as
`- old` and `+ new` (`line_diff`).

The last bits of a run depend on the BLAS build and its thread count, so the
report opens with the numpy version, the BLAS build and the
`OPENBLAS_NUM_THREADS` and `OMP_NUM_THREADS` values (or `unset`) under which
each tree's subprocess collected, and its closing count names them: a result
holds under that setting.

Traces (`trace.csv`, and a sweep's `trace_*.csv`) are compared by
`compare_traces`. With the same `#schema=` line any byte difference is a
difference, as for every other file. When the schema lines differ, every
column that both headers name is compared byte for byte, and each column
that only one trace has is one difference, listed by name.

The configs: the README's example config; every demo problem on the `sifb`
route and on both primal-dual classes for each of its forms; the lasso demo
with poly noise and poly inertia, with geom noise and geom inertia, with
geom noise on class I, and with no `noise` or `inertia` section, so that
every mode of both schedule sections is read; the lasso demo with a given
step on the `sifb` route, recording every fifth row and every row (where
the forward-backward map alternates between the kernels of the given step
and of the residual's default step), and with a given step and relaxation on
class I; the split lasso on both primal-dual classes recording every third
row, at 80x70, whose coupling has a block of more than 64 rows, and at
200x300, whose set-up a threaded BLAS would split by thread; the
split lasso on class II with poly noise (whose sweeps take L* d from the
L* q the run's sweep kept of its last output), with poly noise and poly
inertia, and relaxed at lambda = 0.9 (whose sweeps miss it); the
lasso demo at 20x30 on the `sifb` route, whose wide data take the map's
constant from the row-space Gram matrix; the `custom` and `custom_pd`
configs of `tests/test_cli.py`; and nine custom problems (a wide `lstsq`
map with a given `beta`, whose audit reads the map's probe direction; a
diagonal metric with relaxation and inertia; a single block in a diagonal
metric, whose forward-backward map is one kernel after the step
w - gamma U r with U's flat diagonal; a primal-dual
problem with box, sq_l2, affine and linf_ball blocks and a scalar coupling
cell; one whose `center`, `lo`, `hi` and `c` are vectors of the block's
length and of length 1; one whose `z` holds -0.0 entries and one of whose
`r` is all zeros, on both classes; a `scaled_identity` map in a diagonal
metric from a nonzero x0; a `zero` map; and a `custom_pd` whose `smooth` is
a `linear` map, on class I), so that every `map` kind and the `smooth` key
are read. Then a `custom` block and a `custom_pd` dual `g` of the `zero`
family; the lasso demo at `lam` 0, whose reference is the least-squares fit,
and with `"reference": false`; a `linear` map with a given `beta`, whose
audit reads the map's probe direction; a `custom_pd` with given `nu0` and
`mu0`, whose validation audits them; the lasso demo without a solver
`stop_tol`, noise-free and noisy, which take its two defaults; a `custom_pd`
without `coupling`; the `parallel_sum` demo at `lam` 0 on the `sifb` route,
whose reference is the least-squares fit; the smooth lasso form at 8x12,
whose V = 1/lambda_max has every entry 1.0; and the lasso demo with a string
`max_iter`, which `sifb run` refuses with exit 1.

The sweeps: every config in `sweep_configs()` also goes through `sifb sweep`
with each tree, in the same subprocess. Per sweep the script compares the
exit code, the stdout (the validation rows, one line per replica and the
closing fraction, with the output directory written as `<out>`), every
`trace_*.csv`, `sweep_summary.csv` and `sweep_summary.json`, which hold no
wall time. They run the noisy inertial lasso and the noise-free lasso on the
`sifb` route, each serially (`--jobs 1`) and across two worker processes
(`--jobs 2`); the noisy split lasso on class I with `--seeds 3` across
two workers, stopped by `max_iter` before it converges, so that the sweep
exits 2; and a noisy `custom` problem on the `sifb` route across two
workers, whose `lstsq` map reads `{"file": ...}` matrices written beside
the config. Sweep replicas run the experiment the parent built, so that
sweep checks that a worker's map is the parent's, read from those files.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ZERO = {"mode": "zero"}
NOISY = {"mode": "poly", "sigma0": 0.2, "theta": 0.75}
INERTIAL = {"mode": "poly", "alpha0": 0.4, "q": 1.5}
GEOM_NOISY = {"mode": "geom", "sigma0": 0.2, "rho": 0.9}
GEOM_INERTIAL = {"mode": "geom", "alpha0": 0.3, "rho": 0.8}
STOCHASTIC = {"max_iter": 20000, "stop_tol": 1e-4, "record_every": 10}
DEMOS = {
    "lasso": ({"n": 12, "p": 10, "lam": 0.2, "cond": 20.0, "seed": 3},
              ["split", "smooth", "cp"]),
    "coupled_box_qp": ({"m": 2, "dims": 3, "seed": 1}, ["smooth"]),
    "parallel_sum": ({"dims": 6, "mu": 0.5, "lam": 0.1, "seed": 2}, [None]),
}
SHORT = {"max_iter": 3000, "stop_tol": 1e-8, "record_every": 5}


def _run_config(problem, algorithm="sifb", noise=ZERO, inertia=ZERO, solver=SHORT,
                seeds=(7,)):
    return {"problem": problem, "algorithm": algorithm, "solver": dict(solver),
            "noise": noise, "inertia": inertia,
            "seeds": seeds if isinstance(seeds, dict) else list(seeds)}


def _readme_example():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    example = re.search(r"A config is one JSON document:\n\n```json\n(.*?)```", text, re.S)
    return json.loads(example.group(1))


def _test_cli_configs():
    """The custom and custom_pd configs of tests/test_cli.py, inline."""
    import numpy as np

    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((8, 5)), rng.standard_normal(8)
    lstsq = {"blocks": [{"dim": 5, "operator": {"family": "l1", "lam": 0.1}}],
             "map": {"kind": "lstsq", "a": a.tolist(), "b": b.tolist()}}
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    audited = {"blocks": [{"dim": 4, "operator": {"family": "l1", "lam": 0.1}}],
               "map": {"kind": "lstsq", "a": a.tolist(),
                       "b": rng.standard_normal(6).tolist()},
               "beta": 50.0}
    diverging = {"blocks": [{"dim": 2, "operator": {"family": "l1", "lam": 0.1}}],
                 "map": {"kind": "lstsq", "a": [[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]],
                         "b": [1.0, 0.0, 2.0]},
                 "x0": [1e200, -1e200]}

    def pd(cell):
        return {"custom_pd": {
            "primal": [{"dim": 2}],
            "dual": [{"dim": 2, "g": {"family": "l1", "lam": 1.0}}],
            "coupling": [[cell]],
            "V": {"kind": "scalar", "values": [1.0]},
            "W": {"kind": "scalar", "values": [1.0]}}}

    return {
        "test_cli-custom-lstsq": _run_config({"custom": lstsq},
                                             solver={"max_iter": 50000, "stop_tol": 1e-9}),
        "test_cli-custom-audited": _run_config({"custom": audited}),
        "test_cli-custom-diverging": _run_config({"custom": diverging}),
        "test_cli-custom_pd-norm-above-one": _run_config(
            pd([[2.0, 0.0], [0.0, 1.0]]), algorithm="pd_class1"),
        "test_cli-custom_pd-nan-coupling": _run_config(
            pd([[float("nan"), 0.0], [0.0, 0.5]]), algorithm="pd_class1"),
    }


def configs():
    """name -> config, in run order."""
    import numpy as np

    out = {"readme-example": _readme_example()}
    for name, (params, forms) in DEMOS.items():
        out[f"{name}-sifb"] = _run_config({"demo": {"name": name, "params": params}})
        for form in forms:
            demo = {"name": name, "params": params}
            if form is not None:
                demo["form"] = form
            for algorithm in ("pd_class1", "pd_class2"):
                out[f"{name}-{form or 'default'}-{algorithm}"] = _run_config(
                    {"demo": demo}, algorithm=algorithm)
    lasso = {"demo": {"name": "lasso", "params": DEMOS["lasso"][0]}}
    out["lasso-sifb-noisy-inertial"] = _run_config(lasso, noise=NOISY, inertia=INERTIAL,
                                                   solver=STOCHASTIC)
    out["lasso-sifb-geom-noise-geom-inertia"] = _run_config(
        lasso, noise=GEOM_NOISY, inertia=GEOM_INERTIAL, solver=STOCHASTIC)
    out["lasso-split-pd_class1-geom-noise"] = _run_config(
        lasso, algorithm="pd_class1", noise=GEOM_NOISY, solver=STOCHASTIC)
    out["lasso-sifb-no-schedule-sections"] = {
        k: v for k, v in _run_config(lasso).items() if k not in ("noise", "inertia")}
    out["lasso-sifb-given-step"] = _run_config(lasso, solver={**SHORT, "gamma": 0.5})
    out["lasso-sifb-given-step-every-row"] = _run_config(
        lasso, solver={**SHORT, "gamma": 0.5, "record_every": 1})
    out["lasso-split-pd_class1-given-step-relaxed"] = _run_config(
        lasso, algorithm="pd_class1", solver={**SHORT, "gamma": 1.0, "relaxation": 0.9})
    split = {"demo": {"name": "lasso", "params": DEMOS["lasso"][0], "form": "split"}}
    for algorithm in ("pd_class1", "pd_class2"):
        out[f"lasso-split-{algorithm}-record-every-3"] = _run_config(
            split, algorithm=algorithm, solver={**SHORT, "record_every": 3})
    # the class-II sweep takes L* d from the L* q it kept on noisy steps at
    # alpha = 0, and misses on inertial and relaxed ones
    out["lasso-split-pd_class2-noisy"] = _run_config(
        split, algorithm="pd_class2", noise=NOISY, solver=STOCHASTIC)
    out["lasso-split-pd_class2-noisy-inertial"] = _run_config(
        split, algorithm="pd_class2", noise=NOISY, inertia=INERTIAL, solver=STOCHASTIC)
    out["lasso-split-pd_class2-relaxed"] = _run_config(
        split, algorithm="pd_class2", solver={**SHORT, "relaxation": 0.9})
    # at 200x300 a threaded BLAS would split the set-up's QRs by thread
    for n, p in ((80, 70), (200, 300)):
        large = {"demo": {"name": "lasso", "params": {**DEMOS["lasso"][0], "n": n, "p": p},
                          "form": "split"}}
        for algorithm in ("pd_class1", "pd_class2"):
            out[f"lasso-split-{n}x{p}-{algorithm}"] = _run_config(large, algorithm=algorithm)
    out["lasso-sifb-20x30"] = _run_config(
        {"demo": {"name": "lasso", "params": {**DEMOS["lasso"][0], "n": 20, "p": 30}}})
    out.update(_test_cli_configs())
    out["custom-diagonal-metric-relaxed-inertial"] = _run_config(
        {"custom": {
            "blocks": [{"dim": 3, "operator": {"family": "box", "lo": -0.5, "hi": 0.5}},
                       {"dim": 2, "operator": {"family": "sq_l2", "lam": 0.7,
                                               "center": 0.3}}],
            "preconditioner": {"kind": "diagonal",
                               "weights": [[1.0, 0.8, 0.6], [0.9, 0.7]]},
            "map": {"kind": "linear",
                    "q": [[2.0, 0.3, 0.0, 0.1, 0.0], [0.3, 1.5, 0.2, 0.0, 0.0],
                          [0.0, 0.2, 1.0, 0.0, 0.1], [0.1, 0.0, 0.0, 1.2, 0.2],
                          [0.0, 0.0, 0.1, 0.2, 0.9]],
                    "offset": [0.5, -1.0, 0.2, 0.4, -0.3]}}},
        inertia=INERTIAL,
        solver={"max_iter": 5000, "stop_tol": 1e-9, "record_every": 3, "relaxation": 0.8})
    out["custom_pd-mixed-families"] = _run_config(
        {"custom_pd": {
            "primal": [{"dim": 3, "operator": {"family": "sq_l2", "lam": 1.0,
                                               "center": 0.5}, "z": [0.1, -0.2, 0.3]},
                       {"dim": 2, "operator": {"family": "affine", "c": 0.2}}],
            "dual": [{"dim": 3, "g": {"family": "box", "lo": -0.4, "hi": 0.6}},
                     {"dim": 2, "g": {"family": "linf_ball", "radius": 0.3},
                      "r": [0.2, -0.1]}],
            "coupling": [[[[0.3, 0.1, 0.0], [0.0, 0.2, 0.1], [0.1, 0.0, 0.3]], None],
                         [None, 0.4]],
            "V": {"kind": "diagonal", "weights": [[1.0, 0.9, 0.8], [0.7, 0.6]]},
            "W": {"kind": "scalar", "values": [0.9, 1.1]}}},
        algorithm="pd_class1")
    out["custom_pd-vector-parameters"] = _run_config(
        {"custom_pd": {
            "primal": [{"dim": 3, "operator": {"family": "sq_l2", "lam": 0.8,
                                               "center": [0.5, -0.2, 0.1]}},
                       {"dim": 2, "operator": {"family": "box", "lo": [-0.3],
                                               "hi": [0.2, 0.4]}},
                       {"dim": 2, "operator": {"family": "affine", "c": [0.1]}}],
            "dual": [{"dim": 3, "g": {"family": "box", "lo": [-0.5, -0.4, -0.3],
                                      "hi": [0.5]}, "r": [0.1, 0.0, -0.2]},
                     {"dim": 2, "g": {"family": "affine", "c": [0.2, -0.1]}},
                     {"dim": 2, "g": {"family": "sq_l2", "lam": 1.5, "center": [0.3]}}],
            "coupling": [[[[0.3, 0.1, 0.0], [0.0, 0.2, 0.1], [0.1, 0.0, 0.3]], None, None],
                         [None, 0.4, None],
                         [None, [[0.2, 0.1], [0.0, 0.3]], 0.3]],
            "V": {"kind": "diagonal", "weights": [[1.0, 0.9, 0.8], [0.7, 0.6], [0.8, 0.9]]},
            "W": {"kind": "scalar", "values": [0.9, 1.1, 1.0]}}},
        algorithm="pd_class1")
    # a -0.0 in z, also in the zero z of a primal block that no coupling cell
    # reaches, and a dual block whose r is all zeros
    for algorithm in ("pd_class1", "pd_class2"):
        out[f"custom_pd-signed-zero-shifts-{algorithm}"] = _run_config(
            {"custom_pd": {
                "primal": [{"dim": 3, "z": [-0.0, 0.4, -0.2]}, {"dim": 2, "z": [-0.0, 0.0]}],
                "dual": [{"dim": 3, "g": {"family": "sq_l2", "lam": 1.0}, "r": [0.0, 0.0, 0.0]},
                         {"dim": 2, "g": {"family": "l1", "lam": 0.3}, "r": [0.1, -0.2]}],
                "coupling": [[[[0.3, 0.1, 0.0], [0.0, 0.2, 0.1], [0.1, 0.0, 0.3]], None],
                             [[[0.2, 0.0, 0.1], [0.0, 0.3, 0.0]], None]],
                "V": {"kind": "scalar", "values": [0.9, 1.1]},
                "W": {"kind": "scalar", "values": [1.0, 0.8]}}},
            algorithm=algorithm)
    out["custom-scaled-identity-map"] = _run_config(
        {"custom": {
            "blocks": [{"dim": 3, "operator": {"family": "sq_l2", "lam": 0.6,
                                               "center": [0.5, -0.2, 0.1]}},
                       {"dim": 2, "operator": {"family": "l1", "lam": 0.3}}],
            "preconditioner": {"kind": "diagonal", "weights": [[1.0, 0.8, 0.6], [0.9, 0.7]]},
            "map": {"kind": "scaled_identity", "mu": 0.8},
            "x0": [1.0, -0.5, 0.3, 0.8, -1.2]}})
    out["custom-single-block-diagonal-metric"] = _run_config(
        {"custom": {
            "blocks": [{"dim": 4, "operator": {"family": "l1", "lam": 0.2}}],
            "preconditioner": {"kind": "diagonal", "weights": [[1.2, 0.9, 0.7, 1.1]]},
            "map": {"kind": "lstsq",
                    "a": [[1.0, 0.2, 0.0, 0.3], [0.1, 0.8, 0.4, 0.0], [0.0, 0.3, 1.1, 0.2],
                          [0.2, 0.0, 0.1, 0.9], [0.5, 0.1, 0.0, 0.4]],
                    "b": [1.0, -0.5, 0.3, 0.8, -0.2]}}})
    out["custom-zero-map"] = _run_config(
        {"custom": {
            "blocks": [{"dim": 2, "operator": {"family": "sq_l2", "lam": 0.5,
                                               "center": [0.4, -0.3]}},
                       {"dim": 3, "operator": {"family": "box", "lo": -0.5, "hi": 0.5}}],
            "map": {"kind": "zero"},
            "x0": [1.0, -1.0, 2.0, -0.1, 0.3]}})
    # beta is 0.0865 here, so the audit of the given 0.08 passes
    rng = np.random.default_rng(5)
    out["custom-wide-lstsq-given-beta"] = _run_config(
        {"custom": {"blocks": [{"dim": 7, "operator": {"family": "l1", "lam": 0.1}}],
                    "map": {"kind": "lstsq", "a": rng.standard_normal((4, 7)).tolist(),
                            "b": rng.standard_normal(4).tolist()},
                    "beta": 0.08}})
    out["custom_pd-linear-smooth-pd_class1"] = _run_config(
        {"custom_pd": {
            "primal": [{"dim": 3, "operator": {"family": "l1", "lam": 0.2}}],
            "dual": [{"dim": 2, "g": {"family": "box", "lo": -0.5, "hi": 0.5},
                      "r": [0.3, -0.1]}],
            "coupling": [[[[0.3, 0.1, 0.0], [0.0, 0.2, 0.4]]]],
            "smooth": {"kind": "linear",
                       "q": [[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.6]],
                       "offset": [0.5, -0.4, 0.2]},
            "V": {"kind": "scalar", "values": [0.8]},
            "W": {"kind": "scalar", "values": [0.9]}}},
        algorithm="pd_class1")
    # the zero family as a block's operator, which the reader makes the zero
    # rule, and as a dual g, whose conjugate is the indicator of {0}
    out["custom-zero-family-block"] = _run_config(
        {"custom": {
            "blocks": [{"dim": 2, "operator": {"family": "zero"}},
                       {"dim": 3, "operator": {"family": "l1", "lam": 0.2}}],
            "map": {"kind": "linear",
                    "q": [[2.0, 0.3, 0.0, 0.1, 0.0], [0.3, 1.5, 0.2, 0.0, 0.0],
                          [0.0, 0.2, 1.0, 0.0, 0.1], [0.1, 0.0, 0.0, 1.2, 0.2],
                          [0.0, 0.0, 0.1, 0.2, 0.9]],
                    "offset": [0.5, -1.0, 0.2, 0.4, -0.3]}}})
    out["custom_pd-zero-family-dual-g-pd_class1"] = _run_config(
        {"custom_pd": {
            "primal": [{"dim": 2, "operator": {"family": "sq_l2", "lam": 1.0,
                                               "center": [0.5, -0.3]}}],
            "dual": [{"dim": 2, "g": {"family": "zero"}, "r": [0.2, -0.1]},
                     {"dim": 2, "g": {"family": "l1", "lam": 0.5}, "r": [0.1, 0.2]}],
            "coupling": [[0.3], [[[0.2, 0.1], [0.0, 0.4]]]],
            "V": {"kind": "scalar", "values": [1.0]},
            "W": {"kind": "scalar", "values": [1.0, 1.0]}}},
        algorithm="pd_class1")
    # lam 0: the reference is the least-squares fit
    out["lasso-sifb-lam-0"] = _run_config(
        {"demo": {"name": "lasso", "params": {**DEMOS["lasso"][0], "lam": 0.0}}},
        solver={**SHORT, "max_iter": 20000})
    out["lasso-sifb-no-reference"] = {**_run_config(lasso), "reference": False}
    # beta is 0.62 here, so the audit of the given 0.5 passes; it reads the
    # map's probe direction
    out["custom-linear-map-given-beta"] = _run_config(
        {"custom": {
            "blocks": [{"dim": 3, "operator": {"family": "box", "lo": -1.0, "hi": 1.0}}],
            "map": {"kind": "linear",
                    "q": [[1.5, 0.2, 0.0], [0.2, 1.0, 0.3], [0.0, 0.3, 0.8]],
                    "offset": [0.5, -1.0, 0.2]},
            "beta": 0.5}})
    # given nu0 and mu0, which validation audits against the smooth map in V
    # and D^-1 in W; here beta_hat is about 0.76 > 1/2
    out["custom_pd-given-constants-pd_class1"] = _run_config(
        {"custom_pd": {
            "primal": [{"dim": 3, "operator": {"family": "l1", "lam": 0.2}}],
            "dual": [{"dim": 2, "g": {"family": "box", "lo": -0.5, "hi": 0.5},
                      "r": [0.3, -0.1], "dinv_mu": 0.5}],
            "coupling": [[[[0.3, 0.1, 0.0], [0.0, 0.2, 0.4]]]],
            "smooth": {"kind": "linear",
                       "q": [[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.6]],
                       "offset": [0.5, -0.4, 0.2]},
            "V": {"kind": "scalar", "values": [0.8]},
            "W": {"kind": "scalar", "values": [0.9]},
            "nu0": 1.0, "mu0": 2.0}},
        algorithm="pd_class1")
    # no solver stop_tol: 1e-8 without noise, 1e-4 with it
    out["lasso-sifb-default-stop-tol"] = _run_config(
        lasso, solver={"max_iter": 3000, "record_every": 5})
    out["lasso-sifb-noisy-default-stop-tol"] = _run_config(
        lasso, noise=NOISY, solver={"max_iter": 20000, "record_every": 10})
    # no coupling: the zero operator, so c = 0
    out["custom_pd-no-coupling-pd_class1"] = _run_config(
        {"custom_pd": {
            "primal": [{"dim": 3, "operator": {"family": "sq_l2", "lam": 1.0,
                                               "center": [0.5, -0.2, 0.1]}}],
            "dual": [{"dim": 2, "g": {"family": "l1", "lam": 0.3}, "r": [0.2, -0.4]}],
            "V": {"kind": "scalar", "values": [0.8]},
            "W": {"kind": "scalar", "values": [0.9]}}},
        algorithm="pd_class1")
    # lam 0: the reference is the least-squares fit
    out["parallel_sum-sifb-lam-0"] = _run_config(
        {"demo": {"name": "parallel_sum",
                  "params": {**DEMOS["parallel_sum"][0], "lam": 0.0}}})
    # 1/lambda_max is exactly 1.0 here, so the smooth form's V has every entry
    # 1.0 and its map reads the demo's spectrum
    out["lasso-smooth-8x12-unit-metric-pd_class1"] = _run_config(
        {"demo": {"name": "lasso", "params": {"n": 8, "p": 12, "lam": 0.02, "seed": 3},
                  "form": "smooth"}}, algorithm="pd_class1")
    # refused before the run: a string where the solver takes an integer
    out["lasso-sifb-refused-string-max-iter"] = _run_config(
        lasso, solver={**SHORT, "max_iter": "3000"})
    return out


def sweep_configs():
    """name -> (config, options of `sifb sweep`, files written beside the
    config: name -> text), in run order."""
    import numpy as np

    lasso = {"demo": {"name": "lasso", "params": DEMOS["lasso"][0]}}
    split = {"demo": {"name": "lasso", "params": DEMOS["lasso"][0], "form": "split"}}
    noisy = _run_config(lasso, noise=NOISY, inertia=INERTIAL, solver=STOCHASTIC,
                        seeds={"count": 3, "master_seed": 11})
    noise_free = _run_config(lasso, seeds=(7, 8))
    out = {}
    for jobs in ("1", "2"):
        out[f"sweep-lasso-sifb-noisy-inertial-jobs-{jobs}"] = (noisy, ["--jobs", jobs], {})
        out[f"sweep-lasso-sifb-noise-free-jobs-{jobs}"] = (noise_free, ["--jobs", jobs], {})
    out["sweep-lasso-split-pd_class1-noisy-max-iter-seeds-3"] = (
        _run_config(split, algorithm="pd_class1", noise=NOISY,
                    solver={"max_iter": 200, "stop_tol": 1e-8, "record_every": 10}),
        ["--seeds", "3", "--jobs", "2"], {})
    rng = np.random.default_rng(7)
    files = {name: "\n".join(" ".join(repr(float(v)) for v in np.atleast_1d(row))
                             for row in rng.standard_normal(shape)) + "\n"
             for name, shape in (("a.txt", (9, 6)), ("b.txt", 9))}
    out["sweep-custom-lstsq-files-noisy-jobs-2"] = (
        _run_config({"custom": {
            "blocks": [{"dim": 6, "operator": {"family": "l1", "lam": 0.1}}],
            "map": {"kind": "lstsq", "a": {"file": "a.txt"}, "b": {"file": "b.txt"}}}},
            noise=NOISY, solver=STOCHASTIC, seeds={"count": 3, "master_seed": 5}),
        ["--jobs", "2"], files)
    return out


def _setting():
    """The numpy version, BLAS build and BLAS thread variables of this process."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}"
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, {threads}"


def collect(src, config_path, out_root):
    """Run every config with the sifb package under src (subprocess side)."""
    import contextlib

    sys.path.insert(0, os.path.abspath(src))
    import numpy as np

    import sifb.cli
    from sifb.primal_dual import duality_residuals, extract_primal_dual
    from sifb.problems import objective

    package = os.path.dirname(os.path.abspath(sifb.__file__))
    if os.path.dirname(package) != os.path.abspath(src):
        sys.exit(f"imported sifb from {package}, not from {src}")
    with open(config_path, encoding="utf-8") as f:
        cfgs, sweeps = json.load(f)
    execute = sifb.cli._execute_single
    final = {}

    def recording_execute(exp, seed, *args, **kwargs):
        x, trace, summary = execute(exp, seed, *args, **kwargs)
        final["x"] = x.flat
        primal = x
        if exp.pd is not None:
            primal, dual = extract_primal_dual(x, exp.pd)
            rep = duality_residuals(primal, dual, exp.pd)
            final["residuals"] = {
                side: [None if d is None else d.hex() for d in res]
                for side, res in (("primal", rep.primal_block_res),
                                  ("dual", rep.dual_block_res))}
            final["residuals"]["unchecked"] = rep.unchecked
        if exp.demo is not None:
            final["objective"] = float(objective(exp.demo, primal)).hex()
        return x, trace, summary

    os.makedirs(out_root)
    with open(os.path.join(out_root, "setting.txt"), "w", encoding="utf-8") as f:
        f.write(f"{_setting()}\n")
    sifb.cli._execute_single = recording_execute
    for name, cfg in cfgs.items():
        out = os.path.join(out_root, name)
        os.makedirs(out)
        path = os.path.join(out, "config.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(cfg, f)
        final.clear()
        with open(os.path.join(out, "log.txt"), "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), \
                np.errstate(all="ignore"):
            code = sifb.cli.main(["run", path, "--out", os.path.join(out, "run")])
        with open(os.path.join(out, "exit_code"), "w", encoding="utf-8") as f:
            f.write(f"{code}\n")
        if "x" in final:
            with open(os.path.join(out, "x.bin"), "wb") as f:
                f.write(final["x"].tobytes())
        if "residuals" in final:
            with open(os.path.join(out, "residuals.json"), "w", encoding="utf-8") as f:
                json.dump(final["residuals"], f, sort_keys=True)
        if "objective" in final:
            with open(os.path.join(out, "objective.txt"), "w", encoding="utf-8") as f:
                f.write(f"{final['objective']}\n")
        with open(os.path.join(out, "constants.txt"), "w", encoding="utf-8") as stdout, \
                open(os.path.join(out, "log.txt"), "a", encoding="utf-8") as log, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(log), \
                np.errstate(all="ignore"):
            code = sifb.cli.main(["constants", path])
        with open(os.path.join(out, "constants_exit_code"), "w", encoding="utf-8") as f:
            f.write(f"{code}\n")
    sifb.cli._execute_single = execute
    for name, (cfg, options, files) in sweeps.items():
        out = os.path.join(out_root, name)
        os.makedirs(out)
        for file, text in {**files, "config.json": json.dumps(cfg)}.items():
            with open(os.path.join(out, file), "w", encoding="utf-8") as f:
                f.write(text)
        path = os.path.join(out, "config.json")
        with open(os.path.join(out, "stdout.txt"), "w", encoding="utf-8") as stdout, \
                open(os.path.join(out, "log.txt"), "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(log), \
                np.errstate(all="ignore"):
            code = sifb.cli.main(["sweep", path, "--out", os.path.join(out, "sweep"),
                                  *options])
        with open(os.path.join(out, "exit_code"), "w", encoding="utf-8") as f:
            f.write(f"{code}\n")


def _columns(lines):
    """Column name -> its fields, row by row, of a trace split into lines.

    A short row has no field in the columns it lacks (None), and the empty
    line after the last newline is a row, so the row count is compared too.
    """
    header = lines[1].decode().split(",")
    rows = [line.split(b",") for line in lines[2:]]
    return {name: [row[j] if j < len(row) else None for row in rows]
            for j, name in enumerate(header)}


def compare_traces(old, new):
    """The differences between two traces (`trace.csv` bytes), as text.

    Traces with the same `#schema=` line must match byte for byte: any
    difference is one, "differs". Across schemas, every column that both
    headers name is compared field by field, byte for byte, and each column
    that only one of them has is listed by name as added or removed; the
    schema line itself is not a difference.
    """
    if old == new:
        return []
    old_lines, new_lines = old.split(b"\n"), new.split(b"\n")
    if old_lines[0] == new_lines[0] or not all(
            len(lines) > 1 and lines[0].startswith(b"#schema=")
            for lines in (old_lines, new_lines)):
        return ["differs"]
    old_cols, new_cols = _columns(old_lines), _columns(new_lines)
    return ([f"column {n!r} removed" for n in old_cols if n not in new_cols]
            + [f"column {n!r} added" for n in new_cols if n not in old_cols]
            + [f"column {n!r} differs" for n in old_cols
               if n in new_cols and old_cols[n] != new_cols[n]])


def line_diff(old, new, limit=3):
    """The first `limit` lines in which two text artifacts (bytes) differ,
    paired by position: "- old" then "+ new", a side without that line
    left out."""
    pairs = [pair for pair in itertools.zip_longest(
        *(text.decode(errors="backslashreplace").splitlines() for text in (old, new)))
        if pair[0] != pair[1]]
    return [f"{sign} {text}" for pair in pairs[:limit]
            for sign, text in zip("-+", pair) if text is not None]


def _artifacts(out):
    """The compared files of one config's or sweep's output directory, as bytes."""
    got = {}
    sweep = sorted(os.path.relpath(p, out)
                   for p in glob.glob(os.path.join(out, "sweep", "*")))
    for rel in ("exit_code", "x.bin", "residuals.json", "objective.txt", "run/trace.csv",
                "run/summary.json", "constants.txt", "constants_exit_code", "stdout.txt",
                *sweep):
        path = os.path.join(out, rel)
        if os.path.exists(path):
            with open(path, "rb") as f:
                got[rel] = f.read()
    if "stdout.txt" in got:
        got["stdout.txt"] = got["stdout.txt"].replace(
            os.path.join(out, "sweep").encode(), b"<out>")
    if "run/summary.json" in got:
        summary = json.loads(got["run/summary.json"])
        summary.pop("wall_time", None)
        got["run/summary.json"] = json.dumps(summary, sort_keys=True).encode()
    with open(os.path.join(out, "log.txt"), "rb") as f:
        got["validation rows"] = b"".join(
            line for line in f if line.startswith((b"[PASS]", b"[FAIL]")))
    return got


def main(argv):
    if len(argv) == 4 and argv[0] == "--collect":
        collect(*argv[1:])
        return 0
    if len(argv) != 2:
        print("usage: python tools/trace_identity.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    cfgs, sweeps = configs(), sweep_configs()
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "configs.json")
        with open(config_path, "w", encoding="utf-8") as f:
            json.dump([cfgs, sweeps], f)
        roots = []
        for label, src in zip(("old", "new"), argv):
            root = os.path.join(tmp, label)
            subprocess.run([sys.executable, os.path.abspath(__file__), "--collect", src,
                            config_path, root], check=True)
            roots.append(root)
        settings = []
        for label, root in zip(("old", "new"), roots):
            with open(os.path.join(root, "setting.txt"), encoding="utf-8") as f:
                settings.append(f.read().strip())
            print(f"{label} tree collected under {settings[-1]}")
        differences = []  # (difference, lines shown under it)
        for name in [*cfgs, *sweeps]:
            old, new = (_artifacts(os.path.join(root, name)) for root in roots)
            found = []
            for rel in sorted(set(old) | set(new)):
                if old.get(rel) == new.get(rel):
                    continue
                if rel not in old or rel not in new:
                    found.append((f"{name}: {rel} differs", []))
                elif os.path.basename(rel).startswith("trace"):
                    found += [(f"{name}: {rel} {d}", [])
                              for d in compare_traces(old[rel], new[rel])]
                else:
                    found.append((f"{name}: {rel} differs",
                                  [] if rel == "x.bin" else line_diff(old[rel], new[rel])))
            differences += found
            code = new.get("exit_code", b"?").decode().strip()
            print(f"{name}: exit {code}, {'DIFFERENT' if found else 'same'}")
    for line, shown in differences:
        print(line)
        for text in shown:
            print(f"    {text}")
    under = settings[0] if settings[0] == settings[1] else " against ".join(settings)
    print(f"{len(cfgs)} configs, {len(sweeps)} sweeps, {len(differences)} differences, "
          f"under {under}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
