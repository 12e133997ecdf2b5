"""List the functions of `src/sifb` that no shipped entry point calls.

    python tools/census.py

A `sys.setprofile` hook, installed before `sifb` is imported, records every
function of `src/sifb` that starts to run. With it in place the script
runs, in one process and from a temporary directory:

- the four demo scripts;
- `collect` of `tools/trace_identity.py` on every config of its
  `configs()`, and on every sweep of its `sweep_configs()` with `--jobs 1`
  added, plus a sweep of the README's example config at one seed and
  without `--jobs`, which is serial too.

`collect` calls `sifb.cli.main` in process: a forked worker would run under
its own copy of the hook, whose record the script never sees. The script
never runs `perfbench/run.py`, which writes its results into the checkout,
so a function that only `perfbench/` calls is listed too.

It then prints every function, method, nested function and lambda of
`src/sifb` that none of these called, one `file:line:qualname` a line,
and a closing count. A function listed is reached only by tests, if at
all; comprehensions and module and class bodies are not listed. It exits
1, naming them on stderr, when it lists a function whose `file:qualname`
is not in `HELD`, and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import importlib.util
import inspect
import io
import json
import os
import runpy
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sifb")
# The functions that only perfbench/ calls, as `file:qualname`, each with the
# perfbench/ line that holds it; they go when perfbench/ stops naming them
# (ROADMAP item 4). A class's two property lambdas share one entry.
HELD = {
    "src/sifb/spaces.py:BlockVector.__rmul__",  # tracer.py:45, LAYERS wraps it
    "src/sifb/spaces.py:BlockVector.__neg__",  # tracer.py:46, LAYERS wraps it
    "src/sifb/spaces.py:BlockVector.axpy",  # tracer.py:47, LAYERS wraps it
    "src/sifb/spaces.py:BlockVector.concatenated",  # workloads.py:65, :156; tracer.py:326
    "src/sifb/spaces.py:Preconditioner.apply_inverse",  # tracer.py:53, LAYERS wraps it
    "src/sifb/spaces.py:Preconditioner.apply_sqrt",  # tracer.py:54, LAYERS wraps it
    "src/sifb/operators.py:CocoerciveMap.from_callable",  # tracer.py:69, LAYERS wraps it
    # the map that from_callable builds
    "src/sifb/operators.py:CocoerciveMap.from_callable.<locals>.<lambda>",  # tracer.py:69
    "src/sifb/solver.py:ProblemInstance.backward",  # tracer.py:76, LAYERS wraps it
    # the sigma0 and theta properties
    "src/sifb/stochastic.py:NoiseSchedule.<lambda>",  # workloads.py:172, the floor's set-up
    # the alpha0 and q properties
    "src/sifb/stochastic.py:InertiaSchedule.<lambda>",  # workloads.py:173, the floor's set-up
}


def functions(package):
    """(file, first line, qualname) of every function defined in the .py
    files of the directory `package`, the file relative to its parent's
    parent, found by compiling each file; comprehensions and module and
    class bodies are left out."""
    base = os.path.dirname(os.path.dirname(package))
    out = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as f:
            todo = [compile(f.read(), path, "exec")]
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if hasattr(c, "co_code")]
            # a module or class body is not optimized; a comprehension is
            # named <listcomp>, <genexpr>, ...
            if code.co_flags & inspect.CO_OPTIMIZED and (
                    code.co_name == "<lambda>" or not code.co_name.startswith("<")):
                out.append((os.path.relpath(path, base), code.co_firstlineno,
                            getattr(code, "co_qualname", code.co_name)))
    return sorted(out)


def report(defined, reached):
    """The lines of the census: each function of `defined` not in `reached`,
    as `file:line:qualname`, then the count."""
    missed = [f"{file}:{line}:{name}" for file, line, name in defined
              if (file, line, name) not in reached]
    return missed + [f"{len(missed)} of {len(defined)} functions never called"]


def unheld(defined, reached, held):
    """The `file:line:qualname` of each function of `defined` not in
    `reached` whose `file:qualname` is not in `held`."""
    return [f"{file}:{line}:{name}" for file, line, name in defined
            if (file, line, name) not in reached and f"{file}:{name}" not in held]


def _record(package):
    """Start recording the calls of functions defined under `package`, in
    this thread and in threads started from now on; returns the dict that
    fills with their code objects."""
    prefix = package + os.sep
    codes = {}  # id -> code object; a code object is slow to hash

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            codes[id(frame.f_code)] = frame.f_code

    sys.setprofile(hook)
    threading.setprofile(hook)
    return codes


def _keys(codes, package):
    """The `functions` keys of the recorded code objects."""
    base = os.path.dirname(os.path.dirname(package))
    return {(os.path.relpath(code.co_filename, base), code.co_firstlineno,
             getattr(code, "co_qualname", code.co_name)) for code in codes.values()}


def _load_identity_tool():
    path = os.path.join(ROOT, "tools", "trace_identity.py")
    spec = importlib.util.spec_from_file_location("trace_identity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exercise(tmp):
    """Run the demos and `collect` (see the module doc) with cwd `tmp`."""
    sys.path.insert(0, os.path.dirname(PACKAGE))
    tool = _load_identity_tool()
    for demo in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if demo.endswith(".py"):
            runpy.run_path(os.path.join(ROOT, "demos", demo), run_name="__main__")
    cfgs = tool.configs()
    # the last --jobs given is the one that holds
    sweeps = {name: (cfg, [*options, "--jobs", "1"], files)
              for name, (cfg, options, files) in tool.sweep_configs().items()}
    # one replica: no pool, whatever the CPU count
    sweeps["readme-example-one-seed"] = (cfgs["readme-example"], ["--seeds", "1"], {})
    path = os.path.join(tmp, "configs.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump([cfgs, sweeps], f)
    tool.collect(os.path.dirname(PACKAGE), path, os.path.join(tmp, "collected"))


def main():
    defined = functions(PACKAGE)
    codes = _record(PACKAGE)
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            os.chdir(tmp)
            try:
                _exercise(tmp)
            finally:
                os.chdir(cwd)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached = _keys(codes, PACKAGE)
    print("\n".join(report(defined, reached)))
    outside = unheld(defined, reached, HELD)
    if outside:
        print(f"{len(outside)} listed functions are not in HELD: give each a shipped "
              "caller or delete it", file=sys.stderr)
        print("\n".join(outside), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
