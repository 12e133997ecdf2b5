"""List the functions of `src/sifb` that no shipped entry point calls.

    python tools/census.py

A `sys.setprofile` hook, installed before `sifb` is imported, records every
function of `src/sifb` that starts to run. With it in place the script
runs, in one process and from a temporary directory:

- the four demo scripts;
- the README's example config through `sifb validate`, `sifb run`,
  `sifb constants` and `sifb sweep --jobs 1`;
- every config of `tools/trace_identity.py`'s `configs()` through
  `sifb run` and `sifb constants`, and every sweep of its `sweep_configs()`
  through `sifb sweep` with `--jobs 1`.

All commands go through `sifb.cli.main` in process: a forked worker would
run under its own copy of the hook, whose record the script never sees. It
never runs `perfbench/run.py`, which writes its results into the checkout,
so a function that only `perfbench/` calls is listed too: search
`perfbench/` for a listed name before deleting it.

It then prints every function, method, nested function and lambda of
`src/sifb` that none of these called, one `file:line:qualname` a line,
and a closing count. A function listed is reached only by tests, if at
all; comprehensions and module and class bodies are not listed.
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
    """Run the demos and the configs (see the module doc) with cwd `tmp`."""
    import numpy as np

    from sifb.cli import main

    def config(name, cfg, files=None):
        out = os.path.join(tmp, name)
        os.makedirs(out)
        for file, text in {**(files or {}), "config.json": json.dumps(cfg)}.items():
            with open(os.path.join(out, file), "w", encoding="utf-8") as f:
                f.write(text)
        return out, os.path.join(out, "config.json")

    tool = _load_identity_tool()
    cfgs = tool.configs()
    for demo in sorted(os.listdir(os.path.join(ROOT, "demos"))):
        if demo.endswith(".py"):
            runpy.run_path(os.path.join(ROOT, "demos", demo), run_name="__main__")
    with np.errstate(all="ignore"):
        out, path = config("readme", cfgs["readme-example"])
        main(["validate", path])
        main(["run", path, "--out", os.path.join(out, "run")])
        main(["constants", path])
        main(["sweep", path, "--jobs", "1", "--out", os.path.join(out, "sweep")])
        for name, cfg in cfgs.items():
            out, path = config(name, cfg)
            main(["run", path, "--out", os.path.join(out, "run")])
            main(["constants", path])
        for name, (cfg, options, files) in tool.sweep_configs().items():
            out, path = config(name, cfg, files)
            # the last --jobs given is the one that holds
            main(["sweep", path, "--out", os.path.join(out, "sweep"), *options, "--jobs", "1"])


def main():
    defined = functions(PACKAGE)
    codes = _record(PACKAGE)
    sys.path.insert(0, os.path.dirname(PACKAGE))
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
    print("\n".join(report(defined, _keys(codes, PACKAGE))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
