import importlib.util
import os
import sys
import threading

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "census.py")
spec = importlib.util.spec_from_file_location("census", TOOL)
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)

MODULE = '''\
def used():
    return [x for x in range(3)]


class Box:
    def method(self):
        def inner():
            return 1
        return inner


square = lambda x: x * x
'''


def test_report_lists_each_function_not_reached_and_counts_them(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(MODULE)
    (package / "notes.txt").write_text("not python")
    mod = os.path.join("src", "pkg", "mod.py")
    defined = census.functions(str(package))
    # the comprehension and the module and class bodies are not functions
    assert defined == [(mod, 1, "used"), (mod, 6, "Box.method"),
                       (mod, 7, "Box.method.<locals>.inner"), (mod, 12, "<lambda>")]
    assert census.report(defined, {(mod, 1, "used"), (mod, 6, "Box.method")}) == [
        f"{mod}:7:Box.method.<locals>.inner", f"{mod}:12:<lambda>",
        "2 of 4 functions never called"]
    # the calls recorded while the module runs have the same keys
    codes = census._record(str(package))
    try:
        namespace = {}
        exec(compile(MODULE, str(package / "mod.py"), "exec"), namespace)
        namespace["Box"]().method()
        namespace["square"](2)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert census.report(defined, census._keys(codes, str(package))) == [
        f"{mod}:1:used", f"{mod}:7:Box.method.<locals>.inner",
        "2 of 4 functions never called"]
