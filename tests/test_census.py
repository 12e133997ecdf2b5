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


def run_census_on_the_stub(tmp_path, monkeypatch, held):
    """census.main on a package holding MODULE, whose exercise calls `used`
    and `Box.method`, with HELD set to held."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(MODULE)

    def exercise(tmp):
        namespace = {}
        exec(compile(MODULE, str(package / "mod.py"), "exec"), namespace)
        namespace["used"]()
        namespace["Box"]().method()

    monkeypatch.setattr(census, "PACKAGE", str(package))
    monkeypatch.setattr(census, "_exercise", exercise)
    monkeypatch.setattr(census, "HELD", held)
    return census.main()


def test_census_exits_0_when_every_listed_function_is_held(tmp_path, monkeypatch, capsys):
    mod = os.path.join("src", "pkg", "mod.py")
    held = {f"{mod}:Box.method.<locals>.inner", f"{mod}:<lambda>", f"{mod}:gone"}
    assert run_census_on_the_stub(tmp_path, monkeypatch, held) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"{mod}:7:Box.method.<locals>.inner", f"{mod}:12:<lambda>",
                                "2 of 4 functions never called"]
    assert err == ""


def test_census_exits_1_naming_each_listed_function_not_held(tmp_path, monkeypatch, capsys):
    mod = os.path.join("src", "pkg", "mod.py")
    # a held name is file:qualname; a line number or another file does not hold it
    held = {f"{mod}:<lambda>", f"{mod}:7:Box.method.<locals>.inner",
            "src/other/mod.py:Box.method.<locals>.inner"}
    assert run_census_on_the_stub(tmp_path, monkeypatch, held) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "2 of 4 functions never called"
    assert err.splitlines() == ["1 listed functions are not in HELD: give each a shipped "
                                "caller or delete it", f"{mod}:7:Box.method.<locals>.inner"]
