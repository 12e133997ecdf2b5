import importlib.util
import json
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "trace_identity.py")
spec = importlib.util.spec_from_file_location("trace_identity", TOOL)
trace_identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace_identity)
compare_traces = trace_identity.compare_traces

TRACE = (b"#schema=2\n"
         b"n,fp_residual,step_norm,dist_to_ref\n"
         b"0,0.5,0,0.75\n"
         b"5,0.25,0.125,\n")
# the same rows, one column added, under a new schema
WIDER = (b"#schema=3\n"
         b"n,fp_residual,step_norm,dist_to_ref,draws\n"
         b"0,0.5,0,0.75,1\n"
         b"5,0.25,0.125,,6\n")


def test_identical_traces_have_no_difference():
    assert compare_traces(TRACE, TRACE) == []
    assert compare_traces(WIDER, WIDER) == []


def test_an_added_column_is_reported_as_exactly_that_column():
    assert compare_traces(TRACE, WIDER) == ["column 'draws' added"]
    assert compare_traces(WIDER, TRACE) == ["column 'draws' removed"]


@pytest.mark.parametrize("old", [TRACE, WIDER], ids=["same-schema", "new-schema"])
def test_a_perturbed_iterate_bit_is_a_difference(old):
    # 0.25 and the next double up print differently at 17 digits
    new = TRACE.replace(b"5,0.25,", b"5,0.25000000000000006,")
    want = ["differs"] if old is TRACE else ["column 'draws' removed",
                                             "column 'fp_residual' differs"]
    assert compare_traces(old, new) == want


def test_same_schema_is_compared_byte_for_byte():
    # a new header under an unchanged schema line, or a row lost, is a
    # difference of the whole file
    assert compare_traces(TRACE, TRACE.replace(b"step_norm", b"step")) == ["differs"]
    assert compare_traces(TRACE, TRACE.replace(b"0,0.5,0,0.75\n", b"")) == ["differs"]


def test_a_lost_row_across_schemas_changes_every_shared_column():
    assert compare_traces(TRACE, WIDER.replace(b"0,0.5,0,0.75,1\n", b"")) == [
        "column 'draws' added", "column 'n' differs", "column 'fp_residual' differs",
        "column 'step_norm' differs", "column 'dist_to_ref' differs"]


def test_line_diff_shows_the_first_three_differing_lines():
    line_diff = trace_identity.line_diff
    old = b"c=0.9499999999999993\nxi_hat=nan\nbeta_hat=inf\n"
    assert line_diff(old, old.replace(b"0.9499999999999993", b"0.95")) == [
        "- c=0.9499999999999993", "+ c=0.95"]
    assert line_diff(b"a\nb\nc\nd\ne\n", b"A\nb\nC\nD\nE\n") == [
        "- a", "+ A", "- c", "+ C", "- d", "+ D"]
    # a line that only one side has is shown on that side alone
    assert line_diff(b"a\n", b"a\nb\n") == ["+ b"]
    assert line_diff(b"a\nb\n", b"a\n") == ["- b"]
    assert line_diff(old, old) == []


def test_collect_writes_the_objective_of_a_demo_config_only(tmp_path):
    from sifb.problems import build_demo

    cfgs = trace_identity.configs()
    names = ("lasso-sifb", "lasso-split-pd_class1", "custom-zero-map")
    path = tmp_path / "configs.json"
    path.write_text(json.dumps([{name: cfgs[name] for name in names}, {}]))
    trace_identity.collect(os.path.join(ROOT, "src"), str(path), str(tmp_path / "out"))
    assert not (tmp_path / "out" / "custom-zero-map" / "objective.txt").exists()
    got = {name: (tmp_path / "out" / name / "objective.txt").read_text() for name in names[:2]}
    # the sifb route's final iterate is the primal point: its objective, in hex
    x = np.frombuffer((tmp_path / "out" / "lasso-sifb" / "x.bin").read_bytes())
    demo = build_demo("lasso", trace_identity.DEMOS["lasso"][0])
    assert got["lasso-sifb"] == f"{float(demo.value(x)).hex()}\n"
    # both routes reach the lasso's minimum
    assert float.fromhex(got["lasso-split-pd_class1"]) == pytest.approx(
        float.fromhex(got["lasso-sifb"]), rel=1e-8)
    assert "objective.txt" in trace_identity._artifacts(str(tmp_path / "out" / "lasso-sifb"))
