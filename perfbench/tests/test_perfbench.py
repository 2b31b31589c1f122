"""Tests for the benchmark itself: span arithmetic, tracing, tiny smoke runs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
import dataclasses
import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import penorth  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(autouse=True)
def _isolated(monkeypatch, tmp_path):
    """Reports go to a temporary directory; the BLAS settings run.main
    writes into the environment are undone after each test."""
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, "1")


# -- span arithmetic ----------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> c [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert spans.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def _tracer_with(rows):
    tr = spans.Tracer()
    for name, parent, start, end, nested in rows:
        tr.names.append(name)
        tr.parents.append(parent)
        tr.starts.append(start)
        tr.ends.append(end)
        tr.nested.append(nested)
    return tr


def test_span_totals_count_nested_same_name_once():
    tr = _tracer_with([("f", -1, 0.0, 4.0, 0), ("f", 0, 1.0, 2.0, 1),
                       ("g", 1, 1.2, 1.7, 0)])
    tot = spans.span_totals(tr)
    assert tot["f"] == {"calls": 2, "s": 4.0, "self_s": pytest.approx(3.5)}
    assert tot["g"]["self_s"] == pytest.approx(0.5)


def test_anchor_resolves_count_extra_inner_solves():
    tr = _tracer_with([
        ("driver.ep4orth_solve", -1, 0, 10, 0),
        ("subsolvers.newton_solve", 0, 1, 2, 0),
        ("subsolvers.newton_solve", 0, 3, 4, 0),
        ("subsolvers.newton_solve", 0, 5, 6, 0)])
    tr.counts["driver.outer_iters"] = 2
    assert spans.anchor_resolves(tr) == 1


def test_recorded_spans_nest_and_time_forward():
    tr = spans.Tracer()
    tr.call("outer", tr.call, ("inner", lambda: None, (), {}), {})
    assert tr.names == ["outer", "inner"]
    assert list(tr.parents) == [-1, 0]
    assert tr.starts[0] <= tr.starts[1] <= tr.ends[1] <= tr.ends[0]


# -- tracing is transparent ---------------------------------------------------

def _attribute_snapshot():
    snap = {}
    for name, mod in sys.modules.items():
        if name == "penorth" or name.startswith("penorth."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (penorth.PenalizedObjective, penorth.OpnmfObjective,
                penorth.OnmfQuadObjective, penorth.ScaledLinearPenalty,
                penorth.TargetDistanceObjective, penorth.LinearObjective):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_install_wraps_every_binding_and_restore_puts_them_back():
    before = _attribute_snapshot()
    tr = spans.Tracer()
    tr.install(penorth)
    try:
        assert penorth.driver.newton_solve is not before[("penorth.driver", "newton_solve")]
        assert penorth.subsolvers._project_ob_plus_raw.__wrapped__ is before[
            ("penorth.subsolvers", "_project_ob_plus_raw")]
        assert penorth.problems.project_oblique_plus.__wrapped__ is before[
            ("penorth.problems", "project_oblique_plus")]
        assert "hess_apply" in vars(penorth.PenalizedObjective)
    finally:
        assert tr.restore() == []
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


# -- tiny smoke runs of every workload ---------------------------------------

def _tiny(name, count=2):
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(wl, count=count, params=wl.tiny)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_traced_solves_match_untraced_bit_for_bit(name):
    wl = _tiny(name)
    instances = workloads.generate(penorth, wl, seed=1)
    _, base = run.solve_all(penorth, workloads, wl, instances)
    tracers, traced = [], []
    for _ in range(2):
        tr = spans.Tracer()
        tr.install(penorth)
        try:
            wall, outcomes = run.solve_all(penorth, workloads, wl, instances, tr)
        finally:
            assert tr.restore() == []
        tracers.append(tr)
        traced.append(outcomes)
    assert [o["error"] for o in base + traced[0]] == [None] * (2 * len(instances))
    assert run.same_bits(base, traced[0]) == run.same_bits(base, traced[1]) == []
    assert run.count_spread(tracers) == {}
    table = spans.layer_table(tracers[0], wall)
    for m in SPEC["per_layer"]:
        if not m["name"].startswith("trace."):
            assert table[m["name"]][1] == m["unit"], m["name"]
    uses_newton = name.startswith("onmf")
    assert (table["subsolvers.project_delta_cols.calls"][0] > 0) == uses_newton
    assert (table["manifold.project_orthogonal_group.calls"][0] > 0) == (
        name == "kindicators")


def test_count_spread_reports_counts_that_differ():
    a, b = spans.Tracer(), spans.Tracer()
    for tr, calls in ((a, 2), (b, 3)):
        for _ in range(calls):
            tr.call("subsolvers.gmres", lambda: None, (), {})
        tr.call("io.read_matrix", lambda: None, (), {})
        tr.counts["driver.outer_iters"] = 4
    b.call("io.write_matrix", lambda: None, (), {})
    assert run.count_spread([a, b]) == {"subsolvers.gmres.calls": 1}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_the_contract_line(name, trace, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_unknown_workload_is_refused():
    with pytest.raises(SystemExit):
        run.main(["--workload", "nope", "--seed", "1", "--trace", "0"])


def _run_tiny_with(name, solve, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name,
                        dataclasses.replace(_tiny(name), solve=solve))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", "0"])
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def test_a_raised_penorth_error_is_a_failed_solve_not_a_wrong_output(
        monkeypatch):
    solve = workloads.WORKLOADS["projection"].solve

    def raise_on_first(pn, inst):
        if inst.label.endswith("seed=3000"):
            raise penorth.NotTangent("raised on purpose")
        return solve(pn, inst)

    code, last = _run_tiny_with("projection", raise_on_first, monkeypatch)
    assert code == 0
    assert last["correct"] is True
    assert (last["attempted"], last["failed"]) == (2, 1)


def test_an_infeasible_output_fails_the_run(monkeypatch):
    solve = workloads.WORKLOADS["projection"].solve

    def infeasible(pn, inst):
        rep = solve(pn, inst)
        rep.final = 2.0 * rep.final
        return rep

    code, last = _run_tiny_with("projection", infeasible, monkeypatch)
    assert code == 1
    assert last["correct"] is False and last["failed"] == 2
