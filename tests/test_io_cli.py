"""File formats and command-line interface.

Round-trip identity is checked bit-for-bit: %.17g is enough digits that
write-then-read must reproduce every IEEE double exactly. CLI commands run
through click's test runner in temporary directories; exit codes follow
the 0/2/3 contract (success / bad input / solver failure).
"""
import dataclasses
import json
import os
import pathlib
import shlex

import click
import numpy as np
import pytest
from click.testing import CliRunner

from penorth import (PenalizedObjective, PenaltyParams,
                     TargetDistanceObjective, ep4orth_solve, gen_projection,
                     make_context, project_oblique_plus, projection_preset,
                     solve_projection, stationarity_residual)
from penorth import io as pio
from penorth.cli import main
from penorth.errors import BadShape, DimensionMismatch, ParseError
from penorth.rounding import round as round_point

import oracles


# --------------------------------------------------------------------------
# matrix files


def awkward_matrix():
    rng = oracles.rng_for(71)
    M = rng.standard_normal((6, 4))
    M[0, 0] = 1.0 / 3.0
    M[1, 1] = -1e-300          # subnormal-adjacent magnitude
    M[2, 2] = 1e300
    M[3, 3] = np.nextafter(1.0, 2.0)
    M[4, 0] = 0.0
    M[5, 3] = -0.0
    return M


@pytest.mark.parametrize("ext", [".mtx", ".mm", ".csv"])
def test_matrix_round_trip_bit_identical(tmp_path, ext):
    M = awkward_matrix()
    p = str(tmp_path / f"m{ext}")
    pio.write_matrix(p, M)
    back = pio.read_matrix(p)
    assert back.shape == M.shape
    # bit-for-bit, not approx: %.17g must reproduce every double, and the
    # sign of the planted -0.0, which np.array_equal would not see
    assert np.array_equal(back.view(np.uint64), M.view(np.uint64))
    if ext != ".csv":
        # the array file is column-major: a Fortran-ordered view
        assert back.strides == (8, 8 * M.shape[0])
        assert back.flags.f_contiguous


def test_write_matrix_array_is_column_major(tmp_path):
    p = tmp_path / "m.mtx"
    pio.write_matrix(str(p), np.array([[1.0, 3.0], [2.0, 4.0]]))
    body = [s for s in p.read_text().splitlines()[2:] if s]
    assert [float(s) for s in body] == [1.0, 2.0, 3.0, 4.0]


def test_write_matrix_array_golden_bytes(tmp_path):
    M = awkward_matrix()
    p = tmp_path / "m.mtx"
    pio.write_matrix(str(p), M)
    expected = ("%%MatrixMarket matrix array real general\n6 4\n"
                + "".join("%.17g\n" % v for v in M.T.ravel()))
    assert p.read_bytes() == expected.encode()


BANNER = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize("text", [
    BANNER + "3 2\n1\n2\n% interior comment\n\n3\n4\n\n%\n5\n6\n",
    BANNER + "3 2\n1 2 3\n4   5\t6\n",
    (BANNER + "3 2\n1\n2\n% c\n3\n4\n5\n6\n").replace("\n", "\r\n"),
    BANNER + "3 2\n1\n2\n3\n4\n5\n6",
], ids=["comments-and-blanks", "several-per-line", "crlf",
        "no-final-newline"])
def test_read_matrix_array_layouts(tmp_path, text):
    p = tmp_path / "m.mtx"
    p.write_bytes(text.encode())
    M = pio.read_matrix(str(p))
    assert np.array_equal(M, np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]))
    assert M.strides == (8, 24)


def test_read_matrix_coordinate_sums_duplicates(tmp_path):
    p = str(tmp_path / "m.mtx")
    p_text = ("%%MatrixMarket matrix coordinate real general\n"
              "% comment line\n"
              "3 2 4\n"
              "1 1 2.5\n"
              "3 2 -1.0\n"
              "1 1 0.5\n"
              "2 2 7\n")
    with open(p, "w") as fh:
        fh.write(p_text)
    M = pio.read_matrix(p)
    assert np.array_equal(M, np.array([[3.0, 0.0], [0.0, 7.0], [0.0, -1.0]]))


def test_read_matrix_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("no banner", "1 1\n0\n", 1),
        ("bad value", "%%MatrixMarket matrix array real general\n2 1\n1.0\nxyz\n", 4),
        ("bad index", "%%MatrixMarket matrix coordinate real general\n"
                      "2 2 1\n5 1 1.0\n", 3),
        ("non-finite", "%%MatrixMarket matrix array real general\n1 1\nnan\n", 3),
        ("bad value after comment", BANNER + "2 2\n1\n% note\n\n2\n3 xyz\n", 7),
        ("inf", BANNER + "2 1\n1\ninf\n", 4),
        ("-inf among comments", BANNER + "% a\n2 2\n%\n1 2 -inf\n4\n", 5),
        ("bad value, crlf", BANNER.replace("\n", "\r\n") + "2 1\r\n1\r\n2,\r\n", 4),
        ("bad value, no final newline", BANNER + "2 1\n1\n2x", 4),
    ]
    for name, text, lineno in cases:
        p = str(tmp_path / "bad.mtx")
        with open(p, "w") as fh:
            fh.write(text)
        with pytest.raises(ParseError) as ei:
            pio.read_matrix(p)
        assert ei.value.line == lineno, name
    with open(str(tmp_path / "short.mtx"), "w") as fh:
        fh.write("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n")
    with pytest.raises(DimensionMismatch):
        pio.read_matrix(str(tmp_path / "short.mtx"))


def test_read_csv_ragged_rows_rejected(tmp_path):
    p = str(tmp_path / "m.csv")
    with open(p, "w") as fh:
        fh.write("# header comment\n1.0,2.0\n3.0\n")
    with pytest.raises(ParseError) as ei:
        pio.read_matrix(p)
    assert ei.value.line == 3


def test_format_inference_and_override(tmp_path):
    M = np.eye(2)
    with pytest.raises(BadShape):
        pio.write_matrix(str(tmp_path / "m.dat"), M)
    p = str(tmp_path / "m.dat")
    pio.write_matrix(p, M, fmt="csv")
    assert np.array_equal(pio.read_matrix(p, fmt="csv"), M)
    with pytest.raises(BadShape):
        pio.read_matrix(p, fmt="weird")


def test_writes_are_atomic_no_temp_litter(tmp_path):
    for i in range(5):
        pio.write_matrix(str(tmp_path / "m.csv"), np.eye(3) * i)
        pio.write_report(str(tmp_path / "r.json"), {"i": i})
    names = set(os.listdir(tmp_path))
    assert names == {"m.csv", "r.json"}


# array files are streamed a block of about pio._BLOCK values at a time: the
# files below span several blocks and put each fault past the first one


def long_column(rows):
    """A rows x 1 matrix of values of every magnitude."""
    rng = oracles.rng_for(73)
    return rng.standard_normal((rows, 1)) * 10.0 ** rng.integers(-30, 30, (rows, 1))


def array_file_lines(rows):
    """The lines of a rows x 1 array file, one 25-character value per line."""
    vals = ["%.17e\n" % v for v in long_column(rows)[:, 0].tolist()]
    return [BANNER, f"{rows} 1\n"] + vals


@pytest.mark.parametrize("op", ["read", "write"])
def test_array_io_memory_is_bounded_by_the_matrix(tmp_path, op):
    import tracemalloc
    M = oracles.rng_for(74).standard_normal((5000, 40))
    p = str(tmp_path / "m.mtx")
    pio.write_matrix(p, M)
    tracemalloc.start()
    try:
        if op == "read":
            back = pio.read_matrix(p)
        else:
            pio.write_matrix(p, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if op == "read":
        # the returned array itself plus one block of strings
        assert np.array_equal(back, M)
        assert peak < 1.5 * M.nbytes
    else:
        assert peak < 1.2 * M.nbytes


@pytest.mark.parametrize("shape,order", [
    ((3 * pio._BLOCK + 7, 2), "C"), ((3 * pio._BLOCK + 7, 2), "F"),
    ((5, pio._BLOCK), "C"), ((700, 9), "F"), ((1, 3 * pio._BLOCK + 1), "C"),
])
def test_write_matrix_array_golden_bytes_over_blocks(tmp_path, shape, order):
    rng = oracles.rng_for(75)
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    M.flat[::97] = -0.0
    M = np.asarray(M, order=order)
    p = tmp_path / "m.mtx"
    pio.write_matrix(str(p), M)
    expected = (f"%%MatrixMarket matrix array real general\n{shape[0]} {shape[1]}\n"
                + "".join("%.17g\n" % v for v in M.T.ravel()))
    assert p.read_bytes() == expected.encode()
    back = pio.read_matrix(str(p))
    assert np.array_equal(back.view(np.uint64), M.view(np.uint64))
    assert back.flags.f_contiguous
    # a strided view writes the same bytes as its copy
    pio.write_matrix(str(p), np.repeat(M, 2, axis=1)[:, ::2])
    assert p.read_bytes() == expected.encode()


def test_read_matrix_array_comments_past_the_first_block(tmp_path):
    lines = array_file_lines(4 * pio._BLOCK)
    lines.insert(3 * pio._BLOCK, "% a comment between the values\n")
    lines.insert(2 * pio._BLOCK, "\n")
    p = tmp_path / "m.mtx"
    p.write_text("".join(lines))
    back = pio.read_matrix(str(p))
    col = long_column(4 * pio._BLOCK)
    assert np.array_equal(back.view(np.uint64), col.view(np.uint64))


@pytest.mark.parametrize("fault,message", [
    ("xyz", "bad numeric value 'xyz'"),
    ("1.5e", "bad numeric value '1.5e'"),
    ("nan", "non-finite value 'nan'"),
    ("-inf", "non-finite value '-inf'"),
    ("comment then bad", "bad numeric value '2x'"),
    ("crlf", "bad numeric value '2,'"),
    ("no final newline", "bad numeric value '7q'"),
    ("not utf-8", "not UTF-8 text (byte 0xe9)"),
])
def test_read_matrix_errors_past_the_first_block(tmp_path, fault, message):
    lines = array_file_lines(4 * pio._BLOCK)
    lineno = 3 * pio._BLOCK + 17  # 1-based line of the fault
    if fault == "comment then bad":
        lines.insert(lineno - 1, "% note\n")
        lineno += 1
        lines[lineno - 1] = "2x\n"
    elif fault == "crlf":
        lines[lineno - 1] = "2,\n"
        lines = [ln.replace("\n", "\r\n") for ln in lines]
    elif fault == "no final newline":
        lines[-1] = "7q"
        lineno = len(lines)
    elif fault == "not utf-8":
        lines[lineno - 1] = "5\udce96\n"
    else:
        lines[lineno - 1] = fault + "\n"
    # well past the first block of 25-character lines
    assert len("".join(lines[:lineno])) > 2 * 25 * pio._BLOCK
    p = tmp_path / "m.mtx"
    p.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as ei:
        pio.read_matrix(str(p))
    assert ei.value.line == lineno
    assert message in str(ei.value)


def test_read_matrix_reports_a_late_undecodable_byte_first(tmp_path):
    # as when the whole file was decoded before parsing: a byte that is not
    # UTF-8 is the error reported even past an earlier bad value
    lines = array_file_lines(4 * pio._BLOCK)
    lines[5] = "bad\n"
    lines[3 * pio._BLOCK] = "\udcff\n"
    p = tmp_path / "m.mtx"
    p.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as ei:
        pio.read_matrix(str(p))
    assert ei.value.line == 3 * pio._BLOCK + 1
    assert "not UTF-8 text (byte 0xff)" in str(ei.value)


@pytest.mark.parametrize("count", [4 * pio._BLOCK - 1, 4 * pio._BLOCK + 1])
def test_read_matrix_counts_every_value_of_a_mismatched_file(tmp_path, count):
    lines = array_file_lines(count)
    lines[1] = f"{pio._BLOCK} 4\n"
    p = tmp_path / "m.mtx"
    p.write_text("".join(lines))
    n = 4 * pio._BLOCK
    with pytest.raises(DimensionMismatch) as ei:
        pio.read_matrix(str(p))
    assert str(ei.value) == f"expected {n} entries for {pio._BLOCK} x 4, found {count}"


def test_read_matrix_size_line_larger_than_the_file(tmp_path):
    # no array of the claimed size is allocated: the file cannot fill it
    p = tmp_path / "m.mtx"
    p.write_text(BANNER + "1000000 1000000\n1\n2\n3\n")
    with pytest.raises(DimensionMismatch) as ei:
        pio.read_matrix(str(p))
    assert str(ei.value) == ("expected 1000000000000 entries for "
                             "1000000 x 1000000, found 3")


# --------------------------------------------------------------------------
# reports and manifests


def test_report_round_trip_and_sanitization(tmp_path):
    p = str(tmp_path / "r.json")
    payload = {
        "a": np.float64(1.5), "b": np.int32(7), "flag": np.bool_(True),
        "arr": np.arange(3.0), "nan": float("nan"), "inf": float("inf"),
        "nested": {"t": (1, 2)},
    }
    pio.write_report(p, payload)
    back = pio.read_report(p)
    assert back == {"a": 1.5, "b": 7, "flag": True, "arr": [0.0, 1.0, 2.0],
                    "nan": None, "inf": None, "nested": {"t": [1, 2]}}
    # deterministic bytes: same payload, same file
    q = str(tmp_path / "r2.json")
    pio.write_report(q, payload)
    assert pathlib.Path(p).read_bytes() == pathlib.Path(q).read_bytes()


def test_manifest_round_trip(tmp_path):
    m = {"command": "gen-onmf", "params": {"n": 10, "xi": 0.1}, "seeds": (3, 4)}
    p = str(tmp_path / "m.manifest.json")
    pio.write_report(p, m)
    assert pio.read_report(p) == {"command": "gen-onmf",
                                  "params": {"n": 10, "xi": 0.1},
                                  "seeds": [3, 4]}


# --------------------------------------------------------------------------
# CLI: generators and solvers end to end


def run_cli(args, cwd):
    runner = CliRunner()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        return runner.invoke(main, args, catch_exceptions=False)
    except SystemExit:
        raise
    finally:
        os.chdir(here)


def invoke(args):
    return CliRunner().invoke(main, args)


def test_cli_gen_projection_then_solve(tmp_path):
    out = str(tmp_path / "inst.mtx")
    r = invoke(["gen-projection", "--n", "12", "--k", "3", "--xi", "0.5",
                "--seed", "5", "--out", out])
    assert r.exit_code == 0, r.output
    xstar = str(tmp_path / "inst_xstar.mtx")
    manifest = str(tmp_path / "inst.manifest.json")
    assert os.path.exists(out) and os.path.exists(xstar)
    assert pio.read_report(manifest)["params"]["hypothesis_ok"] is True

    rep_path = str(tmp_path / "report.json")
    sol_path = str(tmp_path / "sol.mtx")
    r = invoke(["project", "--in", out, "--out", rep_path,
                "--save-solution", sol_path])
    assert r.exit_code == 0, r.output
    rep = pio.read_report(rep_path)
    # the bound certifies the start's support: the run stops before any
    # inner solve, on the support the full continuation rounds to
    assert rep["termination"] == "settled"
    assert rep["outer_iterations"] == 0
    assert rep["gap"] <= 1e-6          # xstar sibling was picked up
    assert rep["feasibility"] <= 1e-12
    assert rep["manifest"]["command"] == "project"
    X = pio.read_matrix(sol_path)
    assert X.shape == (12, 3)
    Xs = pio.read_matrix(xstar)
    assert np.linalg.norm(X - Xs) <= 1e-5
    cfg_path = tmp_path / "full.json"
    cfg_path.write_text(json.dumps({"do_postprocess": False}))
    full_path = str(tmp_path / "full.mtx")
    r = invoke(["project", "--in", out, "--config", str(cfg_path),
                "--out", str(tmp_path / "full.json.out"),
                "--save-solution", full_path])
    assert r.exit_code == 0, r.output
    full = pio.read_report(str(tmp_path / "full.json.out"))
    assert full["termination"] == "feasibility-tol"
    assert np.array_equal(X > 0, pio.read_matrix(full_path) > 0)


def test_cli_project_reports_finite_values_when_the_start_is_certified(
        tmp_path):
    # a solve the bound ends at its start has no outer iteration; its
    # residual is the start's under sigma0, a number in the JSON report
    # (not null), and the report carries the bound's relative gap
    inst = gen_projection(12, 3, 0.5, 5)
    path = str(tmp_path / "c.mtx")
    pio.write_matrix(path, inst.C)
    rep_path = str(tmp_path / "rep.json")
    r = invoke(["project", "--in", path, "--out", rep_path])
    assert r.exit_code == 0, r.output
    rep = pio.read_report(rep_path)
    assert rep["termination"] == "settled"
    assert rep["outer_iterations"] == rep["inner_iterations"] == 0
    C = pio.read_matrix(path)
    ctx = make_context(*C.shape)
    X = round_point(project_oblique_plus(C))
    want = stationarity_residual(X, PenalizedObjective(
        TargetDistanceObjective(C), ctx,
        PenaltyParams(sigma=projection_preset().sigma0)).grad(X))
    assert isinstance(rep["kkt_residual"], float)
    assert rep["kkt_residual"] == want > 0
    assert isinstance(rep["zeta"], float)
    assert rep["bound_gap"] <= 1e-12


def test_cli_gen_is_deterministic(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    for out in (a, b):
        r = invoke(["gen-onmf", "--n", "15", "--r", "8", "--k", "3",
                    "--xi", "0.1", "--seed", "9", "--out", out])
        assert r.exit_code == 0, r.output
    assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()
    la = (tmp_path / "a_labels.csv").read_bytes()
    lb = (tmp_path / "b_labels.csv").read_bytes()
    assert la == lb


@pytest.mark.parametrize("args", [
    ["gen-projection", "--n", "10", "--k", "2", "--xi", "nan"],
    ["gen-projection", "--n", "10", "--k", "2", "--xi", "inf"],
    ["gen-onmf", "--n", "10", "--r", "5", "--k", "2", "--xi", "inf"],
    ["gen-onmf", "--n", "10", "--r", "5", "--k", "2", "--xi", "nan"],
    ["gen-onmf", "--n", "10", "--r", "0", "--k", "2"],
], ids=["proj-nan", "proj-inf", "onmf-inf", "onmf-nan", "onmf-r0"])
def test_cli_gen_rejects_instances_no_solver_reads(tmp_path, args):
    # no solver could read such a file back (a non-finite value, or no
    # columns), so nothing is written at all
    r = invoke(args + ["--out", str(tmp_path / "inst.mtx")])
    assert r.exit_code == 2, r.output
    assert "error:" in r.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["gen-projection", "--n", "4", "--k", "2"],
    ["gen-onmf", "--n", "10", "--r", "5", "--k", "2"],
], ids=["projection", "onmf"])
def test_cli_gen_rejects_a_negative_seed(tmp_path, command):
    r = invoke(command + ["--seed", "-1", "--out", str(tmp_path / "x.mtx")])
    assert r.exit_code == 2, r.output
    assert "error: seed must be a nonnegative integer, got -1" in r.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("table", ["table-proj", "table-onmf"])
def test_cli_bench_rejects_zero_seeds(table):
    # zero seeds would leave every cell of the table empty
    r = invoke(["bench", table, "--seeds", "0"])
    assert r.exit_code == 2, r.output
    assert "--seeds" in r.output


def test_cli_onmf_with_labels_metrics(tmp_path):
    data = str(tmp_path / "A.mtx")
    r = invoke(["gen-onmf", "--n", "20", "--r", "10", "--k", "3",
                "--xi", "0.0", "--seed", "13", "--out", data])
    assert r.exit_code == 0, r.output
    rep_path = str(tmp_path / "rep.json")
    r = invoke(["onmf", "--in", data, "--k", "3",
                "--labels", str(tmp_path / "A_labels.csv"),
                "--out", rep_path])
    assert r.exit_code == 0, r.output
    rep = pio.read_report(rep_path)
    assert rep["resi"] <= 1e-6
    assert rep["metrics"]["purity"] == 1.0
    assert rep["manifest"]["command"] == "onmf"


def test_cli_scores_the_row_argmax_of_the_solution(tmp_path, monkeypatch):
    # the onmf command's --labels and bench table-onmf's jobs score the
    # row argmax of the solution, as np.argmax takes it
    import penorth.cli as cli
    from penorth.problems import gen_onmf
    scored = []
    metrics = cli.clustering_metrics
    monkeypatch.setattr(cli, "clustering_metrics", lambda pred, true: (
        scored.append(pred), metrics(pred, true))[1])
    inst = gen_onmf(60, 10, 3, xi=0.05, seed=23)
    data, truth = str(tmp_path / "A.mtx"), str(tmp_path / "true.csv")
    pio.write_matrix(data, inst.A)
    with open(truth, "w") as fh:
        fh.write("\n".join(str(int(v)) for v in inst.labels) + "\n")
    sol = str(tmp_path / "X.mtx")
    r = invoke(["onmf", "--in", data, "--k", "3", "--labels", truth,
                "--save-solution", sol])
    assert r.exit_code == 0, r.output
    want = np.argmax(pio.read_matrix(sol), axis=1)
    assert scored[-1].dtype == want.dtype
    assert np.array_equal(scored[-1], want)
    finals = []
    solve = cli.solve_onmf
    monkeypatch.setattr(cli, "solve_onmf", lambda *a, **kw: (
        finals.append(solve(*a, **kw)), finals[-1])[1])
    cli._onmf_job((60, 10, 3, 0.05, 23))
    assert np.array_equal(scored[-1], np.argmax(finals[-1].final, axis=1))


@pytest.mark.parametrize("command", ["onmf", "opnmf"])
def test_cli_onmf_keeps_zero_data_rows(tmp_path, command):
    from penorth.problems import gen_onmf
    inst = gen_onmf(60, 10, 3, xi=0.0, seed=19)
    A = inst.A.copy()
    A[7] = 0.0
    data = str(tmp_path / "A.mtx")
    pio.write_matrix(data, A)
    truth = str(tmp_path / "true.csv")
    with open(truth, "w") as fh:
        fh.write("\n".join(str(int(v)) for v in inst.labels) + "\n")
    sol = str(tmp_path / "X.mtx")
    rep_path = str(tmp_path / "rep.json")
    r = invoke([command, "--in", data, "--k", "3", "--labels", truth,
                "--save-solution", sol, "--out", rep_path])
    assert r.exit_code == 0, r.output
    X = pio.read_matrix(sol)
    assert X.shape == (60, 3)
    assert np.abs(X[7]).max() <= 1e-12
    assert "metrics" in pio.read_report(rep_path)


def test_cli_kindicators_labels_file(tmp_path):
    from penorth.problems import gen_kindicators
    inst = gen_kindicators(25, 3, noise=0.1, seed=17)
    upath = str(tmp_path / "U.csv")
    pio.write_matrix(upath, inst.U)
    truth = str(tmp_path / "true.csv")
    with open(truth, "w") as fh:
        fh.write("\n".join(str(int(v)) for v in inst.labels) + "\n")
    pred_path = str(tmp_path / "pred.csv")
    rep_path = str(tmp_path / "rep.json")
    sol = str(tmp_path / "X.csv")
    r = invoke(["kindicators", "--in", upath, "--labels", truth,
                "--save-labels", pred_path, "--out", rep_path,
                "--save-solution", sol])
    assert r.exit_code == 0, r.output
    rep = pio.read_report(rep_path)
    assert rep["metrics"]["purity"] == 1.0
    assert rep["manifest"]["params"]["t_max"] == 60
    pred = [int(s) for s in pathlib.Path(pred_path).read_text().split()]
    assert len(pred) == 25
    X = pio.read_matrix(sol)
    assert np.array_equal(np.argmax(X, axis=1), pred)


def test_cli_and_library_give_the_same_answer(tmp_path):
    # the CLI reads its input column-major, the generators make it
    # row-major: the solves agree bit for bit all the same
    from penorth.problems import (gen_kindicators, gen_onmf,
                                  kindicators_solve, solve_onmf)
    U = gen_kindicators(40, 3, 0.1, 62).U
    upath, sol = str(tmp_path / "U.mtx"), str(tmp_path / "X.mtx")
    pio.write_matrix(upath, U)
    r = invoke(["kindicators", "--in", upath, "--save-solution", sol])
    assert r.exit_code == 0, r.output
    assert pio.read_matrix(sol).tobytes() == kindicators_solve(U).final.tobytes()

    A = gen_onmf(40, 60, 3, 0.01, 1).A
    apath, rep_path = str(tmp_path / "A.mtx"), str(tmp_path / "rep.json")
    pio.write_matrix(apath, A)
    r = invoke(["onmf", "--in", apath, "--k", "3", "--out", rep_path])
    assert r.exit_code == 0, r.output
    assert (pio.read_report(rep_path)["kkt_residual"]
            == solve_onmf(A, 3).kkt_residual)


def test_cli_check_kkt(tmp_path):
    X = np.zeros((3, 2))
    X[0, 0] = X[1, 1] = 1.0
    C = -X  # linear gain aligned with X: stationary point
    xp = str(tmp_path / "x.csv")
    cp = str(tmp_path / "c.csv")
    pio.write_matrix(xp, X)
    pio.write_matrix(cp, C)
    out = str(tmp_path / "kkt.json")
    r = invoke(["check-kkt", "--in", xp, "--objective", "linear",
                "--c", cp, "--out", out])
    assert r.exit_code == 0, r.output
    rep = pio.read_report(out)
    assert rep["classification"] == "stationary"


@pytest.mark.parametrize("tol", ["nan", "-1e-8", "inf"])
def test_cli_check_kkt_rejects_a_tolerance_that_decides_nothing(tmp_path, tol):
    xp = str(tmp_path / "x.csv")
    cp = str(tmp_path / "c.csv")
    pio.write_matrix(xp, np.eye(3, 2))
    pio.write_matrix(cp, -np.eye(3, 2))
    out = tmp_path / "kkt.json"
    r = invoke(["check-kkt", "--in", xp, "--objective", "linear", "--c", cp,
                "--tol", tol, "--out", str(out)])
    assert r.exit_code == 2, r.output
    assert "error: tol must be finite and nonnegative" in r.output
    assert not out.exists()


@pytest.mark.parametrize("objective", ["linear", "target"])
def test_cli_check_kkt_rejects_a_c_of_another_shape(tmp_path, objective):
    # a 30 x 1 C would broadcast against a 30 x 3 X in the target objective
    xp = str(tmp_path / "x.csv")
    cp = str(tmp_path / "c.csv")
    pio.write_matrix(xp, np.eye(30)[:, :3])
    pio.write_matrix(cp, np.ones((30, 1)))
    r = invoke(["check-kkt", "--in", xp, "--objective", objective,
                "--c", cp])
    assert r.exit_code == 2, r.output
    assert "C shape (30, 1) != X shape (30, 3)" in r.output


@pytest.mark.parametrize("shape", [(30, 1), (29, 3)])
def test_cli_project_rejects_an_xstar_of_another_shape(tmp_path, shape):
    # a 30 x 1 file used to broadcast into a gap; a 29 x 3 one failed in
    # numpy after the solve
    cpath = str(tmp_path / "C.mtx")
    xpath = str(tmp_path / "xs.mtx")
    pio.write_matrix(cpath, oracles.rng_for(73).standard_normal((30, 3)))
    pio.write_matrix(xpath, np.ones(shape))
    r = invoke(["project", "--in", cpath, "--xstar", xpath,
                "--out", str(tmp_path / "rep.json")])
    assert r.exit_code == 2, r.output
    assert f"X_star shape {shape} != C shape (30, 3)" in r.output
    assert not (tmp_path / "rep.json").exists()


def test_cli_exit_codes(tmp_path):
    # 2: validation (k > n is impossible)
    r = invoke(["gen-projection", "--n", "2", "--k", "5",
                "--out", str(tmp_path / "x.mtx")])
    assert r.exit_code == 2
    assert "error:" in r.output
    # 2: missing input file
    r = invoke(["project", "--in", str(tmp_path / "absent.mtx")])
    assert r.exit_code == 2
    # 2: malformed config JSON
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        fh.write("{not json")
    tpath = str(tmp_path / "t.csv")
    pio.write_matrix(tpath, np.eye(3)[:, :2])
    r = invoke(["project", "--in", tpath, "--config", cpath])
    assert r.exit_code == 2
    # 2: unknown config key
    with open(cpath, "w") as fh:
        json.dump({"bogus_key": 1}, fh)
    r = invoke(["project", "--in", tpath, "--config", cpath])
    assert r.exit_code == 2
    assert "bogus_key" in r.output
    # 3: objective overflows to inf at the data scale
    big = str(tmp_path / "big.mtx")
    pio.write_matrix(big, np.full((8, 4), 3e153))
    with np.errstate(over="ignore"):
        r = invoke(["project", "--in", big])
    assert r.exit_code == 3
    assert "solver failure" in r.output


@pytest.mark.parametrize("ext", [".mtx", ".csv"])
def test_cli_non_utf8_input_is_a_parse_error(tmp_path, ext):
    p = tmp_path / f"f{ext}"
    p.write_bytes(b"\xff\xfe%%MatrixMarket matrix array real general\n")
    r = invoke(["project", "--in", str(p)])
    assert r.exit_code == 2
    assert "error: line 1: not UTF-8 text (byte 0xff)" in r.output
    # the line is that of the first undecodable byte, CRLF counted once
    p.write_bytes(b"1,2\r\n3,4\r\n5,\xe96\r\n")
    r = invoke(["project", "--in", str(p)])
    assert r.exit_code == 2
    assert "error: line 3: not UTF-8 text (byte 0xe9)" in r.output


def test_cli_non_utf8_labels_and_config_are_input_errors(tmp_path):
    data = str(tmp_path / "A.mtx")
    pio.write_matrix(data, np.abs(oracles.rng_for(72).standard_normal((9, 6))))
    labels = tmp_path / "L.csv"
    labels.write_bytes(b"\xff\xfe1\n2\n")
    r = invoke(["onmf", "--in", data, "--k", "3", "--labels", str(labels)])
    assert r.exit_code == 2, r.output
    assert "not UTF-8 text (byte 0xff)" in r.output
    assert "L.csv" in r.output
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"sigma0": 1\xff}')
    r = invoke(["onmf", "--in", data, "--k", "3", "--config", str(cfg)])
    assert r.exit_code == 2, r.output
    assert "error: --config file: line 1: not UTF-8 text (byte 0xff)" in r.output


@pytest.mark.parametrize("bad", [{"sigma0": "abc"}, {"max_inner": 2.5},
                                 {"t_max": True}, {"tol_feas": 1e999},
                                 {"do_postprocess": "false"},
                                 {"do_postprocess": None}])
def test_cli_config_value_of_wrong_type_is_an_input_error(tmp_path, bad):
    # 1e999 is JSON for a float that overflows to inf
    tpath = str(tmp_path / "t.csv")
    pio.write_matrix(tpath, np.eye(3)[:, :2])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad).replace("Infinity", "1e999"))
    r = invoke(["project", "--in", tpath, "--config", str(cfg)])
    assert r.exit_code == 2, r.output
    assert f"error: {next(iter(bad))} must be" in r.output


@pytest.mark.parametrize("key", ["p", "q", "eps0", "gamma1", "eps_grad_min",
                                 "rng_seed"])
def test_cli_config_rejects_settings_the_driver_does_not_have(tmp_path, key):
    # the driver's penalty is p = 1, q = 2 without smoothing, its inner
    # tolerance floor is a constant and every solver command supplies the
    # feasible fallback, so none of these is a setting
    tpath = str(tmp_path / "t.csv")
    pio.write_matrix(tpath, np.eye(3)[:, :2])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 0.5 if key == "p" else 1}))
    r = invoke(["project", "--in", tpath, "--config", str(cfg)])
    assert r.exit_code == 2, r.output
    assert f"unknown config keys: ['{key}']" in r.output


def test_cli_config_file_overrides(tmp_path):
    inst = str(tmp_path / "c.mtx")
    r = invoke(["gen-projection", "--n", "8", "--k", "2", "--xi", "0.3",
                "--seed", "2", "--out", inst])
    assert r.exit_code == 0, r.output
    cpath = str(tmp_path / "cfg.json")
    with open(cpath, "w") as fh:
        json.dump({"t_max": 4}, fh)
    rep_path = str(tmp_path / "rep.json")
    r = invoke(["project", "--in", inst, "--config", cpath,
                "--out", rep_path])
    assert r.exit_code == 0, r.output
    rep = pio.read_report(rep_path)
    assert rep["outer_iterations"] <= 4
    assert rep["manifest"]["params"]["overrides"] == {"t_max": 4}


@pytest.mark.parametrize("command", ["project", "onmf", "opnmf"])
def test_cli_solvers_take_no_seed(tmp_path, command):
    # every application supplies a feasible fallback, so the driver's seed
    # never draws anything: the solver commands neither take nor record one
    data = str(tmp_path / "A.mtx")
    r = invoke(["gen-onmf", "--n", "12", "--r", "6", "--k", "2",
                "--xi", "0.0", "--seed", "4", "--out", data])
    assert r.exit_code == 0, r.output
    args = [command, "--in", data] + ([] if command == "project" else
                                      ["--k", "2"])
    r = invoke(args + ["--seed", "1"])
    assert r.exit_code == 2
    assert "--seed" in r.output
    rep_path = str(tmp_path / "rep.json")
    r = invoke(args + ["--out", rep_path])
    assert r.exit_code == 0, r.output
    assert pio.read_report(rep_path)["manifest"]["seeds"] == []


def test_cli_bench_table_proj_smoke(tmp_path):
    out = str(tmp_path / "table.json")
    r = invoke(["bench", "table-proj", "--n", "10", "--k", "2",
                "--xi", "0.5", "--seeds", "2", "--out", out])
    assert r.exit_code == 0, r.output
    table = pio.read_report(out)
    assert len(table["cells"]) == 1
    cell = table["cells"][0]
    assert cell["runs"] == 2
    assert cell["suc"] == 2            # easy instances: both recovered
    assert len(table["runs"]) == 2


def test_cli_bench_table_drops_repeated_grid_values(tmp_path):
    # a value listed twice names one grid point: it runs once per seed and
    # prints and writes one cell
    out = str(tmp_path / "table.json")
    r = invoke(["bench", "table-proj", "--n", "10", "--k", "2", "--xi", "0.5",
                "--xi", "0.5", "--n", "10", "--seeds", "2", "--out", out])
    assert r.exit_code == 0, r.output
    # both runs end on their fallback, which is reported as rounded without
    # a second rounding; the refined point no longer loses to that second
    # rounding by an ulp, so both return it, and seed 0's gap reads 0, not
    # -1.11e-16
    row = "n=   10 k=  2 xi=0.5   suc=2/2 gap_max=0.00e+00 time="
    lines = r.output.splitlines()
    assert [line.rsplit("=", 1)[0] + "=" for line in lines[:1]] == [row]
    assert lines[1:] == [f"table written to {out}"]
    table = pio.read_report(out)
    for cell in table["cells"]:
        assert cell.pop("seconds_total") >= 0
    assert table["cells"] == [{"n": 10, "k": 2, "xi": 0.5, "runs": 2,
                               "suc": 2, "gap_max": 0.0,
                               "gap_mean": -5.551115123125783e-17,
                               "feasibility_max": 2.482534153247273e-16}]
    assert [run["seed"] for run in table["runs"]] == [0, 1]
    # both runs stop on the start's support, which the bound certifies, the
    # one the full continuation (to tol_feas, unrefined) rounds to
    assert [run["termination"] for run in table["runs"]] == ["settled"] * 2
    assert [run["outer_iterations"] for run in table["runs"]] == [0, 0]
    for seed in (0, 1):
        C = gen_projection(10, 2, 0.5, seed).C
        full = solve_projection(C, projection_preset(do_postprocess=False))
        assert full.termination == "feasibility-tol"
        assert np.array_equal(solve_projection(C).final > 0, full.final > 0)


def test_cli_bench_table_keeps_grid_order():
    # repeated values are dropped, not sorted: the first listed runs first
    r = invoke(["bench", "table-proj", "--n", "10", "--k", "2", "--xi", "0.7",
                "--xi", "0.5", "--xi", "0.7", "--seeds", "1"])
    assert r.exit_code == 0, r.output
    assert [line.split()[4] for line in r.output.splitlines()] == [
        "xi=0.7", "xi=0.5"]


@pytest.mark.parametrize("workers, size", [("2", [2]), ("1000000", [2]),
                                           ("1", [])])
def test_cli_bench_pool_is_no_larger_than_the_job_count(monkeypatch,
                                                        workers, size):
    # the pool forks every requested worker up front, so it is sized to the
    # jobs (here 2), and one worker runs serially without a pool; the
    # stand-in records the pool's size and starts no process
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr("penorth.cli.ProcessPoolExecutor", Pool)
    r = invoke(["bench", "table-proj", "--n", "10", "--k", "2", "--xi", "0.5",
                "--seeds", "2", "--workers", workers])
    assert r.exit_code == 0, r.output
    assert "suc=2/2" in r.output
    assert sizes == size


@pytest.mark.parametrize("table", ["table-proj", "table-onmf"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_bench_rejects_fewer_than_one_worker(table, workers):
    r = invoke(["bench", table, "--workers", workers])
    assert r.exit_code == 2, r.output
    assert "--workers" in r.output


def test_cli_bench_table_proj_rejects_zero_tmax():
    # as project --tmax 0 does; 0 must not fall back to the preset's t_max
    r = invoke(["bench", "table-proj", "--n", "10", "--k", "2", "--xi", "0.5",
                "--seeds", "1", "--tmax", "0"])
    assert r.exit_code == 2, r.output
    assert "t_max and max_inner must be at least 1" in r.output


def test_cli_bench_table_onmf_smoke(tmp_path):
    out = str(tmp_path / "table.json")
    r = invoke(["bench", "table-onmf", "--n", "16", "--r", "8", "--k", "2",
                "--xi", "0.0", "--seeds", "2", "--out", out])
    assert r.exit_code == 0, r.output
    table = pio.read_report(out)
    cell = table["cells"][0]
    assert cell["resi_max"] <= 1e-6
    assert cell["feasibility_max"] <= 1e-12
    # planted labels recovered, read off the row argmax of each run
    assert [run["nmi"] for run in table["runs"]] == pytest.approx([1.0, 1.0])
    assert cell["nmi_mean"] == pytest.approx(1.0)
    assert cell["settled"] == sum(run["termination"] == "settled"
                                  for run in table["runs"])
    assert f"nmi_mean=1.0000 settled={cell['settled']}/2" in r.output


def degenerate_inputs():
    """The degenerate data files of the CLI tests, by name."""
    rng = oracles.rng_for(76)
    u = rng.random((20, 1)) + 0.1
    Z = rng.random((10, 3)) + 0.1
    Z[:, 1] = 0.0
    return {
        "20x1": u / np.linalg.norm(u),  # k = 1, and orthonormal for K-indicators
        "4x4": np.linalg.qr(rng.standard_normal((4, 4)))[0],  # n = k, orthogonal
        "negative-30x3": -rng.random((30, 3)) - 0.1,
        "zero-column-10x3": Z,
    }


DEGENERATE_COMMANDS = {
    "project": ["project"], "onmf-k1": ["onmf", "--k", "1"],
    "onmf-k3": ["onmf", "--k", "3"], "opnmf-k3": ["opnmf", "--k", "3"],
    "kindicators": ["kindicators"],
}
# (file, command) pairs that exit 2; every other pair solves
DEGENERATE_REJECTED = {
    ("20x1", "onmf-k3"), ("20x1", "opnmf-k3"),
    ("negative-30x3", "kindicators"), ("zero-column-10x3", "onmf-k3"),
    ("zero-column-10x3", "opnmf-k3"), ("zero-column-10x3", "kindicators"),
}


@pytest.mark.parametrize("command", sorted(DEGENERATE_COMMANDS))
@pytest.mark.parametrize("name", sorted(degenerate_inputs()))
def test_cli_degenerate_inputs_solve_or_exit_2(tmp_path, name, command):
    from penorth.rounding import feasibility_violation
    M = degenerate_inputs()[name]
    data = str(tmp_path / "A.mtx")
    pio.write_matrix(data, M)
    sol = str(tmp_path / "X.mtx")
    args = DEGENERATE_COMMANDS[command] + [
        "--in", data, "--save-solution", sol, "--out", str(tmp_path / "rep.json")]
    r = invoke(args)
    if (name, command) in DEGENERATE_REJECTED:
        assert r.exit_code == 2, r.output
        assert r.output.startswith("error: ")
        assert not os.path.exists(sol)
        return
    assert r.exit_code == 0, r.output
    X = pio.read_matrix(sol)
    k = int(args[2]) if command.startswith(("onmf", "opnmf")) else M.shape[1]
    assert X.shape == (M.shape[0], k)  # one solution row per data row
    assert feasibility_violation(X) <= 1e-12


@pytest.mark.parametrize("command", ["onmf", "opnmf"])
def test_cli_onmf_names_dropped_zero_columns(tmp_path, command):
    data = str(tmp_path / "A.mtx")
    pio.write_matrix(data, degenerate_inputs()["zero-column-10x3"])
    r = invoke([command, "--in", data, "--k", "3"])
    assert r.exit_code == 2
    assert r.output == ("error: k=3 exceeds the 2 column(s) of A left after "
                        "dropping 1 all-zero column(s)\n")
    # k within the columns left: the zero column is dropped and A solved
    r = invoke([command, "--in", data, "--k", "2"])
    assert r.exit_code == 0, r.output


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_cli_lines():
    text = pathlib.Path(README).read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("penorth ")]


def test_readme_cli_lines_resolve():
    # parse each documented command line against the click command tree
    # (subcommand, option names, Choice values) without running it
    lines = readme_cli_lines()
    assert len(lines) >= 5
    for words in lines:
        cmd, args = main, words[1:]
        while isinstance(cmd, click.Group):
            assert args[0] in cmd.commands, " ".join(words)
            cmd, args = cmd.commands[args[0]], args[1:]
        try:
            cmd.make_context(cmd.name, list(args))
        except click.UsageError as exc:
            pytest.fail(f"{' '.join(words)}: {exc.format_message()}")


def test_readme_python_blocks_run():
    # the library examples run as written: every ```python block of the
    # README, in order, in one namespace
    text = pathlib.Path(README).read_text()
    blocks = [b.split("```", 1)[0] for b in text.split("```python\n")[1:]]
    assert len(blocks) >= 2
    ns = {}
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {i}", "exec"), ns)
        if "ep4orth_solve(" in code:  # later blocks reuse its C
            driver_ns = dict(ns)
    assert ns["rep"].termination == "settled"
    # the bound certifies the driver example's support: it stops early, on
    # the support the full continuation rounds to
    full = ep4orth_solve(TargetDistanceObjective(driver_ns["C"]),
                         driver_ns["ctx"], dataclasses.replace(
                             driver_ns["cfg"], do_postprocess=False))
    assert full.termination == "feasibility-tol"
    assert np.array_equal(ns["rep"].final > 0, full.final > 0)
