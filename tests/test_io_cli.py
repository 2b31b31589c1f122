"""File formats and command-line interface.

Round-trip identity is checked bit-for-bit: %.17g is enough digits that
write-then-read must reproduce every IEEE double exactly. CLI commands run
through click's test runner in temporary directories; exit codes follow
the 0/2/3 contract (success / bad input / solver failure).
"""
import json
import os
import pathlib
import shlex

import click
import numpy as np
import pytest
from click.testing import CliRunner

from penorth import io as pio
from penorth.cli import main
from penorth.errors import BadShape, DimensionMismatch, ParseError

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
    m = pio.RunManifest(command="gen-onmf", params={"n": 10, "xi": 0.1},
                        seeds=(3, 4))
    p = str(tmp_path / "m.manifest.json")
    pio.write_manifest(p, m)
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
    assert rep["termination"] == "feasibility-tol"
    assert rep["gap"] <= 1e-6          # xstar sibling was picked up
    assert rep["feasibility"] <= 1e-12
    assert rep["manifest"]["command"] == "project"
    X = pio.read_matrix(sol_path)
    assert X.shape == (12, 3)
    Xs = pio.read_matrix(xstar)
    assert np.linalg.norm(X - Xs) <= 1e-5


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
                                 {"t_max": True}, {"tol_feas": 1e999}])
def test_cli_config_value_of_wrong_type_is_an_input_error(tmp_path, bad):
    # 1e999 is JSON for a float that overflows to inf
    tpath = str(tmp_path / "t.csv")
    pio.write_matrix(tpath, np.eye(3)[:, :2])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad).replace("Infinity", "1e999"))
    r = invoke(["project", "--in", tpath, "--config", str(cfg)])
    assert r.exit_code == 2, r.output
    assert f"error: {next(iter(bad))} must be" in r.output


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
    assert ns["rep"].termination == "feasibility-tol"
