import io
import json

import pytest

from momentsos import (
    compile_relaxation,
    problem_from_json,
    read_sparse_sdp,
    solve_sdp,
    write_sparse_sdp,
)
from momentsos import cli, hierarchy
from momentsos.cli import main

from conftest import PROBLEMS


EX35 = str(PROBLEMS / "ex35.json")
EX35_SUB = str(PROBLEMS / "ex35_sub.json")
EX43 = str(PROBLEMS / "ex43.json")


def run(*argv):
    return main(list(argv))


def test_solve_plain_converges(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run("solve", EX35, "--variant", "plain", "--kmin", "3", "--kmax", "3",
               "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "converged"
    assert abs(report["value"] - 1.0) <= 1e-4
    assert report["orders"][0]["certified"] is True
    text = capsys.readouterr().out
    assert "converged at order 3" in text


def test_solve_homogenized_converges(tmp_path):
    out = tmp_path / "report.json"
    code = run("solve", EX43, "--variant", "homogenized", "--kmin", "2",
               "--kmax", "2", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["value"] - 32.0) <= 1e-3 * 32.0
    assert report["atoms"], "expected extracted atoms in the report"
    assert set(report["atoms"][0]) == {"weight", "point"}


def test_reports_deterministic_modulo_timestamp(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["solve", EX35, "--kmin", "3", "--kmax", "3"]
    assert run(*argv, "--out", str(out1)) == 0
    assert run(*argv, "--out", str(out2)) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    r1.pop("timestamp")
    r2.pop("timestamp")
    assert r1 == r2


def test_certify_flat_prints_ranks(capsys):
    code = run("certify-flat", EX35, "--kmin", "3", "--kmax", "3")
    assert code == 0
    text = capsys.readouterr().out
    assert "rank(low)" in text and "rank(full)" in text


def test_check_kkt(tmp_path, capsys):
    out = tmp_path / "kkt.json"
    code = run("check-kkt", EX35_SUB, "--point", "0.5774,0.5774,0.5774",
               "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["report"]["licq"] is True
    assert report["report"]["stationary"] is True
    assert "licq: True" in capsys.readouterr().out


def test_check_kkt_space_separated_point():
    assert run("check-kkt", EX35_SUB, "--point", "0.5774 0.5774 0.5774") == 0


def test_dump_round_trip(tmp_path, capsys):
    out = tmp_path / "ex35.sdp"
    code = run("dump", EX35, "--kmin", "3", "--out", str(out))
    assert code == 0
    with open(out) as fh:
        prob = read_sparse_sdp(fh)
    sol = solve_sdp(prob)
    assert abs(sol.obj_primal - 1.0) <= 1e-4


def test_dump_to_stdout(capsys):
    assert run("dump", EX35, "--kmin", "3") == 0
    text = capsys.readouterr().out
    prob = read_sparse_sdp(io.StringIO(text))
    assert prob.nfree > 0


def write_problem(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_solve_dump_sdp_matches_dump(tmp_path):
    """solve --dump-sdp and dump write the same SDP for every variant."""
    one = {"c": 1.0, "e": [0]}
    problem = write_problem(tmp_path / "interval.json", {
        "n": 1,
        "f": [{"c": -1.0, "e": [1]}],
        "set": {"ineq": [[one, {"c": -1.0, "e": [2]}]], "archimedean": True,
                "closed_at_infinity": True},
    })
    for variant in ("plain", "homogenized", "denominator"):
        solved = tmp_path / f"{variant}-solve.sdp"
        dumped = tmp_path / f"{variant}-dump.sdp"
        assert run("solve", problem, "--variant", variant, "--kmin", "2", "--kmax", "2",
                   "--dump-sdp", str(solved)) == 0
        assert run("dump", problem, "--variant", variant, "--kmin", "2",
                   "--out", str(dumped)) == 0
        assert solved.read_bytes() == dumped.read_bytes(), variant


def test_dump_denominator_minimum_order_covers_constraints(tmp_path, capsys):
    """dump picks order 2 for min x1^2 + x2^2 - x1 on {1 - x1^6 - x2^6 >= 0}."""
    problem = write_problem(tmp_path / "ball6.json", {
        "n": 2,
        "f": [{"c": 1.0, "e": [2, 0]}, {"c": 1.0, "e": [0, 2]}, {"c": -1.0, "e": [1, 0]}],
        "set": {"ineq": [[{"c": 1.0, "e": [0, 0]}, {"c": -1.0, "e": [6, 0]},
                          {"c": -1.0, "e": [0, 6]}]]},
    })
    out = tmp_path / "ball6.sdp"
    assert run("dump", problem, "--variant", "denominator", "--out", str(out)) == 0
    assert "wrote order-2 denominator SDP" in capsys.readouterr().out
    with open(out) as fh:
        sol = solve_sdp(read_sparse_sdp(fh))
    assert abs(sol.obj_primal + 0.25) <= 1e-6


def test_solve_dump_sdp_per_order(tmp_path):
    template = str(tmp_path / "relax_{k}.sdp")
    code = run("solve", EX35, "--kmin", "3", "--kmax", "3", "--dump-sdp", template)
    assert code == 0
    with open(tmp_path / "relax_3.sdp") as fh:
        prob = read_sparse_sdp(fh)
    assert prob.num_eq > 0


def test_solve_dump_sdp_writes_the_solved_sdps(tmp_path, monkeypatch):
    """Each order is compiled once; the dumps are the SDPs that were solved."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return compile_relaxation(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "compile_relaxation", counted)
    monkeypatch.setattr(cli, "compile_relaxation", counted)
    data = {"n": 1, "f": [{"c": -1.0, "e": [1]}],
            "set": {"ineq": [[{"c": 1.0, "e": [0]}, {"c": -1.0, "e": [2]}]]}}
    path = write_problem(tmp_path / "interval.json", data)
    template = str(tmp_path / "relax_{k}.sdp")
    # an impossible rank tolerance keeps the sweep going through every order
    assert run("solve", path, "--kmin", "1", "--kmax", "3", "--rank-tol", "1e-30",
               "--dump-sdp", template) == 2
    assert calls == [1, 2, 3]
    problem = problem_from_json(data)
    for k in (1, 2, 3):
        buf = io.StringIO()
        write_sparse_sdp(compile_relaxation(problem, "plain", k).sdp, buf)
        assert (tmp_path / f"relax_{k}.sdp").read_text() == buf.getvalue()


def test_unresolved_exit_code(tmp_path):
    # an impossible rank tolerance keeps every order uncertified
    code = run("solve", EX35, "--kmin", "3", "--kmax", "3", "--rank-tol", "1e-30")
    assert code == 2


def test_solver_failure_exit_code(tmp_path, capsys):
    # minimizing x1 over the whole line is unbounded at every order
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps({"n": 1, "f": [{"c": 1.0, "e": [1]}], "set": {}}))
    code = run("solve", str(path), "--kmin", "1", "--kmax", "1")
    assert code == 3


def test_input_error_exits(tmp_path, capsys):
    assert run("solve", str(tmp_path / "missing.json")) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("solve", str(bad)) == 1
    assert run("solve", EX35, "--kmin", "4", "--kmax", "3") == 1
    assert run("solve", EX35, "--variant", "fancy") == 1
    assert run("solve", EX35, "--tol", "-1") == 1
    assert run("check-kkt", EX35, "--point", "0,0,0") == 1  # gmp file
    assert run("check-kkt", EX35_SUB, "--point", "1,2") == 1  # wrong length
    assert run("check-kkt", EX35_SUB, "--point", "a,b,c") == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--rank-tol", "inf"), ("--seed", "-5"),
])
def test_bad_option_values_fail_before_solving(monkeypatch, capsys, flag, value):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved despite a bad option value")

    monkeypatch.setattr(hierarchy, "solve_sdp", no_solve)
    assert run("solve", EX35, "--kmin", "3", "--kmax", "3", flag, value) == 1
    assert flag in capsys.readouterr().err


def test_schema_error_names_offending_term(tmp_path, capsys):
    path = tmp_path / "mismatched.json"
    path.write_text(json.dumps({"n": 3, "f": [{"c": 1.0, "e": [2, 0]}]}))
    assert run("solve", str(path)) == 1
    err = capsys.readouterr().err
    assert "[2, 0]" in err


def test_report_schema_keys(tmp_path):
    out = tmp_path / "report.json"
    assert run("solve", EX35, "--kmin", "3", "--kmax", "3", "--out", str(out)) == 0
    report = json.loads(out.read_text())
    required = {
        "tool", "version", "command", "input", "timestamp", "variant",
        "problem_kind", "nvars", "k_min", "k_max", "tolerances", "status",
        "value", "order", "theta", "warnings", "orders", "atoms",
        "atoms_at_infinity",
    }
    assert required <= set(report)
    order_keys = {
        "k", "status", "moment_value", "sos_value", "iterations",
        "residuals", "message", "certified", "certificate",
    }
    assert order_keys <= set(report["orders"][0])


def test_bundled_problem_files():
    """Every shipped problem file parses, and ex35 has the documented shape."""
    from momentsos import GmpProblem, PopProblem, problem_from_json

    kinds = {
        "ex35.json": GmpProblem,
        "ex35_sub.json": PopProblem,
        "ex36.json": GmpProblem,
        "ex43.json": GmpProblem,
        "ex46.json": PopProblem,
        "ex48.json": PopProblem,
    }
    for name, kind in kinds.items():
        with open(PROBLEMS / name) as fh:
            problem = problem_from_json(json.load(fh))
        assert isinstance(problem, kind), name
    with open(PROBLEMS / "ex35.json") as fh:
        gmp = problem_from_json(json.load(fh))
    assert len(gmp.a) == 3 and gmp.m1 == 3 and gmp.d == 6
    with open(PROBLEMS / "expected.json") as fh:
        manifest = json.load(fh)
    assert set(kinds) <= set(manifest)
