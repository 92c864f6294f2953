import json
import os
import subprocess
import sys

import pytest

import ramseykit
from ramseykit.cli import run
from ramseykit.exactq import RationalMatrix
from ramseykit.rado import ColumnsCertificate, verify_certificate


@pytest.fixture
def schur_mat(tmp_path):
    path = tmp_path / "schur.mat"
    path.write_text("1 3\n1 1 -1\n")
    return str(path)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def report(capsys, *argv):
    code, out = invoke(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_rado_check_emits_verifiable_certificate(capsys, schur_mat):
    rep = report(capsys, "rado", "check", "--matrix", schur_mat)
    assert rep["partition_regular"] is True
    cert = ColumnsCertificate.from_json_dict(rep["certificate"])
    assert verify_certificate(RationalMatrix.from_rows([[1, 1, -1]]), cert)


def test_rado_check_degenerate_zero_matrix(capsys, tmp_path):
    path = tmp_path / "zero.mat"
    path.write_text("1 2\n0 0\n")
    rep = report(capsys, "rado", "check", "--matrix", str(path))
    assert rep["degenerate"] is True


def test_rado_empirical_and_solve(capsys, schur_mat):
    rep = report(capsys, "rado", "empirical", "--matrix", schur_mat,
                 "--colors", "2", "--horizon", "4")
    assert rep["verdict"] == "witness"
    assert rep["witness"]["colors"] == [0, 1, 1, 0]
    rep = report(capsys, "rado", "solve", "--matrix", schur_mat,
                 "--set", "all:13")
    assert rep["solution"] == [1, 1, 2]
    rep = report(capsys, "rado", "solve", "--matrix", schur_mat,
                 "--set", "odds:99")
    assert rep["solution"] is None


def test_rado_sweeps(capsys):
    rep = report(capsys, "rado", "schur-number", "--colors", "2", "--max", "10")
    assert rep["schur_number"] == 4 and rep["forced_at"] == 5
    rep = report(capsys, "rado", "vdw-number", "--colors", "2",
                 "--length", "3", "--max", "12")
    assert rep["vdw_number"] == 9 and rep["witness_at"] == 8


def test_mpc_commands(capsys):
    rep = report(capsys, "mpc", "gen", "--m", "1", "--p", "1", "--c", "2",
                 "--generators", "1,3")
    assert rep["values"] == [2, 5, 6, 7] and rep["row_count"] == 4
    rep = report(capsys, "mpc", "find", "--set", "all:25", "--m", "1",
                 "--p", "1", "--c", "1", "--bound", "25")
    assert rep["generators"] == [1, 2]
    rep = report(capsys, "mpc", "verify", "--set", "all:25", "--m", "1",
                 "--p", "1", "--c", "1", "--generators", "1,2")
    assert rep["contained"] is True
    rep = report(capsys, "mpc", "find", "--set", "odds:99", "--m", "1",
                 "--p", "1", "--c", "1", "--bound", "40")
    assert rep["generators"] is None


def test_fs_commands(capsys):
    rep = report(capsys, "fs", "enum", "--spec", "geom:1,2", "--k", "4")
    assert rep["window"]["members"] == list(range(1, 16))
    rep = report(capsys, "fs", "divisible", "--spec", "const:1",
                 "--horizon", "6", "--modulus", "3", "--count", "2")
    assert rep["alphas"] == [[1, 2, 3], [4, 5, 6]]
    assert rep["terms"] == [3, 3]
    rep = report(capsys, "fs", "zerosum", "--values", "1,2,3", "--modulus", "3")
    assert rep["indices"] == [1, 2] and rep["subset_sum"] == 3


def test_dyn_commands(capsys):
    rep = report(capsys, "dyn", "orbit", "--system", "rot:5/8", "--point", "0",
                 "--target", "arc:0,1/5", "--horizon", "16")
    assert rep["hits"] == [5, 8, 13, 16]
    assert rep["boundary_hits"] == [8, 16]
    rep = report(capsys, "dyn", "product", "--system-a", "rot:1/2",
                 "--system-b", "rot:1/3", "--point-a", "0", "--point-b", "0",
                 "--target-a", "arc:0,1/10", "--target-b", "arc:0,1/10",
                 "--horizon", "12")
    assert rep["hits"] == [6, 12]
    rep = report(capsys, "dyn", "density", "--set", "odds:100", "--window", "10")
    assert rep["estimate"] == "1/2"
    rep = report(capsys, "dyn", "gaps", "--set", "evens:100")
    assert rep["max_gap"] == 2
    rep = report(capsys, "dyn", "pws", "--set", "mod:0,3,99", "--shifts", "2",
                 "--length", "30")
    assert rep["contains_interval"] is True and rep["witness_start"] == 1
    rep = report(capsys, "dyn", "strauss", "--epsilon", "1/2", "--horizon", "8")
    assert rep["window"]["members"] == [2, 3, 5, 6, 7]
    assert rep["witnesses"] == [[0, 4], [1, 8]]


def test_dyn_orbit_accepts_product_and_shift_systems(capsys, tmp_path):
    via_orbit = report(
        capsys, "dyn", "orbit", "--system", "prod:(rot:1/2;rot:1/3)",
        "--point", "0;0", "--target", "arc:0,1/10;arc:0,1/10",
        "--horizon", "12",
    )
    assert via_orbit["hits"] == [6, 12]
    seq = tmp_path / "seq.txt"
    seq.write_text("110110110110110\n")
    rep = report(capsys, "dyn", "orbit", "--system", f"shift:file={seq}",
                 "--point", "0", "--target", "cyl:11", "--horizon", "10")
    assert rep["hits"] == [3, 6, 9]


def test_cst_search_verify_round_trip(capsys, tmp_path):
    rep = report(capsys, "cst", "search", "--set", "evens:200",
                 "--specs", "const:2", "--depth", "3", "--spec-horizon", "6")
    assert rep["verdict"] == "witness"
    wit_path = tmp_path / "wit.json"
    wit_path.write_text(json.dumps(rep))  # whole report is accepted too
    rep2 = report(capsys, "cst", "verify", "--set", "evens:200",
                  "--specs", "const:2", "--spec-horizon", "6",
                  "--witness", str(wit_path))
    assert rep2["accepted"] is True
    # a witness against the wrong window is rejected, not an error
    rep3 = report(capsys, "cst", "verify", "--set", "odds:199",
                  "--specs", "const:2", "--spec-horizon", "6",
                  "--witness", str(wit_path))
    assert rep3["accepted"] is False


def test_cst_search_absent_and_mpc(capsys):
    rep = report(capsys, "cst", "search", "--set", "odds:999",
                 "--specs", "const:1", "--depth", "2", "--spec-horizon", "6")
    assert rep["verdict"] == "absent"
    rep = report(capsys, "cst", "mpc", "--set", "evens:200", "--m", "0",
                 "--p", "1", "--c", "2")
    assert rep["verdict"] == "found"
    assert rep["generators"] == [1] and rep["values"] == [2]


def test_exit_codes(capsys, schur_mat):
    code, _ = invoke(capsys, "rado", "check", "--matrix", "no-such-file.mat")
    assert code == 1
    code, _ = invoke(capsys, "no-such-group")
    assert code == 1
    code, _ = invoke(capsys, "rado", "empirical", "--matrix", schur_mat,
                     "--colors", "2", "--horizon", "12", "--budget", "3")
    assert code == 2


def test_cst_search_with_huge_negative_terms_exits_two(capsys):
    code, out = invoke(capsys, "cst", "search", "--set", "odds:99",
                       "--specs", "const:-10000000000000000000", "--depth", "1",
                       "--spec-horizon", "3")
    assert code == 2
    assert json.loads(out)["verdict"] == "budget-exceeded"


def test_malformed_target_exits_one_without_output(capsys):
    for target in ("arc:0", "arc:1,2,3", "carc:1/2"):
        code = run(["dyn", "orbit", "--system", "rot:1/3", "--point", "0",
                    "--target", target, "--horizon", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "targets look like" in captured.err


@pytest.mark.parametrize("name", ["no-such-file.txt", "."])
def test_unreadable_shift_file_exits_one_without_traceback(name, tmp_path):
    """A missing file and a directory both end in the input error, in a
    fresh process, so an escaping exception would show its traceback."""
    src = os.path.dirname(os.path.dirname(ramseykit.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ramseykit.cli", "dyn", "orbit",
         "--system", f"shift:file={name}", "--point", "0",
         "--target", "cyl:01", "--horizon", "5"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"cannot read shift file {name!r}" in proc.stderr


def test_budget_verdict_payload(capsys, schur_mat):
    code, out = invoke(capsys, "rado", "empirical", "--matrix", schur_mat,
                       "--colors", "2", "--horizon", "12", "--budget", "3")
    assert code == 2
    assert json.loads(out)["verdict"] == "budget-exceeded"


def test_threads_flag_does_not_change_output(capsys, schur_mat):
    _, out1 = invoke(capsys, "rado", "check", "--matrix", schur_mat,
                     "--threads", "1")
    _, out2 = invoke(capsys, "rado", "check", "--matrix", schur_mat,
                     "--threads", "8")
    assert out1 == out2
    code, _ = invoke(capsys, "rado", "check", "--matrix", schur_mat,
                     "--threads", "0")
    assert code == 1


def test_plain_output(capsys):
    code, out = invoke(capsys, "dyn", "gaps", "--set", "evens:10", "--plain")
    assert code == 0
    assert "max_gap=2" in out
