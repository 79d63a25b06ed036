import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defring
from defring.cli import main
from helpers import CORPUS, read_corpus

KX2 = str(CORPUS / "kx2_f5.alg")
KX3 = str(CORPUS / "kx3_f5.alg")
KX2_F2 = str(CORPUS / "kx2_f2.alg")
KX2_Q = str(CORPUS / "kx2_q.alg")
LOOP_Q = str(CORPUS / "loop_free_q.alg")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", KX2)
    assert code == 0
    assert "field: F_5" in out
    assert "algebra: dimension 2" in out
    assert "module V: ok" in out


def test_check_flags_bad_module(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text(
        read_corpus("kx2_f5.alg").replace(
            "module V\n  dim v = 1\n  mat x = [[0]]",
            "module V\n  dim v = 1\n  mat x = [[1]]",
        )
    )
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert "VIOLATES" in out


def test_check_hereditary_note(capsys):
    code, out, _ = run(capsys, "check", LOOP_Q)
    assert code == 0
    assert "hereditary" in out


def test_hom_output(capsys):
    code, out, _ = run(capsys, "hom", KX2, "-m", "P1", "-n", "V")
    assert code == 0
    assert "dim Hom = 1" in out
    assert "basis element 1" in out


def test_ext_backends(capsys):
    code, out, _ = run(capsys, "ext", KX2, "-m", "V", "--backend", "all")
    assert code == 0
    assert out.strip() == "1 (all backends agree)"
    code, out, _ = run(capsys, "ext", KX2, "-m", "V")
    assert code == 0
    assert out.strip() == "1"


def test_ext_hereditary_backend_on_truncated_input(capsys):
    code, _, err = run(capsys, "ext", KX2, "-m", "V", "--backend", "hereditary")
    assert code == 1
    assert err


def test_hereditary_backend_error_names_both_conditions():
    # kx2_f5 has no relations, but its truncate bound kills x*x, which rules out the closed form
    env = dict(os.environ, PYTHONPATH=str(Path(defring.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "defring", "ext", KX2, "-m", "V",
                           "--backend", "hereditary"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ("error: closed form only valid with no relations"
                           " and no path as long as the truncate bound\n")
    assert "Traceback" not in proc.stderr


def test_stable_end(capsys):
    code, out, _ = run(capsys, "stable-end", KX2, "-m", "V")
    assert code == 0
    assert "dim stable End = 1" in out


def test_ladder_output(capsys):
    code, out, _ = run(capsys, "ladder", KX3, "-m", "V")
    assert code == 0
    assert "search: terminated at order 2" in out
    assert "obstruction at order 3: rank 0, augmented rank 1" in out
    assert "order 1 coefficients:" in out
    assert "certificate: ok" in out
    assert "stands for no other chain" not in out
    code, out, _ = run(capsys, "ladder", KX2, "-m", "VV")
    assert code == 0
    assert "stands for no other chain" in out


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", KX2, "-m", "V")
    assert code == 0
    assert "verdict: R^w ≅ k[[t]]/(t^2) (proved)\n" in out
    assert "tangent dimension: 1" in out
    code, out, _ = run(capsys, "classify", KX2_Q, "-m", "V")
    assert code == 0
    assert "verdict: R^w ≅ k[[t]]/(t^2) (not proved)\n" in out


def test_classify_point_text(capsys):
    code, out, _ = run(capsys, "classify", KX2, "-m", "P1")
    assert code == 0
    assert "verdict: R^w ≅ k" in out
    assert "no first-order deformations" in out


@pytest.mark.parametrize("module", ["V", "P1", "VV"])
def test_classify_rejects_max_order_zero_for_every_module(capsys, module):
    # tangent dimension 1, 0 and 2: only V reaches the ladder search
    code, out, err = run(capsys, "classify", KX2, "-m", module, "--max-order", "0")
    assert (code, out) == (1, "")
    assert err == "error: max_order must be at least 1, got 0\n"


def test_ladder_rejects_max_order_zero_before_printing(capsys):
    code, out, err = run(capsys, "ladder", KX2, "-m", "V", "--max-order", "0")
    assert (code, out) == (1, "")
    assert err == "error: max_order must be at least 1, got 0\n"


def test_classify_json_round_trip(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "classify", KX2, "-m", "V", "--json", str(out_path))
    assert code == 0
    blob = json.loads(out_path.read_text())
    assert blob["verdict"]["type"] == "finite"
    code, out, _ = run(capsys, "verify", KX2, "-m", "V", "--json", str(out_path))
    assert code == 0
    assert "ok" in out


def test_classify_json_byte_identical(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "classify", KX2, "-m", "PV", "--json", str(a))
    run(capsys, "classify", KX2, "-m", "PV", "--json", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("where", ["missing/dir/report.json", "."])
def test_classify_json_to_an_unwritable_path_is_an_input_error(capsys, tmp_path, where):
    # a missing parent directory raises FileNotFoundError, a directory IsADirectoryError
    target = tmp_path / where
    code, _, err = run(capsys, "classify", KX2, "-m", "V", "--json", str(target))
    assert code == 1
    assert err.startswith(f"error: {target}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_rejects_tampering(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    run(capsys, "classify", KX2, "-m", "V", "--json", str(out_path))
    data = json.loads(out_path.read_text())
    data["verdict"]["N"] = 3
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", KX2, "-m", "V", "--json", str(out_path))
    assert code == 1
    assert "FAILED" in out


def test_oracle_output(capsys):
    code, out, _ = run(capsys, "oracle", KX2_F2, "-m", "V", "--order", "2")
    assert code == 0
    assert "total points: 4" in out
    assert "valid points: 2" in out
    assert "valid: (0, 0)" in out


def test_oracle_needs_prime_field(capsys):
    code, _, err = run(capsys, "oracle", KX2_Q, "-m", "V", "--order", "1")
    assert code == 1
    assert err


def test_oracle_budget_exhaustion(capsys):
    code, _, err = run(capsys, "oracle", KX2_F2, "-m", "V", "--order", "30", "--budget", "10")
    assert code == 2
    assert "budget" in err.lower()



@pytest.mark.parametrize("order", ["0", "-1"])
def test_oracle_rejects_orders_below_one(capsys, order):
    code, out, err = run(capsys, "oracle", KX2, "-m", "P1", "--order", order)
    assert code == 1 and not out
    assert err == f"error: order must be at least 1, got {order}\n"

def test_search_knobs_are_usage_errors(capsys):
    for command in ("classify", "ladder"):
        for flag in ("--point-budget", "--branch-budget", "--strategy"):
            with pytest.raises(SystemExit) as exc:
                main([command, KX2, "-m", "V", flag, "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


def test_classify_on_rationals_needs_no_strategy(capsys):
    code, out, err = run(capsys, "classify", KX2_Q, "-m", "V")
    assert code == 0 and not err
    assert "R^w ≅ k[[t]]/(t^2)" in out
    assert "prime fields only" in out


def test_parse_error_location(capsys, tmp_path):
    bad = tmp_path / "syntax.alg"
    bad.write_text("field F 5\nquiver\n  vertex v\nwat\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert f"{bad}:4" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "no_such_file.alg")
    assert code == 1
    assert err


def test_unknown_module(capsys):
    code, _, err = run(capsys, "classify", KX2, "-m", "nope")
    assert code == 1
    assert "nope" in err


def test_module_flag_required_when_ambiguous(capsys):
    code, _, err = run(capsys, "classify", KX2)
    assert code == 1
    assert "module" in err.lower()


NO_MODULE = "field F 5\nquiver\n  vertex v\n  arrow x: v -> v\ntruncate 3\n"
TWO_MODULES = NO_MODULE + "module A\n  dim v = 1\nmodule B\n  dim v = 2\n"
PICKING_COMMANDS = [["classify"], ["ladder"], ["hom"], ["ext"], ["stable-end"],
                    ["oracle", "--order", "1"], ["verify", "--json"]]


def _run_without_flag(capsys, tmp_path, text, command):
    path = tmp_path / "input.alg"
    path.write_text(text, encoding="utf-8")
    report = tmp_path / "report.json"
    report.write_text("{}", encoding="utf-8")
    argv = [command[0], str(path)] + command[1:]
    return run(capsys, *argv, *([str(report)] if command[0] == "verify" else []))


@pytest.mark.parametrize("command", PICKING_COMMANDS)
def test_file_without_modules_is_an_input_error(capsys, tmp_path, command):
    code, out, err = _run_without_flag(capsys, tmp_path, NO_MODULE, command)
    assert code == 1
    assert err == "error: the file declares no module\n"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("command", PICKING_COMMANDS)
def test_file_with_two_modules_needs_the_flag(capsys, tmp_path, command):
    code, _, err = _run_without_flag(capsys, tmp_path, TWO_MODULES, command)
    assert code == 1
    assert err == "error: several modules in the file; pick one with -m\n"


def test_single_module_file_needs_no_flag(capsys):
    code, out, _ = run(capsys, "classify", str(CORPUS / "kx3_q.alg"))
    assert code == 0
    assert "verdict" in out


def test_closed_pipe_exits_without_traceback(tmp_path):
    # Hom of a 16-dimensional module with x = 0 is all 256 matrices: about
    # 145 KB of output, more than a pipe holds, so the command is still
    # writing when the reader closes its end after the first line
    zero = "[" + ", ".join(["[" + ", ".join(["0"] * 16) + "]"] * 16) + "]"
    big = tmp_path / "big.alg"
    big.write_text(f"field Q\nquiver\n  vertex v\n  arrow x: v -> v\n\n"
                   f"module W\n  dim v = 16\n  mat x = {zero}\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(defring.__file__).resolve().parent.parent))
    with subprocess.Popen([sys.executable, "-m", "defring", "hom", str(big)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"dim Hom = 256\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_verify_module_violating_relations_exits_without_traceback(capsys, tmp_path):
    report = tmp_path / "report.json"
    run(capsys, "classify", KX3, "-m", "V", "--json", str(report))
    bad = tmp_path / "bad.alg"
    bad.write_text(read_corpus("kx3_f5.alg").replace("mat x = [[0]]", "mat x = [[1]]"),
                   encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(defring.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "defring", "verify", str(bad), "-m", "V",
                           "--json", str(report)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1
    assert "module_satisfies_relations: FAILED" in proc.stdout
    assert "Traceback" not in proc.stderr
