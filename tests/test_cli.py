"""CLI contract: flags, formats, exit codes, and canonical JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superschur
from superschur.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- char ---------------------------------------------------------------------


def test_char_trivial_module(capsys):
    code, out, _ = run(capsys, "char", "--m", "1", "--n", "1",
                       "--weight", "0;0", "--method", "suzhang")
    assert code == 0
    assert out.strip() == "1"


def test_char_typical_with_a_huge_exponent(capsys):
    # exponents near 2*10**21 need packed fields far wider than 8 bytes
    code, out, _ = run(capsys, "char", "--m", "1", "--n", "1",
                       "--weight", "1000000000000000000000;0",
                       "--method", "typical")
    assert code == 0
    assert out.strip() == ("x1^1000000000000000000000"
                           " + x1^999999999999999999999*y1")


def test_char_emit_matrix_golden(capsys):
    code, out, _ = run(capsys, "char", "--m", "3", "--n", "2",
                       "--weight", "3,2,-1;-1,-1", "--method", "jt",
                       "--emit-matrix")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "matrix:"
    assert lines[1].split() == ["hbar_3", "h_2", "h_0"]
    assert lines[2].split() == ["hbar_2", "h_3", "h_1"]
    assert lines[3].split() == ["hbar_1", "h_4", "h_2"]
    assert "entries:" in lines and "character:" in lines


def test_emit_matrix_is_refused_before_any_character(capsys, monkeypatch):
    # only the jt route computes its character from the matrix, and a
    # weight without a constant delta-part has no matrix: both are input
    # errors, raised before a character is computed
    from superschur import cli
    computed = []
    monkeypatch.setattr(cli, "character",
                        lambda *args: computed.append(args) or 0)
    for method in ("all", "suzhang"):
        code, out, err = run(capsys, "char", "--m", "3", "--n", "2",
                             "--weight", "3,2,-1;-1,-1", "--method", method,
                             "--emit-matrix")
        assert (code, out) == (1, "")
        assert "--emit-matrix needs --method jt" in err
    code, out, err = run(capsys, "char", "--m", "2", "--n", "2",
                         "--weight", "1,0;0,-1", "--method", "jt",
                         "--emit-matrix")
    assert (code, out) == (1, "")
    assert "delta-part is not constant" in err
    assert computed == []


def test_char_method_all_agrees_on_golden(capsys):
    code, out, _ = run(capsys, "char", "--m", "3", "--n", "2",
                       "--weight", "3,2,-1;-1,-1", "--method", "all")
    assert code == 0
    assert "agree: yes" in out
    assert "n/a" not in out  # every route applies to the golden weight


def test_char_method_all_with_inapplicable_routes(capsys):
    # non-constant delta-part: jt and typical do not apply, the two
    # remaining routes agree, so the exit code is still 0
    code, out, _ = run(capsys, "char", "--m", "3", "--n", "2",
                       "--weight", "1,0,-1;-1,-2", "--method", "all",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["routes"]["jt"] == "n/a"
    assert payload["routes"]["typical"] == "n/a"
    assert payload["routes"]["suzhang"] != "n/a"
    assert payload["routes"]["reduction"] == payload["routes"]["suzhang"]
    assert payload["agree"] is True


# every kind of JSON payload that holds polynomials
JSON_COMMANDS = [
    ("char", "--m", "2", "--n", "1", "--weight", "2,1;0", "--method", "jt"),
    ("char", "--m", "3", "--n", "2", "--weight", "1,0,-1;-1,-2",
     "--method", "all"),
    ("char", "--m", "3", "--n", "2", "--weight", "3,2,-1;-1,-1",
     "--method", "jt", "--emit-matrix"),
    ("schur", "--m", "3", "--n", "2", "--composite", "2,1|1"),
]


def test_char_json_is_canonical(capsys):
    for argv in JSON_COMMANDS:
        args = argv + ("--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        if argv[0] == "char":
            assert payload["weight"] == argv[argv.index("--weight") + 1]
        assert out1 == json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")) + "\n"


def test_char_json_without_x_variables(capsys):
    # with an empty x block, no comma goes before the y entries
    code, out, err = run(capsys, "char", "--m", "0", "--n", "2",
                         "--weight", ";1,0", "--method", "suzhang",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert out == ('{"character":{"arity":[0,2],"terms":['
                   '{"coeff":"1","exp2":[2,0]},{"coeff":"1","exp2":[0,2]}]},'
                   '"method":"suzhang","weight":";1,0"}\n')


def test_closed_output_pipe_exits_one_without_a_traceback():
    # the reader of the CLI's output is gone before it writes a byte
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ,
               PYTHONPATH=str(Path(superschur.__file__).parent.parent))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "superschur.cli", "char", "--m", "1",
             "--n", "1", "--weight", "0;0", "--method", "suzhang"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


# -- input errors → exit 1 -------------------------------------------------------


def test_non_dominant_weight_exits_one(capsys):
    code, _, err = run(capsys, "char", "--m", "2", "--n", "1",
                       "--weight", "0,1;0")
    assert code == 1
    assert "error:" in err and "dominant" in err


def test_jt_honours_cap(capsys):
    code, _, err = run(capsys, "char", "--m", "2", "--n", "1",
                       "--weight", "1,0;0", "--cap", "-5")
    assert code == 1
    assert "cap" in err


def test_reduction_violation_message(capsys):
    code, _, err = run(capsys, "char", "--m", "2", "--n", "1",
                       "--weight", "1,0;-3", "--method", "reduction")
    assert code == 1
    assert "0 <= k <= m violated" in err


def test_malformed_weight_exits_one(capsys):
    code, _, err = run(capsys, "char", "--m", "2", "--n", "1",
                       "--weight", "1,0,0")
    assert code == 1
    assert "error:" in err


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "char", "--m", "1", "--n", "1",
                       "--weight", "0;0", "--bogus")
    assert code == 1


def test_cap_flag_exits_one_when_exceeded(capsys):
    code, _, err = run(capsys, "char", "--m", "3", "--n", "2",
                       "--weight", "1,0,-1;-1,-2", "--method", "suzhang",
                       "--cap", "1")
    assert code == 1
    assert "cap" in err


def test_internal_failure_exits_one(capsys, monkeypatch):
    # a class coefficient not divisible by r! is an arithmetic error,
    # reported as such rather than as a traceback
    from superschur import characters
    monkeypatch.setattr(characters, "_expand_alternating",
                        lambda acc, m, n: {(0,) * (m + n): 1})
    code, _, err = run(capsys, "char", "--m", "3", "--n", "2",
                       "--weight", "1,0,-1;-1,-2", "--method", "suzhang")
    assert code == 1
    assert "error:" in err and "non-integral" in err


def test_non_integral_coefficient_names_the_greatest_term(capsys):
    # at r = 3 the alternating sum is not divisible by 3! here; the
    # representatives are checked in descending term order, so the
    # message names the greatest offending term
    code, out, err = run(capsys, "char", "--m", "3", "--n", "3",
                         "--weight", "1,0,-1;1,0,-1", "--method", "suzhang")
    assert code == 1
    assert out == ""
    assert err == "error: non-integral coefficient at (-2, -2, -2, 2, 2, 2)\n"


# -- dim --------------------------------------------------------------------------


def test_dim_golden(capsys):
    code, out, _ = run(capsys, "dim", "--m", "3", "--n", "2",
                       "--weight", "3,2,-1;-1,-1")
    assert code == 0
    assert out.strip() == "1536"


def test_dim_trivial(capsys):
    code, out, _ = run(capsys, "dim", "--m", "2", "--n", "2",
                       "--weight", "0,0;0,0", "--method", "suzhang")
    assert code == 0
    assert out.strip() == "1"


def test_dim_gl54(capsys):
    code, out, _ = run(capsys, "dim", "--m", "5", "--n", "4",
                       "--weight", "3,2,1,0,-2;-2,-2,-2,-2")
    assert code == 0
    assert out == "640569600\n"


def test_dim_refuses_a_non_constant_delta_part(capsys):
    code, out, err = run(capsys, "dim", "--m", "2", "--n", "2",
                         "--weight", "1,0;0,-1")
    assert code == 1
    assert out == ""
    assert err == "error: delta-part is not constant\n"


# -- schur ---------------------------------------------------------------------------


def test_schur_known_expansion(capsys):
    code, out, _ = run(capsys, "schur", "--m", "1", "--n", "1",
                       "--composite", "1|0")
    assert code == 0
    assert out.strip() == "y1^-1 + x1^-1"


def test_schur_rejects_non_standard(capsys):
    code, _, err = run(capsys, "schur", "--m", "1", "--n", "1",
                       "--composite", "1|1")
    assert code == 1
    assert "l(nu) + l(mu) <= m violated" in err


def test_schur_rejects_non_super_standard(capsys):
    code, _, err = run(capsys, "schur", "--m", "3", "--n", "1",
                       "--composite", "2,2,2|1")
    assert code == 1
    assert "<= n violated" in err


# -- verify ---------------------------------------------------------------------------


def test_verify_single_suite_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rho",
                       "--grid", "m<=3,n<=2")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "rho"
    assert report["cases"] > 0
    assert report["failures"] == []


def test_verify_report_is_byte_identical(capsys):
    args = ("verify", "--suite", "raise-oracle", "--grid",
            "m<=2,n<=2,entry<=2", "--seed", "11")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_bad_grid_exits_one(capsys):
    code, _, err = run(capsys, "verify", "--suite", "rho",
                       "--grid", "m=3")
    assert code == 1
    assert "bad grid clause" in err


def test_verify_reports_every_failing_case_sorted(capsys, monkeypatch):
    from superschur import verify
    monkeypatch.setattr(verify, "su_zhang_char", lambda w: None)
    code, out, _ = run(capsys, "verify", "--suite", "jt-vs-oracle",
                       "--grid", "m<=1,n<=1,entry<=1")
    assert code == 1
    report = json.loads(out)
    assert report["cases"] == 9
    assert report["failures"] == sorted(
        f"m=1,n=1,w={a};{b}" for a in (1, 0, -1) for b in (1, 0, -1))


@pytest.mark.parametrize("suite,grid,named", [
    ("jt-vs-oracle", "m<=0", "jt-vs-oracle"),
    ("rho", "n<=0", "rho"),
    ("raise-oracle", "n<=0", "n<=0"),
    ("raise-oracle", "entry<=-1", "entry<=-1"),
])
def test_verify_fails_when_a_suite_checks_nothing(capsys, suite, grid, named):
    code, _, err = run(capsys, "verify", "--suite", suite, "--grid", grid)
    assert code == 1
    assert err.startswith("error:") and named in err
