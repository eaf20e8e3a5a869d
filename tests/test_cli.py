"""Command line behaviour: formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

import etamock
from etamock.cli import main, parse_complex, parse_rational, UsageError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_complex_forms():
    assert abs(parse_complex("1.5") - 1.5) < 1e-15
    assert abs(parse_complex("2i") - 2j) < 1e-15
    assert abs(parse_complex("0.5+2i") - (0.5 + 2j)) < 1e-15
    assert abs(parse_complex("-i") + 1j) < 1e-15
    assert abs(parse_complex("1/4") - 0.25) < 1e-15
    with pytest.raises(UsageError):
        parse_complex("spam")


def test_parse_complex_keeps_working_precision():
    # each part is read as a decimal at the working precision: through a
    # 53-bit float, 0.1 would be off by 5.6e-18 here
    with mp.workdps(40):
        z = parse_complex("0.1+0.3i")
        assert z.real == mpf("0.1") and z.imag == mpf("0.3")
        assert parse_complex("0.13-0.001i") == mpc(mpf("0.13"), -mpf("0.001"))
        assert parse_complex("1e-3i") == mpc(0, mpf("1e-3"))
        assert parse_complex("-2.5") == mpc(mpf("-2.5"))
        assert parse_complex("i") == mpc(0, 1)
        assert parse_complex("-i") == mpc(0, -1)
        assert parse_complex("4-i") == mpc(4, -1)
        assert parse_complex("1/3") == mpc(mpf(1) / 3)
    assert parse_complex("0.13+0.001i") == mpc(mpf("0.13"), mpf("0.001"))
    for text in ("1+", "1+2", "ii", "1e", "1i+2"):
        with pytest.raises(UsageError):
            parse_complex(text)


def test_parse_rational():
    assert parse_rational("-7/3") == Fraction(-7, 3)
    with pytest.raises(UsageError):
        parse_rational("x")


def test_eval_json_shape(capsys):
    code, out = run(capsys, "eval", "V", "1", "1", "--tau", "0+1.3i",
                    "--crosscheck")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["outputs"]["V"]) == {"re", "im"}
    assert doc["checks"][0]["passed"] is True
    assert doc["passed"] is True
    assert "wall" not in out


def test_json_is_deterministic(capsys):
    _, first = run(capsys, "verify", "theta", "--samples", "1", "--seed", "5")
    _, second = run(capsys, "verify", "theta", "--samples", "1", "--seed", "5")
    assert first == second


def test_rational_encoding(capsys):
    code, out = run(capsys, "quantum", "1", "1", "1/3")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["x"] == {"num": 1, "den": 3}
    assert doc["outputs"]["member"] is True
    assert doc["outputs"]["set"] == "S"
    assert len(doc["outputs"]["generators"]) == 2


def test_quantum_nonmember_has_no_value(capsys):
    code, out = run(capsys, "quantum", "1", "1", "2/3")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["member"] is False
    assert "value" not in doc["outputs"]


def test_catalogue_row_count(capsys):
    code, out = run(capsys, "catalogue")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["outputs"]["rows"]) == 59


def test_qexp_both_routes(capsys):
    code, out = run(capsys, "qexp", "e2", "--order", "12", "--both-routes")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["route_difference_terms"] == []
    assert doc["checks"][0]["name"] == "both expansion routes agree exactly"


def test_qexp_factors(capsys):
    code, out = run(capsys, "qexp", "--factors", "1:1", "--order", "2")
    assert code == 0
    doc = json.loads(out)
    terms = doc["outputs"]["terms"]
    assert terms[0]["exponent"] == {"num": 1, "den": 24}
    assert terms[0]["coefficient"] == {"num": 1, "den": 1}


@pytest.mark.parametrize("factors", ["1", "1:1,,2:1", "1:x", "1:2:3"])
def test_qexp_malformed_factors_is_usage_error(capsys, factors):
    code = main(["qexp", "--factors", factors])
    assert code == 2
    assert "scale:power" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["e2"], ["--both-routes"]])
def test_qexp_factors_take_no_label_or_second_route(capsys, extra):
    code = main(["qexp", "--factors", "1:1"] + extra)
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("order", ["0", "2"])
def test_qexp_bad_factor_is_domain_error_at_any_order(capsys, order):
    code = main(["qexp", "--factors", "0:1", "--order", order])
    assert code == 2
    assert capsys.readouterr().err.startswith("domain error:")


def test_qexp_bad_order_is_usage_error(capsys):
    code = main(["qexp", "e2", "--order", "x"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: not a rational number")


def test_unknown_label_is_usage_error(capsys):
    code = main(["eval", "e", "99", "--tau", "1.0i"])
    assert code == 2


def test_missing_argument_is_usage_error(capsys):
    code = main(["eval", "V", "1", "1"])
    assert code == 2


def test_impossible_tolerance_fails_cleanly(capsys):
    code, out = run(capsys, "--tol", "1e-30", "verify", "theta",
                    "--samples", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False


@pytest.mark.parametrize("suite, samples", [("vmn", "0"), ("vmn", "-3"), ("theta", "0")])
def test_no_samples_is_usage_error(capsys, suite, samples):
    # a suite that runs no check must not report a pass
    code = main(["verify", suite, "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: --samples must be at least 1" in captured.err


@pytest.mark.parametrize("argv", [
    ("eval", "eta", "--tau", "0.1+1.1i", "--crosscheck"),
    ("verify", "theta", "--samples", "1"),
])
def test_zero_tolerance_is_an_override(capsys, argv):
    # --tol 0 asks for exact agreement; it must not fall back to the default
    code, out = run(capsys, "--tol", "0", *argv)
    checks = json.loads(out)["checks"]
    assert checks and all(c["tolerance"] == 0.0 for c in checks)
    assert code == (0 if all(c["residual"] == 0 for c in checks) else 1)


@pytest.mark.parametrize("argv", [
    ("verify", "quantum-closure", "--samples", "1"),
    ("qexp", "e7", "--both-routes", "--order", "10"),
    ("quantum", "2", "1", "1/3"),
])
def test_tolerance_override_leaves_exact_checks_exact(capsys, argv):
    # --tol replaces the default of an approximate check only
    code, out = run(capsys, "--tol", "1", *argv)
    checks = json.loads(out)["checks"]
    assert code == 0
    assert checks and all(c["tolerance"] == 0.0 for c in checks)


@pytest.mark.parametrize("argv", [
    ("verify", "thm11", "--x", "1/3"),
    ("verify", "theta", "--m", "2"),
])
def test_suite_options_belong_to_the_suites_that_take_them(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: verify %s takes no --" % argv[1])


@pytest.mark.parametrize("argv", [
    ("V", "1", "1", "--x", "1/2"),
    ("mu", "--u", "0.3+0.4i", "--v", "0.1+0.2i", "--tau", "0.2+0.9i"),
    ("g", "--a", "1/4", "--b", "0", "--tau", "1i"),
    ("Etilde", "1", "--z", "0.1-0.3i"),
    ("Fhk", "--x", "1/3", "--m", "1"),
], ids=["V-at-x", "mu", "g", "Etilde", "Fhk"])
def test_crosscheck_without_second_route_is_usage_error(capsys, argv):
    code = main(["eval", *argv, "--crosscheck"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "--crosscheck" in captured.err


@pytest.mark.parametrize("argv, ignored", [
    (("eta", "5", "7", "--tau", "1i"), "5 7"),
    (("eta", "--tau", "1i", "--x", "3"), "--x"),
    (("g", "1", "--a", "1/4", "--b", "0", "--tau", "1i"), "1"),
    (("E", "3", "--tau", "1i", "--m", "5"), "--m"),
    (("Etilde", "2", "--z", "0.1-0.3i", "--tau", "1i"), "--tau"),
    (("V", "1", "1", "--tau", "1i", "--x", "1/2"), "--x"),
    (("Fhk", "--x", "3/7", "--m", "2", "--z1", "1/3"), "--z1"),
], ids=["eta-indices", "eta-x", "g-index", "E-m", "Etilde-tau", "V-tau-and-x",
        "Fhk-m-and-z1"])
def test_eval_input_the_function_ignores_is_usage_error(capsys, argv, ignored):
    code = main(["eval", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: eval %s takes" % argv[0])
    assert ignored.split()[0].lstrip("-") in captured.err


@pytest.mark.parametrize("argv", [
    ("e", "x", "--tau", "1i"),
    ("E", "1.5", "--tau", "1i"),
    ("Etilde", "one", "--z", "0.1-0.3i"),
    ("V", "1", "x", "--tau", "1i"),
])
def test_non_integer_index_is_usage_error(capsys, argv):
    code = main(["eval", *argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: eval %s takes" % argv[0])


def test_unknown_odd_index_names_the_index(capsys):
    code = main(["eval", "Etilde", "7", "--z", "0.1-0.3i"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "domain error: unknown eta-theta label ('odd', 7)")


def test_csv_format(capsys):
    code, out = run(capsys, "--format", "csv", "verify", "theta",
                    "--samples", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,name,value,tolerance,passed"
    assert any(line.startswith("check,") for line in lines[1:])


def test_plain_format_reports_wall_time(capsys):
    code, out = run(capsys, "--format", "plain", "eval", "eta",
                    "--tau", "0.1+1.2i")
    assert code == 0
    assert "wall time" in out


def test_global_flags_after_subcommand(capsys):
    code, out = run(capsys, "eval", "eta", "--tau", "1.0i",
                    "--format", "plain")
    assert code == 0
    assert "eta =" in out


@pytest.mark.parametrize("argv, code", [
    (["eval", "eta", "--tau", "1.0i"], 0),
    (["eval", "V", "1", "1"], 2),
    (["eval", "e", "99", "--tau", "1.0i"], 2),
], ids=["success", "usage-error", "domain-error"])
def test_main_restores_callers_precision(capsys, argv, code):
    with mp.workdps(20):
        assert main(["--precision", "30"] + argv) == code
        assert mp.dps == 20


def test_precision_below_floor_is_usage_error(capsys):
    assert main(["--precision", "10", "eval", "eta", "--tau", "1i"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_import_keeps_callers_precision():
    src = os.path.dirname(os.path.dirname(os.path.abspath(etamock.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "from mpmath import mp; mp.dps = 30; import etamock; print(mp.dps)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "30"
