"""Command line behaviour: formats, determinism, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

import etamock
from etamock import qseries, theta
from etamock.cli import RunReport, main, parse_complex, parse_rational, UsageError


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


def _eta_crosscheck(capsys, tau):
    # |eta| from its printed parts, each a float or, below the float range, text
    code, out = run(capsys, "eval", "eta", "--tau", tau, "--crosscheck")
    doc = json.loads(out)
    check, = doc["checks"]
    return code, check, abs(mpc(*(mpf(doc["outputs"]["eta"][k]) for k in ("re", "im"))))


def test_eta_crosscheck_near_the_real_line(capsys):
    # the printed, folded eta against the lacunary sum, relative to |eta|:
    # here |eta| = 8.9e-5683, and the sum's rounding noise holds no digit of
    # it, so the check fails; eta and the tolerance, below the float range,
    # print as text.  Two unfolded routes here ran for half a minute and then
    # failed to converge
    code, check, size = _eta_crosscheck(capsys, "0.3+2e-7i")
    assert code == 1 and not check["passed"]
    assert mpf("8.8e-5683") < size < mpf("9e-5683") and 0 < check["residual"] < 1e-13
    assert mpf("1e-5696") < mpf(check["tolerance"]) < mpf("1e-5694")


def test_eta_crosscheck_fails_where_eta_is_below_the_noise(capsys):
    # |eta| = 1.3e-10 and the routes differ by about 1e-16, 1e-6 of |eta|
    code, check, size = _eta_crosscheck(capsys, "0.3+1e-4i")
    assert code == 1 and not check["passed"]
    assert check["tolerance"] == pytest.approx(1e-12 * float(size), rel=1e-12)
    assert check["residual"] > 1000 * check["tolerance"]


@pytest.mark.parametrize("tau", ["0.1+100i", "0.1+400i"])
def test_eta_crosscheck_far_above_the_real_line(capsys, tau):
    # eta(tau) = e_3(tau/24) with e(tau/24) about e^(-26) and e^(-105) here:
    # the sum is scaled at its first nonzero term, not at the zero term n = 0,
    # so it keeps its digits relative to |eta|
    code, check, size = _eta_crosscheck(capsys, tau)
    assert code == 0 and check["passed"]
    assert 0 < size and check["residual"] <= 1e-15 * size


def test_an_output_below_the_float_range_keeps_its_value():
    report = RunReport("test")
    report.outputs.update(z=mpc(mpf("2e-5000"), 0.5), x=mpf("-3e-5000"), y=mpf(0))
    outputs = report.as_dict()["outputs"]
    assert mpf(outputs["z"]["re"]) == mpf("2e-5000") and outputs["z"]["im"] == 0.5
    assert mpf(outputs["x"]) == mpf("-3e-5000") and outputs["y"] == 0.0
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert [mpf(row[2]) for row in rows[1:]] == [mpf("2e-5000"), 0.5, mpf("-3e-5000"), 0]
    assert "z = 2.0e-5000 +0.5i" in report.to_plain()


def test_a_tolerance_below_the_float_range_keeps_its_value():
    report = RunReport("test")
    report.add_check("passes", mpf("1e-5001"), mpf("1e-5000"))
    report.add_check("fails", mpf("2e-5000"), mpf("1e-5000"))
    report.add_check("exact", 0.0, 0.0)
    assert [c.passed for c in report.checks] == [True, False, True]
    checks = report.as_dict()["checks"]
    assert [mpf(c["tolerance"]) for c in checks[:2]] == [mpf("1e-5000")] * 2
    assert mpf(checks[0]["residual"]) == mpf("1e-5001")
    assert checks[2]["residual"] == checks[2]["tolerance"] == 0.0
    rows = list(csv.reader(io.StringIO(report.to_csv())))
    assert [mpf(row[3]) for row in rows[1:3]] == [mpf("1e-5000")] * 2
    assert "residual=1.0e-5001  tol=1.0e-5000" in report.to_plain()


def _clear_kernel_memos():
    qseries._eta_folded.cache_clear()
    theta._theta_folded.cache_clear()


def test_eval_V_all_equals_each_row_on_its_own(capsys):
    tau = "0.21+0.77i"
    _clear_kernel_memos()
    code, out = run(capsys, "eval", "V", "--all", "--tau", tau, "--crosscheck")
    assert code == 0
    doc = json.loads(out)
    rows = etamock.all_rows()
    assert list(doc["outputs"]) == ["V(%s,%d)" % row for row in rows]
    assert [c["name"] for c in doc["checks"]] == [
        "row (%s,%d) mu representation matches series representation" % row
        for row in rows]
    assert doc["passed"]
    for label, n in rows:
        # each row as a command of its own would compute it, memo cold
        _clear_kernel_memos()
        code, out = run(capsys, "eval", "V", label, str(n), "--tau", tau)
        assert code == 0
        assert json.loads(out)["outputs"]["V"] == doc["outputs"]["V(%s,%d)" % (label, n)]


@pytest.mark.parametrize("argv", [
    ("V", "1", "1", "--all", "--tau", "1i"),
    ("V", "--all", "--x", "1/3"),
    ("V", "--all", "--tau", "1i", "--x", "1/3"),
    ("eta", "--all", "--tau", "1i"),
], ids=["V-indices", "V-x", "V-tau-and-x", "eta"])
def test_eval_all_with_a_row_or_another_function_is_usage_error(capsys, argv):
    code = main(["eval", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: eval")


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


@pytest.mark.parametrize("m", ["4p", "4pp"])
def test_corollary_of_a_part_checks_its_familys_companion_sums(capsys, m):
    # the same two checks as --m 4
    code, out = run(capsys, "verify", "corollary", "--m", m, "--x", "1/3")
    assert code == 0
    assert [check["name"] for check in json.loads(out)["checks"]] == [
        "quadrature matches finite hypergeometric sum", "four-term companion sums cancel at 1/3"]


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


def test_stray_label_alias_is_usage_error(capsys):
    code = main(["eval", "V", "4page", "1", "--tau", "0.1+1i"])
    assert code == 2
    assert "unknown label '4page'" in capsys.readouterr().err


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
    # the vmn suite's check names hold commas, as in "row (5,7)"
    code, out = run(capsys, "--format", "csv", "verify", "vmn", "--samples", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert any("," in row[1] for row in rows[1:])
    assert all(len(row) == 5 for row in rows)


def test_unknown_label_prefix_is_domain_error(capsys):
    code = main(["qexp", "x7", "--order", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("domain error: unknown eta-theta label 'x7'")


def test_series_that_does_not_converge_is_domain_error(capsys):
    # the partial theta at Im z = -1e-12 would need far more terms than
    # core.SIDE_CAP: a domain error, not a failed check or a traceback
    code = main(["eval", "Etilde", "1", "--z", "0.1-1e-12i"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "domain error: partial theta failed to converge\n"


def test_r_past_the_side_cap_is_a_prompt_domain_error(capsys):
    # at Im tau = 1e-9, mu's R(u - v; tau) would need more than core.SIDE_CAP
    # terms a side: it raises before its first erfc, not after seconds of them
    start = time.perf_counter()
    code = main(["eval", "mu", "--u", "0.2+3e-10i", "--v", "0.1+1e-10i", "--tau", "0.13+1e-9i"])
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "domain error: R series failed to converge\n"


@pytest.mark.parametrize("argv, name, value", [
    (["eval", "eta"], "--tau", "-0.4+0.5i"),
    (["eval", "eta"], "--tau", "-.4+.5i"),
    (["eval", "theta", "--tau", "0.1+1.1i"], "--v", "-i"),
    (["eval", "V", "1", "1"], "--x", "-1/3"),
])
def test_negative_option_values_are_values(capsys, argv, name, value):
    # "--opt -v" reads as "--opt=-v": a negative value is not an option
    code, out = run(capsys, *argv, name, value)
    assert code == 0
    assert run(capsys, *argv, name + "=" + value) == (code, out)


@pytest.mark.parametrize("x", ["-1/3", "-5/3"])
def test_negative_positional_rational(capsys, x):
    code, out = run(capsys, "quantum", "1", "1", x)
    assert code == 0
    assert json.loads(out)["inputs"]["x"] == {"num": int(x.split("/")[0]), "den": 3}


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
