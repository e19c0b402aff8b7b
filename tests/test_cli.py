"""End-to-end CLI tests: table contents, exit codes, serialization round trips."""

import csv
import io
import json
from fractions import Fraction

import pytest

from qvolkenborn.algebra import PoleError
from qvolkenborn.cli import main, parse_index_range, parse_q_spec, value_from_json
from qvolkenborn.padic import PrecisionExhausted
from qvolkenborn.qmeasure import QDescriptor
from qvolkenborn.qnumbers import beta_number, k_number, k_polynomial
from qvolkenborn.series import f_q_coefficient_partial

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# q-spec and range parsing
# ---------------------------------------------------------------------------

def test_parse_q_specs():
    assert parse_q_spec("sym").mode == "symbolic"
    assert parse_q_spec("sym:3").root_order == 3
    assert parse_q_spec("2/7").q_rational == F(2, 7)
    qd = parse_q_spec("padic:5:6:16")
    assert qd.mode == "padic" and qd.q_padic.p == 5 and qd.q_padic.prec == 16


def test_parse_index_ranges():
    assert parse_index_range("3") == [3]
    assert parse_index_range("0..4") == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# numbers
# ---------------------------------------------------------------------------

def test_numbers_symbolic_table(capsys):
    data = run_json(capsys, "numbers", "--kind", "K", "--n", "0..2", "--q", "sym")
    values = [value_from_json(r["value"]) for r in data["rows"]]
    sym = QDescriptor.symbolic()
    assert values == [k_number(n, sym) for n in range(3)]


def test_numbers_beta_zero(capsys):
    data = run_json(capsys, "numbers", "--kind", "beta", "--n", "0", "--q", "sym")
    assert value_from_json(data["rows"][0]["value"]) == 1


def test_numbers_rational_evaluation(capsys):
    data = run_json(capsys, "numbers", "--kind", "K", "--n", "1", "--q", "1/2")
    assert value_from_json(data["rows"][0]["value"]) == F(-2, 5)


def test_numbers_twisted(capsys):
    data = run_json(capsys, "numbers", "--kind", "K_chi", "--n", "0", "--q", "sym",
                    "--chi", "3:1")
    from qvolkenborn.characters import make_character
    from qvolkenborn.qnumbers import k_chi

    expected = k_chi(0, make_character(3, (1,)), QDescriptor.symbolic())
    assert value_from_json(data["rows"][0]["value"]) == expected


def test_numbers_missing_chi_is_usage_error(capsys):
    code, _, err = run(capsys, "numbers", "--kind", "K_chi", "--n", "0")
    assert code == 2 and "chi" in err


def test_numbers_at_q_minus_one_reports_a_pole(capsys):
    code, out, err = run(capsys, "numbers", "--kind", "K", "--n", "3", "--q", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: q = -1 is a pole") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["padic:5:1:32", "padic:5:3126:5"])
def test_padic_q_equal_to_one_at_its_precision_is_usage_error(capsys, spec):
    code, out, err = run(capsys, "numbers", "--kind", "K", "--n", "0..2", "--q", spec)
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad q spec {spec!r}: p-adic q must differ from 1")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_polynomials_closed_form(capsys):
    data = run_json(capsys, "polynomials", "--kind", "K_poly", "--n", "1",
                    "--x", "1", "--q", "sym")
    sym = QDescriptor.symbolic()
    assert value_from_json(data["rows"][0]["value"]) == k_polynomial(1, 1, sym)


def test_polynomials_fractional_x_needs_root_order(capsys):
    code, _, err = run(capsys, "polynomials", "--kind", "K_poly", "--n", "1",
                       "--x", "1/2", "--q", "sym")
    assert code == 2
    data = run_json(capsys, "polynomials", "--kind", "K_poly", "--n", "1",
                    "--x", "1/2", "--q", "sym:2")
    value = value_from_json(data["rows"][0]["value"])
    assert value.root_order == 2


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_constant(capsys):
    data = run_json(capsys, "integrate", "--kind", "fermionic", "--f", "one",
                    "--p", "5", "--q", "6")
    assert data["N_used"] == 2
    value = value_from_json(data["value"])
    assert (value - 1).valuation >= 25


def test_integrate_cube_matches_symbolic(capsys):
    data = run_json(capsys, "integrate", "--kind", "fermionic",
                    "--f", "bracket_pow:3", "--p", "5", "--q", "6",
                    "--stability", "6")
    value = value_from_json(data["value"])
    target = k_number(3, QDescriptor.symbolic()).evaluate(6)
    assert value.agrees_with(target, 6)
    trace = [v for _, v in data["trace"]]
    assert trace == sorted(trace)


def test_integrate_inadmissible_q_exits_2(capsys):
    code, _, err = run(capsys, "integrate", "--q", "2", "--p", "5")
    assert code == 2 and "inadmissible" in err


def test_integrate_ball_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("QVOLK_BALL_CAP", "10")
    code, out, err = run(capsys, "integrate", "--p", "5", "--q", "6")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cap of 10" in err and err.count("\n") == 1


def test_integrate_bad_ball_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QVOLK_BALL_CAP", "lots")
    code, _, err = run(capsys, "integrate", "--p", "5", "--q", "6")
    assert code == 2
    assert err.startswith("error: QVOLK_BALL_CAP") and err.count("\n") == 1


def test_integrate_non_convergence_exits_3(capsys):
    code, _, err = run(capsys, "integrate", "--kind", "fermionic",
                       "--f", "bracket_pow:3", "--p", "5", "--q", "6",
                       "--stability", "30", "--N-max", "3")
    assert code == 3
    assert "non-convergence" in err


def test_integral_form_non_convergence_exits_3(capsys):
    # two digits of q cannot reach the default stability of the integral form
    code, out, err = run(capsys, "polynomials", "--kind", "K_poly", "--n", "1",
                         "--x", "1", "--q", "padic:3:4:2", "--form", "integral")
    assert code == 3 and out == ""
    assert err.startswith("error: stability") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_suite(capsys):
    data = run_json(capsys, "verify", "--suite", "limits", "--n-max", "12")
    assert data["all_passed"] is True
    suite = data["suites"][0]
    euler_rows = [c for c in suite["cases"] if c["params"].get("check") == "euler"]
    assert len(euler_rows) == 13


def test_verify_even_m_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "distribution", "--m", "4")
    assert code == 2 and "odd" in err


def test_verify_negative_n_max_is_usage_error(capsys):
    # a negative bound would run no case at all, so it is refused up front
    code, out, err = run(capsys, "verify", "--suite", "kpoly-forms", "--n-max", "-1")
    assert code == 2 and out == ""
    assert err == "error: --n-max must be nonnegative, got -1\n"


def test_unreadable_character_id_is_usage_error(capsys):
    code, out, err = run(capsys, "numbers", "--kind", "K_chi", "--chi", "garbage", "--n", "1")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "'garbage'" in err and "f:e1,e2,..." in err


def test_verify_unknown_suite_rejected(capsys):
    # argparse rejects the flag value itself, exiting with the usage code
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "everything"])
    assert err.value.code == 2


def test_verify_full_default_run_passes(capsys):
    data = run_json(capsys, "verify")
    assert data["all_passed"] is True
    assert len(data["suites"]) == 10
    assert all(s["passed"] for s in data["suites"])


def test_verify_failure_exits_1(capsys, monkeypatch):
    from qvolkenborn import verify as verify_mod
    from qvolkenborn.verify import SuiteResult

    def broken(**_):
        suite = SuiteResult("limits")
        suite.add({"n": 0}, False, "forced failure")
        return suite

    monkeypatch.setitem(verify_mod.SUITES, "limits", broken)
    code, out, _ = run(capsys, "verify", "--suite", "limits")
    assert code == 1
    assert json.loads(out)["all_passed"] is False


@pytest.mark.parametrize("error", [PoleError, PrecisionExhausted])
def test_arithmetic_failures_exit_2(capsys, monkeypatch, error):
    from qvolkenborn import verify as verify_mod

    def failing(**_):
        raise error("no value here")

    monkeypatch.setitem(verify_mod.SUITES, "limits", failing)
    code, out, err = run(capsys, "verify", "--suite", "limits")
    assert code == 2 and out == ""
    assert err == "error: no value here\n"


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_series_euler_table(capsys):
    data = run_json(capsys, "series", "--gf", "euler", "--T", "4")
    values = [value_from_json(r["value"]) for r in data["rows"]]
    assert values == [F(1), F(-1, 2), F(0), F(1, 4), F(0)]


def test_series_fq_matches_numbers(capsys):
    data = run_json(capsys, "series", "--gf", "Fq", "--q", "sym", "--T", "3")
    sym = QDescriptor.symbolic()
    for row in data["rows"]:
        assert value_from_json(row["value"]) == k_number(row["n"], sym)


def test_series_fq_at_q_one_is_usage_error(capsys):
    code, _, _ = run(capsys, "series", "--gf", "Fq", "--q", "1", "--T", "3")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--gf", "euler", "--T", "-1"),
    ("--gf", "Fq", "--T", "-1"),
    ("--gf", "Kpartial", "--q", "1/2", "--k-max", "-1"),
    ("--gf", "Kpartial", "--q", "1/2", "--n-terms", "-1"),
])
def test_series_negative_order_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "series", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_series_partial_sums(capsys):
    data = run_json(capsys, "series", "--gf", "Kpartial", "--q", "1/2",
                    "--k-max", "2", "--n-terms", "50")
    for row in data["rows"]:
        ps = f_q_coefficient_partial(row["n"], F(1, 2), 50)
        assert value_from_json(row["value"]) == ps.value
        assert F(row["tail_bound"]) == ps.tail_bound


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_characters_listing(capsys):
    data = run_json(capsys, "characters", "--f", "5")
    rows = data["rows"]
    assert [r["chi"] for r in rows] == ["5:0", "5:1", "5:2", "5:3"]
    assert [int(value_from_json(r["value"])) for r in rows] == [1, 4, 2, 4]
    assert rows[0]["conductor"] == 1 and rows[0]["primitive"] is False
    assert rows[2]["conductor"] == 5 and rows[2]["primitive"] is True


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_csv_columns_pinned(capsys):
    code, out, _ = run(capsys, "numbers", "--kind", "K", "--n", "0..2",
                       "--q", "1/2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "n", "x", "m", "chi", "q_spec", "value"]
    assert rows[2][6] == "-2/5"


def test_json_round_trip_equals_recomputation(capsys, tmp_path):
    out_file = tmp_path / "table.json"
    code = main(["polynomials", "--kind", "beta_poly", "--n", "0..4",
                 "--x", "1/2", "--q", "sym:2", "--output", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    sym = QDescriptor.symbolic(2)
    from qvolkenborn.qnumbers import beta_polynomial

    for row in data["rows"]:
        fresh = beta_polynomial(row["n"], F(1, 2), sym)
        assert value_from_json(row["value"]) == fresh


def test_padic_value_round_trip(capsys, tmp_path):
    out_file = tmp_path / "run.json"
    code = main(["integrate", "--kind", "bosonic", "--f", "bracket_pow:1",
                 "--p", "5", "--q", "6", "--stability", "4",
                 "--output", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    value = value_from_json(data["value"])
    assert value.agrees_with(beta_number(1, QDescriptor.symbolic()).evaluate(6), 4)
