"""End-to-end CLI tests: table contents, exit codes, serialization round trips."""

import contextlib
import csv
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvolkenborn import cli
from qvolkenborn.algebra import (CyclotomicElement, PoleError, RationalFunction,
                                 root_of_unity_rows)
from qvolkenborn.cli import (build_parser, main, parse_index_range, parse_q_spec,
                             value_from_json, value_to_json)
from qvolkenborn.padic import (PadicNumber, PrecisionExhausted, ProfiniteDomain,
                               padic_from_rational)
from qvolkenborn.qmeasure import (BOSONIC, FERMIONIC, MeasureSpec, QDescriptor,
                                  bracket_power, integrate)
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


def test_main_calls_share_one_parser_without_interacting(capsys):
    # the first call sets --format csv; the others rely on the json default
    commands = [("numbers", "--kind", "K", "--n", "0..2", "--q", "2/5", "--format", "csv"),
                ("series", "--gf", "Kpartial", "--q", "1/2", "--k-max", "2", "--n-terms", "5"),
                ("polynomials", "--kind", "beta_poly", "--n", "1", "--x", "-2", "--q", "sym")]
    alone = {}
    for argv in commands:
        build_parser.cache_clear()
        alone[argv] = run(capsys, *argv)
        assert alone[argv][0] == 0
    build_parser.cache_clear()
    for argv in commands + commands[::-1]:
        assert run(capsys, *argv) == alone[argv]
    assert build_parser.cache_info().misses == 1


# ---------------------------------------------------------------------------
# q-spec and range parsing
# ---------------------------------------------------------------------------

def test_parse_q_specs():
    assert parse_q_spec("sym").mode == "symbolic"
    assert parse_q_spec("sym:3").root_order == 3
    assert parse_q_spec("2/7").value == F(2, 7)
    qd = parse_q_spec("padic:5:6:16")
    assert qd.mode == "padic" and qd.value.p == 5 and qd.value.prec == 16


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


def test_a_twisted_row_names_its_character_by_its_id(capsys):
    # the chi cell is the character's one spelling, not the text as typed
    data = run_json(capsys, "numbers", "--kind", "K_chi", "--n", "0", "--chi", "05:+1")
    assert data["rows"][0]["chi"] == "5:1"


def test_cyclotomic_value_reads_back_from_json():
    from qvolkenborn.characters import make_character
    from qvolkenborn.qnumbers import k_chi

    value = k_chi(3, make_character(5, (1,)), QDescriptor.symbolic())
    assert value_from_json(json.loads(json.dumps(value_to_json(value)))) == value


_FRACTIONS = st.fractions(-50, 50, max_denominator=20)


@st.composite
def _rational_functions(draw, root_order):
    """(c_0 + c_1 w + c_2 w^2) / (w^a (1 + w^j)) at the given root order."""
    w = RationalFunction.w_power(1, root_order)
    num = sum((draw(_FRACTIONS) * w ** i for i in range(3)), w * 0)
    return num / (w ** draw(st.integers(0, 2)) * (1 + w ** draw(st.integers(1, 4))))


@st.composite
def _cyclotomic_elements(draw):
    order, root_order = draw(st.sampled_from([3, 4, 5, 8, 12])), draw(st.sampled_from([1, 2]))
    coords = st.lists(_rational_functions(root_order), max_size=len(root_of_unity_rows(order)[0]))
    return CyclotomicElement(order, draw(coords))


# every kind of value the CLI writes: a rational, a rational function at
# D = 1 and D = 2, a p-adic number (zero at precision when r = 0) and a
# cyclotomic element (zero when it has no coordinates)
_VALUES = (_FRACTIONS | _rational_functions(1) | _rational_functions(2)
           | st.builds(padic_from_rational, _FRACTIONS, st.sampled_from([3, 5, 7]),
                       st.integers(1, 12))
           | _cyclotomic_elements())


@settings(max_examples=200, deadline=None)
@given(value=_VALUES)
@example(value=PadicNumber.zero_at_precision(5, 9))
@example(value=CyclotomicElement(4, []))
@example(value=CyclotomicElement(8, [0, F(-1, 3), 0, 2]))
def test_every_value_round_trips_and_prints_without_a_class_name(value):
    assert value_from_json(json.loads(json.dumps(value_to_json(value)))) == value
    assert not any(name in str(value) for name in
                   ("Fraction", "RationalFunction", "Polynomial", "PadicNumber",
                    "CyclotomicElement"))


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
    assert (data["N_used"], data["stability"]) == (6, 6)
    assert value_from_json(data["value"]).agrees_with(1, 6)


def test_integrate_cube_matches_symbolic(capsys):
    data = run_json(capsys, "integrate", "--kind", "fermionic",
                    "--f", "bracket_pow:3", "--p", "5", "--q", "6",
                    "--stability", "6")
    value = value_from_json(data["value"])
    target = k_number(3, QDescriptor.symbolic()).evaluate(6)
    # the value claims exactly the certified digits, and each of them is right
    assert value.absolute_precision == data["stability"] >= 6
    assert value.agrees_with(target, value.absolute_precision)


@pytest.mark.parametrize("n", ["0", "1", "2"])
def test_integrate_twist_off_the_domain_exits_2(capsys, n):
    argv = ("integrate", "--kind", "fermionic", "--p", "5", "--q", "6",
            "--f", f"char_twisted:{n}:3:1", "--stability", "2")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "does not divide d = 1" in err
    assert err.count("\n") == 1
    data = run_json(capsys, *argv, "--d", "3")
    assert data["d"] == 3 and data["stability"] >= 2


def test_integrate_inadmissible_q_exits_2(capsys):
    code, _, err = run(capsys, "integrate", "--q", "2", "--p", "5")
    assert code == 2 and "inadmissible" in err


def test_integrate_has_no_ball_budget(capsys, monkeypatch):
    # the variable that once capped the representatives per level is ignored
    monkeypatch.setenv("QVOLK_BALL_CAP", "10")
    assert run_json(capsys, "integrate", "--p", "5", "--q", "6")["N_used"] == 6
    # level 9 over d = 3 has 5,859,375 representatives and is one geometric sum
    data = run_json(capsys, "integrate", "--p", "5", "--q", "6", "--d", "3",
                    "--f", "char_twisted:3:3:1", "--stability", "9", "--N-max", "10")
    assert (data["N_used"], data["stability"]) == (9, 9)


def test_non_convergence_report_lists_every_difference_valuation(capsys):
    # the level a target needs is known before any sum, and named in one line
    code, out, err = run(capsys, "integrate", "--p", "5", "--q", "6", "--f", "bracket_pow:3",
                         "--stability", "30", "--N-max", "5")
    assert code == 2 and out == ""
    assert err == "error: stability 30 needs level 30, past n_max = 5\n"


@pytest.mark.parametrize("argv, message", [
    (("--p", "5", "--q", "6", "--f", "bracket_pow:3", "--stability", "32", "--N-max", "40"),
     "stability 32 not reached: level 32 claims 31 digits"),
    (("--kind", "bosonic", "--p", "5", "--q", "6", "--A", "6", "--f", "bracket_pow:2",
      "--stability", "5"),
     "stability 5 not reached: the level-6 normalizer vanishes at q's precision A = 6"),
    (("--kind", "bosonic", "--p", "3", "--q", "4", "--A", "16", "--f", "bracket_pow:3",
      "--stability", "10", "--N-max", "20"),
     "stability 10 not reached: level 11 claims 4 digits"),
], ids=["fermionic", "bosonic-level-1", "bosonic-level-6"])
def test_integrate_stops_at_the_first_level_short_of_the_target(capsys, argv, message):
    # the one level a target needs may claim fewer digits than it:
    # fermionic sums claim A - v_p(1 - q) digits, bosonic ones one fewer at each
    # deeper level, and none once [d p^N]_q vanishes at q's precision
    code, out, err = run(capsys, "integrate", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_integrate_claims_no_digit_the_limit_lacks(capsys):
    # S_1 and S_2 agree to 3^3, yet beta_2 at q = 7 only to 3^2; the proven
    # bound N - 1 takes level 4 for 3 digits
    data = run_json(capsys, "integrate", "--kind", "bosonic", "--p", "3", "--q", "7",
                    "--f", "bracket_pow:2", "--stability", "3")
    assert (data["N_used"], data["stability"]) == (4, 3)
    exact = beta_number(2, QDescriptor.rational(7))
    assert value_from_json(data["value"]).agrees_with(exact, data["stability"])


def test_integrate_non_convergence_exits_3(capsys):
    # a target past --N-max is a usage error
    code, out, err = run(capsys, "integrate", "--kind", "fermionic",
                         "--f", "bracket_pow:3", "--p", "5", "--q", "6",
                         "--stability", "30", "--N-max", "3")
    assert code == 2 and out == ""
    assert err == "error: stability 30 needs level 30, past n_max = 3\n"


def test_integrate_single_level_is_usage_error(capsys):
    # the default stability 6 is proven at level 6
    code, out, err = run(capsys, "integrate", "--p", "5", "--q", "6", "--N-max", "1")
    assert code == 2 and out == ""
    assert err == "error: stability 6 needs level 6, past n_max = 1\n"


@pytest.mark.parametrize("kind, measure", [("K", FERMIONIC), ("beta", BOSONIC)])
def test_numbers_integral_form_claims_its_stability(capsys, kind, measure):
    argv = ("numbers", "--kind", kind, "--n", "1..4", "--q", "padic:5:6:32")
    closed = run_json(capsys, *argv)["rows"]
    integral = run_json(capsys, *argv, "--form", "integral")["rows"]
    qd = parse_q_spec("padic:5:6:32")
    spec = MeasureSpec(measure, qd, ProfiniteDomain(5))
    for c, i in zip(closed, integral):
        stability = integrate(spec, bracket_power(qd, i["n"]), 5, 8).stability
        got, want = value_from_json(i["value"]), value_from_json(c["value"])
        assert got.absolute_precision == stability >= 5
        assert got.agrees_with(want, stability)
    code, out, err = run(capsys, *argv[:-1], "sym", "--form", "integral")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_integral_form_non_convergence_exits_3(capsys):
    # two digits of q cannot reach the default stability of the integral form
    code, out, err = run(capsys, "polynomials", "--kind", "K_poly", "--n", "1",
                         "--x", "1", "--q", "padic:3:4:2", "--form", "integral")
    assert code == 2 and out == ""
    assert err == "error: stability 5 needs more digits than q's precision A = 2\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_suite(capsys):
    data = run_json(capsys, "verify", "--suite", "limits", "--n-max", "12")
    assert data["all_passed"] is True
    suite = data["suites"][0]
    euler_rows = [c for c in suite["cases"] if c["params"].get("check") == "euler"]
    assert len(euler_rows) == 13


@pytest.mark.parametrize("suite, n_max, cases", [("genfunc", "3", 4), ("partial-sums", "2", 6)])
def test_verify_n_max_bounds_the_series_suites(capsys, suite, n_max, cases):
    # genfunc checks n = 0..n_max; partial-sums checks k = 0..n_max at two q
    data = run_json(capsys, "verify", "--suite", suite, "--n-max", n_max)
    assert data["all_passed"] is True
    assert len(data["suites"][0]["cases"]) == cases


@pytest.mark.parametrize("suite, n_max, check, cases", [
    ("limits", "3", "bernoulli", 4),    # beta_n -> B_n for n = 0..3
    ("beta-forms", "1", "integral", 6),  # the integrals of n = 0, 1 at x = 0, 1, 2
])
def test_verify_n_max_bounds_the_capped_checks(capsys, suite, n_max, check, cases):
    data = run_json(capsys, "verify", "--suite", suite, "--n-max", n_max)
    assert data["all_passed"] is True
    rows = [c for c in data["suites"][0]["cases"] if c["params"].get("check") == check]
    assert len(rows) == cases


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
# negative rationals as separate arguments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, option", [
    (("numbers", "--kind", "K", "--n", "1", "--q", "-3/7"), "--q"),
    (("polynomials", "--kind", "K_poly", "--n", "1", "--x", "-1/2", "--q", "sym:2"), "--x"),
    (("series", "--gf", "Kpartial", "--q", "-1/2", "--k-max", "1", "--n-terms", "20"), "--q"),
])
def test_negative_rational_value_reads_as_attached(capsys, argv, option):
    i = argv.index(option)
    attached = argv[:i] + (f"{option}={argv[i + 1]}",) + argv[i + 2:]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert run(capsys, *attached) == (0, out, "")


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_character_tables_print_values_without_a_repr(capsys, output_format):
    for f in range(1, 31):
        code, out, _ = run(capsys, "characters", "--f", str(f), "--format", output_format)
        assert code == 0 and "CyclotomicElement(" not in out


def test_character_values_print_as_coordinates_in_powers_of_z(capsys):
    # chi(2) = z, a primitive 4th root of unity; chi(4) = z^2 = -1
    rows = run_json(capsys, "characters", "--f", "5")["rows"]
    assert rows[1]["values"] == ["0", "(1)", "(1)*z", "(-1)*z", "(-1)"]


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


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "genfunc"),
    ("integrate", "--kind", "fermionic", "--f", "one", "--p", "5", "--q", "6"),
    ("numbers", "--kind", "K", "--n", "1", "--format", "csv")],
    ids=["verify-json", "integrate-json", "numbers-csv"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_an_output_path_that_cannot_be_opened_exits_2(capsys, tmp_path, argv, target):
    # one error: line naming the path, not a traceback with the exit code
    # of a failed verification, and nothing written
    path = str(tmp_path / "missing" / "out" if target == "missing-directory" else tmp_path)
    code, out, err = run(capsys, *argv, "--output", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write --output {path!r}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_refused_command_leaves_no_output_file(capsys, tmp_path):
    # the file is opened after the computation
    path = tmp_path / "out.json"
    assert run(capsys, "numbers", "--kind", "K", "--n", "1", "--q", "-1",
               "--output", str(path))[0] == 2
    assert not path.exists()


# each command's recorded stdout: the bytes of every CSV output form, values
# of each reading of q and the character table included
CSV_TABLES = json.loads((Path(__file__).with_name("golden") / "csv_tables.json").read_text())


@pytest.mark.parametrize("command", CSV_TABLES)
def test_csv_tables_match_the_recording(capsys, tmp_path, command):
    # stdout and the --output file both get the recorded text, row endings included
    assert run(capsys, *command.split()) == (0, CSV_TABLES[command], "")
    out_file = tmp_path / "table.csv"
    assert main(command.split() + ["--output", str(out_file)]) == 0
    assert out_file.read_bytes() == CSV_TABLES[command].encode()


@pytest.mark.parametrize("command", CSV_TABLES)
def test_a_csv_table_holds_every_key_of_the_json_rows(capsys, command):
    # the CSV columns first, then the rows' other keys in first-seen order; a
    # list cell is its items joined by ";"
    rows = run_json(capsys, *command.replace(" --format csv", "").split())["rows"]
    header, *cells = csv.reader(io.StringIO(CSV_TABLES[command]))
    assert header == list(dict.fromkeys(cli.CSV_COLUMNS + [k for row in rows for k in row]))
    for row, line in zip(rows, cells, strict=True):
        for key, cell in zip(header, line, strict=True):
            if isinstance(row[key], list):
                assert cell == ";".join(row[key])


_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f a\u00e9\u20ac\U0001f600') | st.characters(),
                max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**80, 10**80) | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(_TEXT, max_size=4)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=10)


@settings(max_examples=150, deadline=None)
@given(report=st.dictionaries(_TEXT, _JSON, max_size=4))
def test_the_json_writer_spells_what_json_dumps_spells(report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_json(report, None)
    assert out.getvalue() == json.dumps(report, indent=2) + "\n"


def test_the_json_writer_holds_less_than_the_text_it_writes(monkeypatch, tmp_path):
    # one row's text at a time; a token list and the joined text held whole
    # would take over twice the length of the text
    write_json, reports = cli._write_json, []
    monkeypatch.setattr(cli, "_write_json", lambda report, output: reports.append(report))
    assert main(["numbers", "--kind", "K", "--n", "0..40", "--q", "sym"]) == 0
    out_file = tmp_path / "table.json"
    tracemalloc.start()
    try:
        write_json(reports[0], str(out_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out_file.read_text()
    assert text == json.dumps(reports[0], indent=2) + "\n"
    assert peak < len(text)


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


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_qvolk_by_sigpipe():
    # qvolk piped into a reader that has gone (`qvolk ... | head -c 10`)
    # dies by SIGPIPE, as a filter does, with nothing on stderr; the read
    # end is closed before the command starts, so its first write hits it
    read, write = os.pipe()
    os.close(read)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        done = subprocess.run(
            [sys.executable, "-c", "from qvolkenborn.cli import entry_point; entry_point()",
             "numbers", "--kind", "K", "--n", "0..40", "--q", "sym"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (-signal.SIGPIPE, b"")


def _readme_commands():
    """The argv of each `qvolk ...` line in README's CLI code block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("qvolk ")]


def test_the_readme_shows_every_subcommand():
    assert {argv[0] for argv in _readme_commands()} == {
        "numbers", "polynomials", "integrate", "verify", "series", "characters"}


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_every_readme_cli_example_exits_0(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_text()
