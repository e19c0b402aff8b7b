"""The refusal contract: every input the engine refuses is a QvolkError.

`cli.main` catches that one class and turns it into exit code 2 and one
``error:`` line on stderr.  Any other exception is a bug and propagates,
so it shows as a traceback.
"""

import functools
import hashlib
import json
from fractions import Fraction

import pytest

from qvolkenborn import algebra, cli
from qvolkenborn import verify as verify_mod
from qvolkenborn.algebra import (InputError, PoleError, Polynomial, QvolkError, RationalFunction,
                                 RootOrderMismatch, ZeroAtPrecisionError)
from qvolkenborn.cli import build_parser, main, value_from_json, value_to_json
from qvolkenborn.padic import (PadicNumber, PrecisionExhausted, ProfiniteDomain,
                               ball_representatives, padic_from_rational)
from qvolkenborn.qmeasure import (BOSONIC, FERMIONIC, QDescriptor, binomial_fraction_sum,
                                  bosonic_power_moment, fermionic_power_moment, geometric_sum)
from qvolkenborn.qnumbers import family_value, k_distribution_rhs
from qvolkenborn.series import f_q_coefficient_partial
from test_golden import DIGESTS, commands


def refusal(argv):
    """The exception that cli.main catches for argv."""
    args = build_parser().parse_args(cli._attach_negative_values(list(argv)))
    with pytest.raises(QvolkError) as info:
        args.func(args)
    return info.value


def assert_exit_2(capsys, argv, exc):
    assert main(list(argv)) == 2
    assert capsys.readouterr() == ("", f"error: {exc}\n")


# the exit-2 commands of tests/test_cli.py and the class each one raises
CLI_REFUSALS = [
    (("numbers", "--kind", "K_chi", "--n", "0"), InputError),
    (("numbers", "--kind", "K", "--n", "3", "--q", "-1"), PoleError),
    (("numbers", "--kind", "K", "--n", "0..2", "--q", "padic:5:1:32"), InputError),
    (("numbers", "--kind", "K", "--n", "0..2", "--q", "padic:5:3126:5"), InputError),
    (("numbers", "--kind", "K_chi", "--chi", "garbage", "--n", "1"), InputError),
    (("numbers", "--kind", "K", "--n", "1..4", "--q", "sym", "--form", "integral"), InputError),
    (("polynomials", "--kind", "K_poly", "--n", "1", "--x", "1/2", "--q", "sym"),
     RootOrderMismatch),
    (("polynomials", "--kind", "K_poly", "--n", "1", "--x", "1", "--q", "padic:3:4:2",
      "--form", "integral"), InputError),
    (("integrate", "--p", "5", "--q", "6", "--f", "char_twisted:1:3:1", "--stability", "2"),
     InputError),
    (("integrate", "--q", "2", "--p", "5"), InputError),
    (("integrate", "--p", "5", "--q", "6", "--f", "bracket_pow:3", "--stability", "30",
      "--N-max", "5"), InputError),
    (("integrate", "--p", "5", "--q", "6", "--f", "bracket_pow:3", "--stability", "32",
      "--N-max", "40"), InputError),
    (("integrate", "--kind", "bosonic", "--p", "5", "--q", "6", "--A", "6", "--f",
      "bracket_pow:2", "--stability", "5"), InputError),
    (("integrate", "--p", "5", "--q", "6", "--N-max", "1"), InputError),
    (("verify", "--suite", "distribution", "--m", "4"), InputError),
    (("verify", "--suite", "kpoly-forms", "--n-max", "-1"), InputError),
    (("series", "--gf", "Fq", "--q", "1", "--T", "3"), InputError),
    (("series", "--gf", "euler", "--T", "-1"), InputError),
    (("series", "--gf", "Kpartial", "--q", "1/2", "--n-terms", "-1"), InputError),
]
# and one command for each other refusal that a CLI argument reaches
CLI_REFUSALS += [(tuple(command.split()), InputError) for command in (
    "characters --f 0",
    "numbers --kind K --n -1",
    "numbers --kind K --n 0..2 --q sym:0",
    "numbers --kind K_chi --n 0 --chi 0:1",
    "numbers --kind K_chi --n 0 --chi 5:9",
    "numbers --kind K_chi --n 0 --chi 5:1,1",
    "numbers --kind K_chi --n 0 --chi 4:1",
    "numbers --kind K_chi --n 0 --chi 5:1 --q padic:3:4:32",
    "numbers --kind K_chi --n 0 --chi 7:1 --q padic:5:6:32 --form integral",
    "numbers --kind K_chi --n 1 --chi 5:1 --q padic:5:6 --form closed",
    "numbers --kind K_chi --n 1 --chi 5:1 --q padic:5:6 --form integral",
    "numbers --kind K --n 1 --q 2/5 --chi 3:1",
    "numbers --kind beta --n 0 --chi garbage",
    "polynomials --kind K_poly --n 1 --x 1/0",
    "polynomials --kind beta_poly --n 1 --x 1/2 --q padic:5:6:32",
    "integrate --p 4 --q 5",
    "integrate --p 5 --q 6 --A 0",
    "integrate --p 5 --q 1",
    "integrate --p 5 --q 1/0",
    "integrate --p 5 --q 6 --d 0",
    "integrate --p 5 --q 6 --d 2",
    "integrate --p 5 --q 6 --d 5",
    "integrate --p 5 --q 6 --f garbage",
    "integrate --p 5 --q 6 --f bracket_pow:-1",
    "integrate --p 5 --q 6 --stability 40 --N-max 50",
    "series --gf Fq --q padic:5:6:32",
    "series --gf Kpartial --q 2",
    "verify --suite distribution --m -3",
    "verify --suite distribution --m 0",
    "numbers --kind K --n 5..3",
    "numbers --kind K --n 1 --q padic:5",
    "numbers --kind K_chi --n 1 --chi 15:1,,1 --q 2/5",
    "integrate --p 5 --q 6 --stability -3",
)]


@pytest.mark.parametrize("argv, error", CLI_REFUSALS, ids=lambda v: " ".join(v)
                         if isinstance(v, tuple) else v.__name__)
def test_cli_refusals_are_qvolk_errors(capsys, argv, error):
    exc = refusal(argv)
    assert type(exc) is error
    assert_exit_2(capsys, argv, exc)


@pytest.mark.parametrize("command, message", [
    ("verify --suite distribution --m 4", "the fermionic limit needs an odd period, got 4"),
    ("verify --suite distribution --m -3",
     "the distribution relation needs a period m >= 1, got -3"),
    ("verify --suite distribution --m 0", "the distribution relation needs a period m >= 1, got 0"),
    ("numbers --kind K_chi --n 0 --chi 4:1", "the fermionic limit needs an odd period, got 4"),
    ("numbers --kind K_chi --n 0 --chi 0:1", "modulus must be positive"),
    ("numbers --kind K_chi --n 0 --chi 5:1,1", "expected 1 exponents for modulus 5, got 2"),
    ("numbers --kind K --n 1 --q 2/5 --chi 3:1", "--chi applies to kind K_chi only, not K"),
    # one message for an order-4 twist at p-adic q, whichever route is asked
    *((f"numbers --kind K_chi --n 1 --chi 5:1 --q padic:5:6 --form {form}",
       "p-adic twisted numbers need character values in {0, +-1}")
      for form in ("closed", "integral")),
    ("series --gf Kpartial --q 2", "partial sums need 0 < |q| < 1, got q = 2"),
    ("numbers --kind K --n 5..3", "bad index range '5..3': empty or negative range"),
    ("numbers --kind K --n 1 --q padic:5",
     "bad q spec 'padic:5': expected padic:p:q or padic:p:q:A"),
    ("numbers --kind K_chi --n 1 --chi 15:1,,1 --q 2/5",
     'bad character id \'15:1,,1\': expected "f:e1,e2,..." with integers f, e1, e2, ...'),
    ("integrate --p 5 --q 6 --stability -3", "stability must be nonnegative, got -3"),
])
def test_each_input_rule_refuses_with_the_message_of_its_one_check(command, message):
    # the engine function that needs a rule checks it, and the CLI adds no
    # copy; test_cli_refusals_are_qvolk_errors runs these commands to exit 2
    exc = refusal(command.split())
    assert type(exc) is InputError and str(exc) == message


@pytest.mark.parametrize("command", [
    "numbers --kind K --n 0..2 --form integral --q sym",
    "polynomials --kind beta_poly --n 1 --form integral --q 2/5",
])
def test_the_integral_route_at_non_padic_q_gives_integrates_refusal(capsys, command):
    # the integral route reaches integrate's own refusal, not a missing prime
    exc = refusal(command.split())
    assert type(exc) is InputError
    assert str(exc) == "integration is a p-adic limit; q must be padic"
    assert_exit_2(capsys, command.split(), exc)


@pytest.mark.parametrize("command", [
    "numbers --kind K --n 0..2 --method integral --q padic:5:6:32",
    "numbers --kind K --n 0..2 --form expansion --q sym",
])
def test_argument_parsing_refuses_an_unknown_flag_or_route(capsys, command):
    # numbers names its route --form, like polynomials, and offers no
    # expansion route: at x = 0 it only reads K_n back
    with pytest.raises(SystemExit) as info:
        main(command.split())
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


# the golden commands that exit 2, and the class each one raises
GOLDEN_REFUSALS = {
    **{f"numbers --kind K_chi --n 0..5 --chi {chi} --q padic:5:6:32": InputError
       for chi in ("5:1", "7:1", "7:2", "9:1", "13:1", "15:1,1", "21:1,1")},
    "numbers --kind K --n 0..3 --q -1": PoleError,
    "polynomials --kind K_poly --n 0..3 --x -2 --q 0": PoleError,
    "polynomials --kind K_poly --n 0..6 --x 2/3 --q 2/5 --form expansion": InputError,
    "integrate --kind bosonic --p 3 --q 4 --f bracket_pow:2 --A 6 --stability 5 --N-max 8":
        InputError,
}


def test_golden_refusals_are_qvolk_errors():
    # every golden command that raises raises a QvolkError, and its recorded
    # digest is that of exit 2 with the error line
    recorded, caught = json.loads(DIGESTS.read_text()), {}
    for command in commands():
        args = build_parser().parse_args(cli._attach_negative_values(command.split()))
        try:
            args.func(args)
        except QvolkError as exc:
            caught[command] = type(exc)
            payload = json.dumps([2, "", f"error: {exc}\n"]).encode()
            assert hashlib.sha256(payload).hexdigest() == recorded[command]
    assert caught == GOLDEN_REFUSALS


@pytest.mark.parametrize("error", [InputError, ZeroAtPrecisionError, PoleError,
                                   PrecisionExhausted, RootOrderMismatch])
def test_every_refusal_class_exits_2(capsys, monkeypatch, error):
    def refusing(**_):
        raise error("refused here")

    monkeypatch.setitem(verify_mod.SUITES, "limits", refusing)
    assert_exit_2(capsys, ("verify", "--suite", "limits"), "refused here")


@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError, ArithmeticError])
@pytest.mark.parametrize("argv, engine", [
    (("numbers", "--kind", "K", "--n", "0..2", "--q", "sym"), "family_value"),
    (("integrate", "--p", "5", "--q", "6"), "parse_integrand"),
    (("integrate", "--p", "5", "--q", "6"), "integrate"),
    (("series", "--gf", "Fq", "--q", "sym", "--T", "2"), "f_q_series"),
    (("series", "--gf", "Kpartial", "--q", "1/2"), "f_q_coefficient_partial"),
])
def test_an_engine_bug_propagates_out_of_main(capsys, monkeypatch, error, argv, engine):
    def broken(*_, **__):
        raise error("a bug")

    monkeypatch.setattr(cli, engine, broken)
    with pytest.raises(error) as info:
        main(list(argv))
    assert type(info.value) is error and capsys.readouterr().err == ""


def test_a_suite_bug_propagates_out_of_main(monkeypatch):
    def broken(**_):
        raise ValueError("a bug")

    monkeypatch.setitem(verify_mod.SUITES, "limits", broken)
    with pytest.raises(ValueError) as info:
        main(["verify", "--suite", "limits"])
    assert type(info.value) is ValueError


SYM = QDescriptor.symbolic()
Q5 = QDescriptor.padic(padic_from_rational(6, 5, 32))

# the refusals of engine functions that no CLI input reaches: (call, class, message)
ENGINE_REFUSALS = {
    "family_value form": (lambda: family_value(FERMIONIC, 2, 0, SYM, form="bogus"), ValueError,
                          "unknown form 'bogus'; expected one of ('closed', 'expansion', "
                          "'integral')"),
    "family_value n": (lambda: family_value(FERMIONIC, -1, 0, SYM), ValueError,
                       "index must be nonnegative"),
    "family_value stability": (lambda: family_value(FERMIONIC, 2, 0, Q5, form="integral",
                                                    stability=-3),
                               InputError, "stability must be nonnegative, got -3"),
    "k_distribution_rhs n": (lambda: k_distribution_rhs(-1, 0, 3, SYM), ValueError,
                             "index must be nonnegative"),
    "bosonic_power_moment": (lambda: bosonic_power_moment(-1, SYM), ValueError,
                             "moment index must be nonnegative"),
    "fermionic_power_moment": (lambda: fermionic_power_moment(-1, SYM), ValueError,
                               "moment index must be nonnegative"),
    "minus_bracket": (lambda: SYM.minus_bracket(2), ValueError,
                      "the negated-base bracket needs odd m, got 2"),
    "run_suites": (lambda: verify_mod.run_suites(["nope"]), ValueError,
                   "unknown suite 'nope'; known: measure, kpoly-forms, finite-sum, "
                   "distribution, char-twist, beta-forms, limits, genfunc, partial-sums, "
                   "convergence"),
    "f_q_coefficient_partial": (lambda: f_q_coefficient_partial(-1, Fraction(1, 2), 10),
                                InputError, "k and n_terms must be nonnegative"),
    "value_to_json": (lambda: value_to_json(object()), TypeError, "cannot serialize object"),
    "value_from_json": (lambda: value_from_json(3), TypeError, "cannot parse serialized value 3"),
    "PadicNumber prime": (lambda: PadicNumber(4, 0, 1, 5), ValueError, "4 is not an odd prime"),
    "PadicNumber precision": (lambda: PadicNumber(5, 0, 1, 0), ValueError,
                              "nonzero value needs at least one digit of precision"),
    "PadicNumber unit": (lambda: PadicNumber(5, 0, 10, 3), ValueError,
                         "unit part must be prime to p"),
    "Polynomial power": (lambda: Polynomial((1, 1)) ** -1, ValueError,
                         "negative polynomial power"),
    "RationalFunction root order": (
        lambda: RationalFunction(Polynomial((1,)), Polynomial((1,)), 0), ValueError,
        "root order must be >= 1"),
    "RationalFunction reciprocal": (lambda: RationalFunction.constant(0).reciprocal(),
                                    ZeroDivisionError, "reciprocal of zero"),
    "ball_representatives": (lambda: ball_representatives(ProfiniteDomain(5), 0), ValueError,
                             "level must be >= 1"),
    "_mobius_binomials": (lambda: algebra._mobius_binomials(0), ValueError,
                          "order must be positive"),
    "_order_bound": (lambda: algebra._order_bound(10 ** 19), ValueError,
                     "degree 10000000000000000000 is past the order bound's prime table"),
}
# an empty weight table: one refusal in every reading, in the limit and at a level
ENGINE_REFUSALS.update({
    f"geometric_sum empty table {name} {kind} level={level}": (
        functools.partial(geometric_sum, q, kind, 1, 0, (), level), ValueError,
        "a weight table needs at least one value")
    for name, q in (("sym", SYM), ("2/5", QDescriptor.rational(Fraction(2, 5))),
                    ("padic:5:6:8", QDescriptor.padic(padic_from_rational(6, 5, 8))))
    for kind in (BOSONIC, FERMIONIC) for level in (None, 5)})


@pytest.mark.parametrize("name", ENGINE_REFUSALS)
def test_engine_refusals_keep_their_class_and_message(name):
    call, error, message = ENGINE_REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_the_kernel_contract_refusal_stays_a_plain_value_error():
    # no CLI input reaches the kernel's input contract, so a breach is a bug
    for q, sign, step in ((QDescriptor.rational(2), 1, 0),
                          (QDescriptor.padic(padic_from_rational(6, 5, 8)), 1, 1)):
        with pytest.raises(ValueError) as info:
            binomial_fraction_sum(q, [{0: 1}], sign, step)
        assert type(info.value) is ValueError
