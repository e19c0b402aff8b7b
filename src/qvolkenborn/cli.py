"""Command-line frontend: number tables, integration runs, identity suites.

Every numeric output is exact (rationals as "num/den" strings, symbolic
values as coefficient lists, p-adic values as valuation/unit/precision,
cyclotomic values as coordinates in the basis 1, z, ..., z = zeta_L); no
floating point appears anywhere.  Each value class defines its own JSON and
text forms, which this module only selects by class.  A JSON report has the
bytes of ``json.dumps(report, indent=2)`` and is written as it is encoded,
one row or suite at a time.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error (a pole of the formula at the given q, a p-adic value without the
digits a check needs, an integral needing a level past --N-max or digits
beyond q's precision, an --output path that cannot be opened).  Past
argument parsing every refusal is an ``algebra.QvolkError``: exit 2, one
``error:`` line on stderr; any other exception is a bug and propagates.
Where SIGPIPE exists, a closed stdout kills ``qvolk`` as it kills any
filter: status 141 in a shell, no stderr (:func:`main` leaves it alone).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import signal
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebra import (CyclotomicElement, InputError, PoleError, QvolkError,
                      RationalFunction)
from .characters import (character_value, conductor, enumerate_characters,
                         parse_character_id)
from .padic import DEFAULT_PRECISION, PadicNumber, ProfiniteDomain, padic_from_rational
from .qmeasure import (BOSONIC, FERMIONIC, MeasureSpec, QDescriptor,
                       integrate, parse_fraction, parse_integrand)
from .qnumbers import FORMS, family_value
from .series import (euler_gf, f_q_coefficient_partial, f_q_series,
                     scaled_coefficient)
from .verify import SUITES, run_suites

CSV_COLUMNS = ["kind", "n", "x", "m", "chi", "q_spec", "value"]

# each --kind of numbers and polynomials (the *_poly kinds) and its measure
KINDS = {"K": FERMIONIC, "beta": BOSONIC, "K_chi": FERMIONIC,
         "K_poly": FERMIONIC, "beta_poly": BOSONIC}

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def parse_q_spec(text: str) -> QDescriptor:
    """Parse "sym", "sym:D", "a/b" or "padic:p:q:A" into a descriptor."""
    try:
        if text == "sym":
            return QDescriptor.symbolic(1)
        if text.startswith("sym:"):
            return QDescriptor.symbolic(int(text.split(":", 1)[1]))
        if text.startswith("padic:"):
            parts = text.split(":")
            if len(parts) not in (3, 4):
                raise ValueError("expected padic:p:q or padic:p:q:A")
            p = int(parts[1])
            q = parse_fraction(parts[2])
            prec = int(parts[3]) if len(parts) == 4 else DEFAULT_PRECISION
            return QDescriptor.padic(padic_from_rational(q, p, prec))
        return QDescriptor.rational(parse_fraction(text))
    except ValueError as exc:
        raise InputError(f"bad q spec {text!r}: {exc}") from exc


def _fraction(flag: str, text: str) -> Fraction:
    """The rational value of a flag's text, refused as "bad <flag>"."""
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise InputError(f"bad {flag} {text!r}: {exc}") from exc


def _evaluate_at(q: QDescriptor, label: str, compute):
    """compute(), reporting a vanishing denominator at rational q as a pole.

    The rational reading evaluates a closed form over its unreduced
    denominators (the kernel's binomials 1 +- q^e and prefactor divisors)
    and makes no cancellation, so a denominator that vanishes at q (such as
    1 + q at q = -1) leaves the formula undefined there, even where the
    reduced rational function is finite; so does q = 0 where the formula
    takes a negative power of q.
    """
    try:
        return compute()
    except ZeroDivisionError as exc:
        if q.mode != "rational":
            raise
        raise PoleError(f"q = {q.value} is a pole of the formula for {label}") from exc


def parse_index_range(text: str) -> list[int]:
    """"3" or "0..8" (inclusive).

    >>> parse_index_range("0..3")
    [0, 1, 2, 3]
    """
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo_i, hi_i = int(lo), int(hi)
            if lo_i > hi_i or lo_i < 0:
                raise ValueError("empty or negative range")
            return list(range(lo_i, hi_i + 1))
        value = int(text)
        if value < 0:
            raise ValueError("negative index")
        return [value]
    except ValueError as exc:
        raise InputError(f"bad index range {text!r}: {exc}") from exc


def value_to_json(value):
    if isinstance(value, (RationalFunction, PadicNumber, CyclotomicElement)):
        return value.to_json()
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    raise TypeError(f"cannot serialize {type(value).__name__}")


def value_from_json(data):
    if isinstance(data, str):
        return Fraction(data)
    for key, cls in (("D", RationalFunction), ("p", PadicNumber), ("L", CyclotomicElement)):
        if isinstance(data, dict) and key in data:
            return cls.from_json(data)
    raise TypeError(f"cannot parse serialized value {data!r}")


def _output(output: str | None):
    """The --output file opened for writing, or stdout without one; a path
    that cannot be opened is an InputError."""
    try:
        return open(output, "w") if output else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise InputError(f"cannot write --output {output!r}: {exc.strerror or exc}") from exc


def _encode(value, indent: str = "") -> str:
    """json.dumps(value, indent=2) of a str, int, bool, None, dict or list, nested at indent."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items, ends = [f"{_quote(k)}: {_encode(v, inner)}" for k, v in value.items()], "{}"
    elif all(isinstance(v, str) for v in value):
        items, ends = map(_quote, value), "[]"
    else:
        items, ends = [_encode(v, inner) for v in value], "[]"
    if not value:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"


def _write_json(report: dict, output: str | None) -> None:
    """Write a report with the bytes of json.dumps(report, indent=2), the one
    JSON output format, as it is encoded: each top-level value, and each element
    of a top-level list (a table's rows, a run's suites), before the next."""
    with _output(output) as handle:
        for i, (key, value) in enumerate(report.items()):
            handle.write(f"{',' if i else '{'}\n  {_quote(key)}: ")
            if isinstance(value, list) and value:
                for j, element in enumerate(value):
                    handle.write(f"{',' if j else '['}\n    {_encode(element, '    ')}")
                handle.write("\n  ]")
            else:
                handle.write(_encode(value, "  "))
        handle.write("\n}\n" if report else "{}\n")


def _emit(report: dict, rows: list[dict], args) -> None:
    """Write a table: each row gets every CSV column it omits as "", in
    column order and before its own extra keys.  The CSV header is the CSV
    columns, then every other key of the rows in first-seen order, and a
    list cell is its items joined by ";"."""
    rows = [dict(dict.fromkeys(CSV_COLUMNS, ""), **row) for row in rows]
    if args.format == "json":
        _write_json(dict(report, rows=[
            {k: (value_to_json(v) if k == "value" else v) for k, v in row.items()}
            for row in rows]), args.output)
        return
    import csv   # only this branch needs it, so other commands start without it

    with _output(args.output) as handle:
        writer = csv.DictWriter(handle, fieldnames=list(dict.fromkeys(k for r in rows for k in r)))
        writer.writeheader()
        writer.writerows({k: ";".join(v) if isinstance(v, list) else v for k, v in row.items()}
                         for row in rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_numbers(args) -> int:
    q, indices = parse_q_spec(args.q), parse_index_range(args.n)
    if args.kind == "K_chi" and not args.chi:
        raise InputError("--chi is required for kind K_chi")
    if args.kind != "K_chi" and args.chi is not None:
        raise InputError(f"--chi applies to kind K_chi only, not {args.kind}")
    chi = parse_character_id(args.chi) if args.chi else None
    rows = []
    for n in indices:
        value = _evaluate_at(q, f"{args.kind}_{n}",
                             lambda: family_value(KINDS[args.kind], n, 0, q, chi, args.form))
        rows.append({"kind": args.kind, "n": n, "chi": chi.id_string if chi else "",
                     "q_spec": args.q, "value": value})
    _emit({"command": "numbers", "kind": args.kind, "q_spec": args.q}, rows, args)
    return EXIT_OK


def cmd_polynomials(args) -> int:
    q, x = parse_q_spec(args.q), _fraction("x", args.x)
    rows = []
    for n in parse_index_range(args.n):
        value = _evaluate_at(q, f"{args.kind}_{n}({x})",
                             lambda: family_value(KINDS[args.kind], n, x, q, form=args.form))
        rows.append({"kind": args.kind, "n": n, "x": str(x), "q_spec": args.q,
                     "value": value})
    _emit({"command": "polynomials", "kind": args.kind, "x": str(x),
           "form": args.form, "q_spec": args.q}, rows, args)
    return EXIT_OK


def cmd_integrate(args) -> int:
    q_value = _fraction("q", args.q)
    q = QDescriptor.padic(padic_from_rational(q_value, args.p, args.A))
    spec = MeasureSpec(args.kind, q, ProfiniteDomain(args.p, args.d))
    result = integrate(spec, parse_integrand(args.f, q), args.stability, args.n_max)
    report = {"command": "integrate", "kind": args.kind, "integrand": args.f,
              "p": args.p, "d": args.d, "q": str(q_value), "A": args.A}
    report.update(result.to_json())
    _write_json(report, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    overrides = {}
    if args.m is not None:
        overrides["ms"] = (args.m,)
    if args.n_max is not None:
        if args.n_max < 0:
            raise InputError(f"--n-max must be nonnegative, got {args.n_max}")
        overrides["n_max"] = args.n_max
    results = run_suites(args.suite or None, **overrides)
    all_passed = all(r.passed for r in results)
    report = {"command": "verify", "all_passed": all_passed,
              "suites": [r.to_json() for r in results]}
    _write_json(report, args.output)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def cmd_series(args) -> int:
    for flag, value in (("--T", args.T), ("--k-max", args.k_max), ("--n-terms", args.n_terms)):
        if value < 0:
            raise InputError(f"{flag} must be nonnegative, got {value}")
    rows = []
    if args.gf == "euler":
        gf = euler_gf(args.T)
        for n in range(args.T + 1):
            rows.append({"kind": "euler_gf", "n": n, "value": scaled_coefficient(gf, n),
                         "coefficient": str(gf[n])})
    elif args.gf == "Fq":
        q = parse_q_spec(args.q)
        gf = _evaluate_at(q, "F_q", lambda: f_q_series(q, args.T))
        for n in range(args.T + 1):
            rows.append({"kind": "Fq_gf", "n": n, "q_spec": args.q,
                         "value": scaled_coefficient(gf, n), "coefficient": str(gf[n])})
    else:  # Kpartial
        q_value = _fraction("q", args.q)
        for k in range(args.k_max + 1):
            ps = f_q_coefficient_partial(k, q_value, args.n_terms)
            rows.append({"kind": "K_partial", "n": k, "q_spec": args.q, "value": ps.value,
                         "tail_bound": str(ps.tail_bound), "terms": args.n_terms})
    report = {"command": "series", "gf": args.gf}
    if args.gf != "euler":
        report["q_spec"] = args.q
    _emit(report, rows, args)
    return EXIT_OK


def cmd_characters(args) -> int:
    rows = []
    for chi in enumerate_characters(args.f):
        f0, primitive = conductor(chi)
        values = [str(character_value(chi, a)) for a in range(args.f)]
        rows.append({"kind": "character", "chi": chi.id_string,
                     "value": Fraction(chi.value_order), "conductor": f0,
                     "primitive": primitive, "values": values})
    _emit({"command": "characters", "modulus": args.f}, rows, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it
    (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="qvolk",
        description="Exact q-deformed number families, p-adic integrals and "
                    "their identity-verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("numbers", help="q-Bernoulli / q-Euler / twisted number tables")
    p.add_argument("--kind", choices=[k for k in KINDS if not k.endswith("_poly")],
                   required=True)
    p.add_argument("--n", required=True, help='index or range, e.g. "3" or "0..8"')
    p.add_argument("--q", default="sym", help='"sym", "sym:D", "a/b", "padic:p:q:A"')
    p.add_argument("--chi", default=None, help='character id "f:e1,e2,..." (K_chi only)')
    # the expansion route reads K_n back at x = 0, and a twist refuses it
    p.add_argument("--form", choices=[f for f in FORMS if f != "expansion"],
                   default="closed")
    add_output_flags(p)
    p.set_defaults(func=cmd_numbers)

    p = sub.add_parser("polynomials", help="shifted-argument polynomial tables")
    p.add_argument("--kind", choices=[k for k in KINDS if k.endswith("_poly")], required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--x", default="0", help='rational shift, e.g. "1/2"')
    p.add_argument("--form", choices=FORMS, default="closed")
    p.add_argument("--q", default="sym")
    add_output_flags(p)
    p.set_defaults(func=cmd_polynomials)

    p = sub.add_parser("integrate", help="certified p-adic Riemann-sum limits")
    p.add_argument("--kind", choices=[BOSONIC, FERMIONIC], default=FERMIONIC)
    p.add_argument("--f", default="one",
                   help='"one", "bracket_pow:n", "shifted_bracket_pow:n:x", '
                        '"char_twisted:n:chi_id"')
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", required=True, help="rational q, e.g. 6 or 11/6")
    p.add_argument("--A", type=int, default=DEFAULT_PRECISION,
                   help="working precision in digits")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--stability", type=int, default=6)
    p.add_argument("--N-max", dest="n_max", type=int, default=8)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("verify", help="run the identity-verification suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES),
                   help="suite name (repeatable); default: all")
    p.add_argument("--m", type=int, default=None,
                   help="override the distribution-suite moduli")
    p.add_argument("--n-max", dest="n_max", type=int, default=None,
                   help="override the largest index of every suite but measure and convergence")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("series", help="generating-function coefficient tables")
    p.add_argument("--gf", choices=["euler", "Fq", "Kpartial"], required=True)
    p.add_argument("--T", type=int, default=10, help="truncation order")
    p.add_argument("--q", default="sym")
    p.add_argument("--k-max", dest="k_max", type=int, default=6)
    p.add_argument("--n-terms", dest="n_terms", type=int, default=200)
    add_output_flags(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("characters", help="list the characters of a modulus")
    p.add_argument("--f", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=cmd_characters)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join a long option and a following value that starts with a minus
    sign and a digit (``--q -3/7`` becomes ``--q=-3/7``): argparse would
    read such a value as an option name.  No option name starts with a
    digit, so the token can only be a value."""
    out: list[str] = []
    for token in argv:
        if (out and token[:1] == "-" and token[1:2].isdigit()
                and out[-1].startswith("--") and out[-1] != "--" and "=" not in out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except QvolkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry_point() -> None:
    if hasattr(signal, "SIGPIPE"):   # a closed stdout ends qvolk as it ends a filter
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
