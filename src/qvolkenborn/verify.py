"""Identity-verification suites.

Each suite checks one family of identities by computing both sides through
independent routes (closed form vs expansion, a symbolic finite sum vs the
same sum at p-adic q, p-adic integral vs symbolic evaluation) and comparing
exactly, or modulo a stated p-adic precision.  Each expansion or integral
route is one :func:`~qvolkenborn.qnumbers.family_value` call.  The CLI
fronts these suites and the acceptance tests call them directly.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .characters import make_character
from .padic import ProfiniteDomain, padic_from_rational
from .qmeasure import (BOSONIC, FERMIONIC, MeasureSpec, QDescriptor, ball_measure_sum,
                       bracket_power, integrate, parse_integrand, riemann_sum)
from .qnumbers import (beta_number, classical_bernoulli, classical_euler, family_value, k_chi,
                       k_distribution_rhs, k_number, k_polynomial)
from .series import f_q_coefficient_partial, f_q_series, scaled_coefficient


class CaseResult(namedtuple("CaseResult", "params passed detail", defaults=("",))):
    """One checked case: its parameters, whether it passed, and a note."""

    __slots__ = ()

    def to_json(self) -> dict:
        out = {"params": {k: str(v) for k, v in self.params.items()},
               "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


class SuiteResult(namedtuple("SuiteResult", "name cases")):
    """A suite's name and its :class:`CaseResult` list, which :meth:`add`
    extends; each result gets its own list unless one is given."""

    __slots__ = ()

    def __new__(cls, name: str, cases: list[CaseResult] | None = None):
        return super().__new__(cls, name, [] if cases is None else cases)

    @property
    def passed(self) -> bool:
        """True when the suite checked at least one case and all passed.

        >>> SuiteResult("empty").passed
        False
        """
        return bool(self.cases) and all(c.passed for c in self.cases)

    def add(self, params: dict, passed: bool, detail: str = "") -> None:
        self.cases.append(CaseResult(params, bool(passed), detail))

    def to_json(self) -> dict:
        return {"suite": self.name, "passed": self.passed,
                "cases": [c.to_json() for c in self.cases]}


def _padic_q(q: int | Fraction = 6, p: int = 5, prec: int = 32) -> QDescriptor:
    return QDescriptor.padic(padic_from_rational(Fraction(q), p, prec))


def _at_padic_6(kind: str, n: int, x: int = 0, chi=None):
    """The closed symbolic moment read at the 5-adic q = 6, to 30 digits."""
    value = family_value(kind, n, x, QDescriptor.symbolic(), chi)
    return padic_from_rational(value.evaluate(6), 5, 30)


def _closed_vs_expansion(name: str, kind: str, xs: tuple, n_max: int) -> SuiteResult:
    """Closed form vs binomial expansion of the kind's polynomials at xs, n <= n_max."""
    out = SuiteResult(name)
    for x in map(Fraction, xs):
        sym = QDescriptor.symbolic(x.denominator)
        for n in range(n_max + 1):
            out.add({"n": n, "x": x}, family_value(kind, n, x, sym)
                    == family_value(kind, n, x, sym, form="expansion"))
    return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_measure(**_) -> SuiteResult:
    """Ball-measure distribution property, total mass, and the p-adic limit
    of the fermionic ball weights."""
    out = SuiteResult("measure")
    rng = random.Random(20240)
    sym = QDescriptor.symbolic()
    for kind in (BOSONIC, FERMIONIC):
        for p in (3, 5):
            for d in (1, 3):
                if d % p == 0:
                    continue
                spec = MeasureSpec(kind, sym, ProfiniteDomain(p, d))
                for level in (1, 2, 3):
                    size = d * p ** level
                    total = ball_measure_sum(spec, range(size), level)
                    out.add({"check": "total_mass", "kind": kind, "p": p,
                             "d": d, "N": level}, total == 1)
                    picks = {rng.randrange(size) for _ in range(3)}
                    for a in picks:
                        fine = ball_measure_sum(
                            spec, (a + i * size for i in range(p)), level + 1)
                        out.add({"check": "additivity", "kind": kind, "p": p,
                                 "d": d, "N": level, "a": a},
                                ball_measure_sum(spec, (a,), level) == fine)
    # fermionic weights tend to ([2]_q/2)(-1)^a q^a, at the rate q^(p^N) -> 1
    qd = _padic_q()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    q = qd.value
    two = qd.one() + q
    for a in (0, 1, 2):
        previous = None
        for level in range(1, 5):
            limit_value = two * q ** a / 2
            if a % 2 == 1:
                limit_value = -limit_value
            gap = (ball_measure_sum(spec, (a,), level) - limit_value).valuation
            rate = (q ** (5 ** level) - qd.one()).valuation
            ok = gap >= rate and (previous is None or gap >= previous)
            out.add({"check": "fermionic_limit", "a": a, "N": level,
                     "gap": gap, "rate": rate}, ok)
            previous = gap
    return out


def suite_kpoly_forms(n_max: int = 8, **_) -> SuiteResult:
    """Closed form vs binomial expansion of the q-Euler polynomials."""
    return _closed_vs_expansion("kpoly-forms", FERMIONIC, (0, 1, 2, "1/2", "1/3"), n_max)


def suite_finite_sum(n_max: int = 4, **_) -> SuiteResult:
    """Level-N Riemann sums at p = 3, bosonic and fermionic: of [1+y]^n over
    Z_3, and twisted by the quadratic character mod 3 over Z_3 x Z/5.  The
    symbolic sum at w = q0 = 4 agrees with the sum at the 3-adic q0 (32
    digits) to every digit the 3-adic sum claims, at least 16: rational
    functions against integer residues."""
    out = SuiteResult("finite-sum")
    p, q0 = 3, 4
    sym, qd = QDescriptor.symbolic(), _padic_q(q0, p)
    for kind in (FERMIONIC, BOSONIC):
        for d in (1, 5):
            for level in (1, 2):
                for n in range(n_max + 1):
                    f = f"char_twisted:{n}:3:1" if d > 1 else f"shifted_bracket_pow:{n}:1"
                    exact, value = (riemann_sum(MeasureSpec(kind, q, ProfiniteDomain(p, d)),
                                                parse_integrand(f, q), level)
                                    for q in (sym, qd))
                    digits = value.absolute_precision
                    out.add({"kind": kind, "d": d, "f": f, "N": level, "p": p, "digits": digits},
                            digits >= 16 and value.agrees_with(exact.evaluate(q0), digits))
    return out


def suite_distribution(n_max: int = 6, ms: tuple[int, ...] = (1, 3, 5), **_) -> SuiteResult:
    """The odd-m distribution relation as an exact symbolic identity: both
    sides are fermionic geometric_sum calls at base q, with the tables
    (1,) * m and (1,) (see :func:`k_distribution_rhs`)."""
    out = SuiteResult("distribution")
    for x in (Fraction(0), Fraction(1, 3)):
        sym = QDescriptor.symbolic(x.denominator)
        for m in ms:
            for n in range(n_max + 1):
                same = k_polynomial(n, x, sym) == k_distribution_rhs(n, x, m, sym)
                out.add({"m": m, "n": n, "x": x}, same)
    return out


def suite_char_twist(n_max: int = 4, **_) -> SuiteResult:
    """Twisted numbers: Riemann-sum integral (levels N <= 7) vs closed form,
    quadratic character mod 3, p = 5, q = 6, modulo 5^5."""
    out = SuiteResult("char-twist")
    digits = 5
    chi = make_character(3, (1,))
    qd = _padic_q()
    targets = [_at_padic_6(FERMIONIC, n, 0, chi) for n in range(n_max + 1)]
    for n, target in enumerate(targets):
        gap = (family_value(FERMIONIC, n, 0, qd, chi, "integral", digits, 7) - target).valuation
        out.add({"n": n, "digits": digits, "gap": gap}, gap >= digits)
    # the closed p-adic route must match the symbolic evaluation too
    for n, target in enumerate(targets):
        out.add({"check": "closed_padic", "n": n},
                (k_chi(n, chi, qd) - target).valuation >= digits)
    return out


def suite_beta_forms(n_max: int = 6, **_) -> SuiteResult:
    """The two displayed routes to the q-Bernoulli polynomials agree, the
    low-order numbers match their frozen reduced forms, and the bosonic
    integral reproduces the polynomials p-adically for n <= min(n_max, 3)."""
    out = _closed_vs_expansion("beta-forms", BOSONIC, (0, 1, "1/2"), n_max)
    sym = QDescriptor.symbolic()
    one, q = sym.one(), sym.qpow(1)
    out.add({"check": "beta_1"}, beta_number(1, sym) == -one / (one + q))
    out.add({"check": "beta_2"},
            beta_number(2, sym) == q / ((one + q) * (one + q + q * q)))
    qd = _padic_q()
    for n in range(min(n_max, 3) + 1):
        for x in (0, 1, 2):
            via_integral = family_value(BOSONIC, n, x, qd, form="integral", stability=4)
            gap = (via_integral - _at_padic_6(BOSONIC, n, x)).valuation
            out.add({"check": "integral", "n": n, "x": x, "gap": gap}, gap >= 4)
    return out


def suite_limits(n_max: int = 12, **_) -> SuiteResult:
    """q -> 1 limits: q-Euler numbers against the classical Euler numbers
    (a case passes when the closed form's limit, the generating-function
    coefficient's limit and E_n coincide), and q-Bernoulli numbers against
    the classical Bernoulli numbers for n <= min(n_max, 10) (reported
    comparison)."""
    out = SuiteResult("limits")
    sym = QDescriptor.symbolic()
    euler, fq = classical_euler(n_max), f_q_series(sym, n_max)
    for n in range(n_max + 1):
        k_lim = k_number(n, sym).limit_at_one()
        gf_lim = scaled_coefficient(fq, n).limit_at_one()
        out.add({"check": "euler", "n": n, "K_limit": str(k_lim), "E_n": str(euler[n])},
                k_lim == euler[n] == gf_lim)
    beta_n_max = min(n_max, 10)
    bernoulli = classical_bernoulli(beta_n_max)
    for n in range(beta_n_max + 1):
        lim = beta_number(n, sym).limit_at_one()
        out.add({"check": "bernoulli", "n": n, "beta_limit": str(lim),
                 "B_n": str(bernoulli[n])},
                lim == bernoulli[n],
                detail="equal" if lim == bernoulli[n] else "differs")
    return out


def suite_genfunc(n_max: int = 10, **_) -> SuiteResult:
    """n! times the generating-function coefficients equal the q-Euler
    numbers as reduced symbolic elements."""
    out = SuiteResult("genfunc")
    sym = QDescriptor.symbolic()
    gf = f_q_series(sym, n_max)
    for n in range(n_max + 1):
        out.add({"n": n}, scaled_coefficient(gf, n) == k_number(n, sym))
    return out


def suite_partial_sums(n_max: int = 6, **_) -> SuiteResult:
    """The alternating-series route to the numbers at rational q: partial
    sums of 200 terms land within their own reported tail bound of the
    closed form."""
    out = SuiteResult("partial-sums")
    for q in (Fraction(1, 2), Fraction(1, 3)):
        sym = QDescriptor.symbolic()
        for k in range(n_max + 1):
            ps = f_q_coefficient_partial(k, q, 200)
            target = k_number(k, sym).evaluate(q)
            gap = abs(ps.value - target)
            out.add({"k": k, "q": q, "bound": str(ps.tail_bound)},
                    gap <= ps.tail_bound,
                    detail=f"gap={gap}")
    return out


def suite_convergence(**_) -> SuiteResult:
    """The proven stability 6 within N <= 8 of the fermionic integral of
    [y]^3 at p = 5, q = 6, and at p = 3, q = 4 the fermionic level sums of
    [x+y]^n: each within 3^N of K_n(x) (the bound :func:`integrate`
    claims), with nondecreasing difference valuations."""
    out = SuiteResult("convergence")
    qd = _padic_q()
    spec = MeasureSpec(FERMIONIC, qd, ProfiniteDomain(5))
    target = 6
    result = integrate(spec, bracket_power(qd, 3), target, 8)
    gap = (result.value - _at_padic_6(FERMIONIC, 3)).valuation
    out.add({"check": "value", "N_used": result.n_used,
             "stability": result.stability, "gap": gap},
            result.stability >= target and gap >= target)
    qd3 = _padic_q(4, 3)
    spec3 = MeasureSpec(FERMIONIC, qd3, ProfiniteDomain(3))
    for n in range(5):
        for x in (0, 1):
            limit = k_polynomial(n, x, qd3)
            vals = []
            previous = None
            for level in range(1, 9):
                current = riemann_sum(spec3, bracket_power(qd3, n, x), level)
                gap = (current - limit).valuation
                out.add({"check": "bound", "p": 3, "n": n, "x": x, "N": level,
                         "gap": gap}, gap >= level)
                if previous is not None:
                    vals.append((current - previous).valuation)
                previous = current
            out.add({"check": "monotone", "p": 3, "n": n, "x": x, "trace": vals},
                    vals == sorted(vals))
    return out


SUITES = {
    "measure": suite_measure,
    "kpoly-forms": suite_kpoly_forms,
    "finite-sum": suite_finite_sum,
    "distribution": suite_distribution,
    "char-twist": suite_char_twist,
    "beta-forms": suite_beta_forms,
    "limits": suite_limits,
    "genfunc": suite_genfunc,
    "partial-sums": suite_partial_sums,
    "convergence": suite_convergence,
}


def run_suites(names: list[str] | None = None, **overrides) -> list[SuiteResult]:
    """Run the selected suites (all by default) with optional parameter
    overrides; unknown names raise ValueError."""
    selected = list(SUITES) if not names else names
    results = []
    for name in selected:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
        results.append(SUITES[name](**overrides))
    return results
