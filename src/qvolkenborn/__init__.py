"""Exact and p-adic computation engine for q-deformed Volkenborn integrals.

The package computes the q-Bernoulli and fermionic q-Euler number families
(plus their Dirichlet-character twists) three ways — closed forms in an
exact rational-function field, truncated formal power series, and certified
p-adic Riemann-sum limits — and cross-checks every route against the others.
"""

from .algebra import (CyclotomicElement, InputError, NonCyclotomicDenominator,
                      PoleError, Polynomial, QvolkError, RationalFunction,
                      RootOrderMismatch, ZeroAtPrecisionError, cyclotomic_polynomial)
from .characters import (DirichletCharacter, UnitGroupStructure,
                         character_value, conductor, enumerate_characters,
                         make_character, parse_character_id,
                         unit_group_structure)
from .padic import (PadicNumber, PrecisionExhausted, ProfiniteDomain,
                    ball_representatives, padic_from_rational)
from .qmeasure import (BOSONIC, FERMIONIC, BracketPower, IntegrationResult,
                       MeasureSpec, QDescriptor, ball_measure_sum,
                       bosonic_power_moment, bracket_power,
                       fermionic_power_moment, integrate, parse_integrand,
                       riemann_sum)
from .qnumbers import (beta_number, beta_polynomial, classical_bernoulli,
                       classical_euler, k_chi, k_distribution_rhs, k_number,
                       k_polynomial)
from .series import (PartialSum, TruncatedSeries, euler_gf,
                     f_q_coefficient_partial, f_q_series, scaled_coefficient,
                     series_inverse)

__version__ = "0.1.0"
