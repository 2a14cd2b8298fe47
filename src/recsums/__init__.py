"""Exact closed forms and brute-force audits for powers of second-order recurrences."""

from .qfield import (DegenerateSpecError, QuadElem, RecurrenceSpec,
                     is_perfect_square, roots)
from .polyrat import (EvalPoleError, Polynomial, RationalFunction, poly_gcd,
                      poly_to_text, rf_to_latex, rf_to_text)
from .seq import (PrefixStore, binet_pairs, companion, fibonacci,
                  generalized_pell, linear_term, pell_q, preset, reflected,
                  store, term, term_fast, terms)
from .gfpow import SelfCheckError, gf_oracle, gf_power
from .partsum import (horadam_direct, horadam_sums, partial_sum_closed,
                      partial_sum_direct, partial_sum_general_b)
from .binsum import (binom_sum_closed, binom_sum_direct, corollary_lhs,
                     corollary_rhs, fib_weighted_closed, padic_valuation,
                     root_power_collapse)
from .audit import (AuditResult, Claim, REGISTRY, UnknownClaimError, report,
                    run_audit)

__version__ = "0.1.0"
