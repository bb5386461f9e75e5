"""Exact-arithmetic irrationality certificates for pi and e.

Every numeric claim is backed either by exact rational arithmetic or by an
enclosure: an interval with rational endpoints certified to contain the
true real value.
"""

from .numbers import RationalInterval, iv_sqrt, to_decimal
from .combinatorics import (binomial, binomial_expand, dominance_index,
                            factorial, growth_table, pascal_rows,
                            sqrt_rationality)
from .polynomials import (EndpointDerivatives, Poly, derivative,
                          niven_endpoint_derivatives, niven_poly,
                          nth_derivative, reflect)
from .series import (Enclosure, cos_enclosure, e_enclosure, e_partial_sum,
                     e_sandwich_enclosure, e_tail_enclosure, exp_enclosure,
                     sandwich_check, sin_enclosure, squeeze_check)
from .pi_engine import (CFExpansion, PiEnclosure, PrecisionExhausted,
                        archimedes_bounds, continued_fraction, pi_by_cos_root,
                        pi_enclosure, rhind_value)
from .trigpoly import (PiPoly, PiRat, TrigPoly, antiderivative_p_sin,
                       definite_01, pirat_eval_interval, pirat_substitute_pi2,
                       trig_derivative)
from .witness import (EWitnessReport, IdentityReport, PiWitnessReport,
                      build_g, choose_niven_n, e_witness, niven_g_table,
                      pi_witness, verify_ode_identity)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
