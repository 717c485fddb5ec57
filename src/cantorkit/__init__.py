"""Exact arithmetic for Cantor series expansions.

Subpackages: seqcore (bases), digitstream (expansions), psi (the digitwise
clamp transform), normstats (normality and discrepancy statistics),
foundry (normal-number constructions), fracdim (dimension and measure
estimates), cli (command-line reports).
"""

from .seqcore import (Affine, BasicSeq, Concatenated, Constant, Explicit,
                      Formula, Geometric, HypothesisError, IID, Periodic,
                      SpecError, UndecidedError, birkhoff_report, from_spec,
                      prefix_products, sample_iid, truncate_tail)
from .digitstream import (DigitStream, Enclosure, RationalDigitStream,
                          canonicalize, enclose_prefix, expand_rational,
                          from_digits, from_rule, shift_T, stream_value)
from .psi import (approximant_bound, approximant_eval, approximant_integral,
                  bv_check, classify_continuity, compose_chain, ed_transform,
                  holder_report, monotonicity_witness, psi_map, psi_value,
                  variation_formula, variation_oracle)
from .normstats import (count_blocks, normality_report, star_discrepancy,
                        ud_report)
from .foundry import (dnnotrn_pair, nnotdn_pair, nu_mass, orbit_closeness,
                      qnex_pair, rdn_kappa, rdn_measure_log10, RdnSeq,
                      rnnotn_pair, vbw_digit, vbw_rank, vbw_unrank)
from .fracdim import (level_measure_sum, level_report, multifractal_witness,
                      range_report, rationality_report, wegmann_report,
                      zpq_dim_bounds)

__version__ = "0.1.0"
