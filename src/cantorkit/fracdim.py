"""Hausdorff-dimension and Lebesgue-measure estimates for digit-restricted
sets.

Everything dimension-like is a ratio of logs of big-integer products,
reported as a checkpoint trajectory plus a running min -- never a single
"the liminf is" number.  Exact integer products are kept alongside while
they stay small enough to compare exactly; beyond that the per-term log
sums carry the value (error well under 1e-11 at the horizons used here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .seqcore import (BasicSeq, Geometric, HypothesisError, SpecError,
                      default_checkpoints)
from .digitstream import DigitStream

EXACT_BITS = 4096


@dataclass
class DimEstimate:
    horizon: int
    checkpoints: list[int]
    values: list[float]                     # log-product ratio per checkpoint
    running_min: list[float]
    exact_at: dict[int, tuple[int, int]]    # checkpoint -> (num, den) products
    log_num: float
    log_den: float

    @property
    def last(self) -> float:
        return self.values[-1]


def dim_ratio(num_of: Callable[[int], int], den_of: Callable[[int], int],
              horizon: int,
              checkpoints: Optional[Sequence[int]] = None) -> DimEstimate:
    """liminf proxy for log(prod num_j) / log(prod den_j)."""
    if checkpoints is None:
        checkpoints = default_checkpoints(horizon)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    ln = ld = 0.0
    num_prod: Optional[int] = 1
    den_prod: Optional[int] = 1
    est = DimEstimate(horizon=horizon, checkpoints=list(checkpoints), values=[],
                      running_min=[], exact_at={}, log_num=0.0, log_den=0.0)
    rmin = math.inf
    ci = 0
    for j in range(1, horizon + 1):
        a, b = num_of(j), den_of(j)
        if a < 1 or b < 2:
            raise SpecError(f"ratio factors need num >= 1, den >= 2; got {a}, {b}")
        ln += math.log(a)
        ld += math.log(b)
        if num_prod is not None:
            num_prod *= a
            den_prod *= b
            if den_prod.bit_length() > EXACT_BITS:
                num_prod = den_prod = None
        v = ln / ld
        rmin = min(rmin, v)
        if ci < len(checkpoints) and j == checkpoints[ci]:
            est.values.append(v)
            est.running_min.append(rmin)
            if num_prod is not None:
                est.exact_at[j] = (num_prod, den_prod)
            ci += 1
    est.log_num, est.log_den = ln, ld
    return est


@dataclass
class WegmannReport:
    estimate: DimEstimate
    hypothesis_trajectory: list[float]      # log q_n / log(q_1..q_n)
    hypothesis_trend_ok: bool               # decreasing toward 0 at the horizon


def wegmann_report(q_seq: BasicSeq, size_of: Callable[[int], int],
                   horizon: int = 10000,
                   checkpoints: Optional[Sequence[int]] = None) -> WegmannReport:
    """Dimension of the restricted-digit set with |I_j| = size_of(j) choices
    at position j: liminf log(prod |I_j|) / log(prod q_j).

    The formula needs log q_n / log(q_1..q_n) -> 0; that diagnostic is
    always attached, never assumed.
    """
    est = dim_ratio(size_of, q_seq.q, horizon, checkpoints)
    traj = []
    ld = 0.0
    ci = 0
    cps = est.checkpoints
    for j in range(1, horizon + 1):
        lq = math.log(q_seq.q(j))
        ld += lq
        if ci < len(cps) and j == cps[ci]:
            traj.append(lq / ld)
            ci += 1
    ok = len(traj) >= 2 and traj[-1] <= traj[0] and traj[-1] < 0.05
    return WegmannReport(estimate=est, hypothesis_trajectory=traj,
                         hypothesis_trend_ok=ok)


# ---------------------------------------------------------------------------
# the image of the real line under the clamp map

@dataclass
class RangeReport:
    horizon: int
    dim: WegmannReport
    measure_partial_log: float              # log prod min(p_j,q_j)/q_j
    measure_partial: Optional[Fraction]     # exact while small


def range_report(p_seq: BasicSeq, q_seq: BasicSeq, horizon: int = 10000,
                 exact_limit: int = 400) -> RangeReport:
    """The clamp map's range is the digit-restricted set with
    |I_j| = min(p_j, q_j) choices; its measure is prod min(p_j,q_j)/q_j."""
    wr = wegmann_report(q_seq, lambda j: min(p_seq.q(j), q_seq.q(j)), horizon)
    log_m = 0.0
    exact: Optional[Fraction] = Fraction(1)
    for j in range(1, horizon + 1):
        p, q = p_seq.q(j), q_seq.q(j)
        log_m += math.log(min(p, q)) - math.log(q)
        if exact is not None and j <= exact_limit:
            exact *= Fraction(min(p, q), q)
        elif j == exact_limit + 1:
            exact = None
    return RangeReport(horizon=horizon, dim=wr, measure_partial_log=log_m,
                       measure_partial=exact)


# ---------------------------------------------------------------------------
# level sets

def level_weight(p: int, q: int, e: int) -> int:
    """Number of source digits mapping onto the target digit e."""
    if e >= q:
        raise SpecError(f"target digit {e} >= base {q}")
    if e >= p:
        return 0
    if e <= q - 2:
        return 1
    return max(p - q + 1, 0)


@dataclass
class LevelReport:
    horizon: int
    last_nonzero: Optional[int]
    empty_at: Optional[int]                 # first position with weight 0
    dim: DimEstimate
    measure_log_canonical: float            # branch following the given digits
    measure_log_dual: Optional[float]       # all-max-tail branch (terminating w)
    measure_partial: Optional[Fraction]


def level_report(p_seq: BasicSeq, q_seq: BasicSeq, w_digits: Sequence[int],
                 horizon: int = 10000, exact_limit: int = 400) -> LevelReport:
    """Size of the fiber over the point with the given (terminating) digits.

    Positions beyond the digits force the single source digit 0 on the
    canonical branch; the dual representation (digits q_j - 1 from M+1 on)
    contributes the p_j - q_j + 1 clamped choices instead, which is where
    a terminating target picks up positive measure.
    """
    w_digits = [int(d) for d in w_digits]
    M = 0
    for i, d in enumerate(w_digits):
        if d:
            M = i + 1

    def weight(j: int) -> int:
        e = w_digits[j - 1] if j <= len(w_digits) else 0
        return level_weight(p_seq.q(j), q_seq.q(j), e)

    empty_at = None
    for j in range(1, horizon + 1):
        if weight(j) == 0:
            empty_at = j
            break
    dim = dim_ratio(lambda j: max(weight(j), 1), p_seq.q, horizon)
    log_c = 0.0
    exact: Optional[Fraction] = Fraction(1)
    for j in range(1, horizon + 1):
        wj = weight(j)
        if wj == 0:
            log_c = -math.inf
            exact = Fraction(0) if exact is not None else None
            break
        log_c += math.log(wj) - math.log(p_seq.q(j))
        if exact is not None and j <= exact_limit:
            exact *= Fraction(wj, p_seq.q(j))
        elif j == exact_limit + 1:
            exact = None
    log_d = None
    if empty_at is None or empty_at > M:
        log_d = 0.0
        for j in range(1, horizon + 1):
            if j <= M:
                wj = weight(j)
            else:
                wj = max(p_seq.q(j) - q_seq.q(j) + 1, 0)
            if wj == 0:
                log_d = -math.inf
                break
            log_d += math.log(wj) - math.log(p_seq.q(j))
    return LevelReport(horizon=horizon, last_nonzero=M or None,
                       empty_at=empty_at, dim=dim,
                       measure_log_canonical=log_c, measure_log_dual=log_d,
                       measure_partial=exact)


@dataclass
class LevelSumReport:
    K: int
    series: Fraction          # sum_k (q_k-1)/p_k * prod_{k<j<=K} (1-(q_j-1)/p_j)
    telescoped: Fraction      # 1 - prod_{j<=K} (1-(q_j-1)/p_j)
    tail_term_bound: float    # (q_{K+1}-1)/p_{K+1}, the next increment scale


def level_measure_sum(p_seq: BasicSeq, q_seq: BasicSeq, K: int) -> LevelSumReport:
    """Total measure of the fibers over terminating points, truncated at K.

    The sum telescopes: both columns are exact rationals and must agree;
    they converge to 1 - prod (1 - (q_j-1)/p_j) as K grows.
    """
    a = []
    for j in range(1, K + 1):
        p, q = p_seq.q(j), q_seq.q(j)
        if q > p:
            raise HypothesisError(f"needs q_j <= p_j; failed at j={j}")
        a.append(Fraction(q - 1, p))
    series = Fraction(0)
    suffix = Fraction(1)   # prod_{j>k} (1 - a_j), built from the right
    for k in range(K, 0, -1):
        series += a[k - 1] * suffix
        suffix *= 1 - a[k - 1]
    telescoped = 1 - suffix
    nxt = float(Fraction(q_seq.q(K + 1) - 1, p_seq.q(K + 1)))
    return LevelSumReport(K=K, series=series, telescoped=telescoped,
                          tail_term_bound=nxt)


# ---------------------------------------------------------------------------
# multifractal witness

@dataclass
class MultifractalReport:
    alpha: Fraction
    gamma: Fraction
    horizon: int
    checkpoints: list[int]
    dim_level: list[float]        # -> alpha
    dim_range: list[float]        # -> 1 - alpha/gamma
    gamma_diag: list[float]       # log prod q / log prod p
    exact_zero: bool              # numerator identically zero (alpha = 0 case)


def multifractal_schedule(alpha: Fraction, gamma: Fraction,
                          horizon: int) -> Callable[[int], bool]:
    """Position -> is it on a forced (all-max digit) segment?

    Stage t contributes ceil((1 - a/g) t) free positions then
    ceil((a/g) t) forced ones.
    """
    r = Fraction(alpha) / Fraction(gamma)
    if not 0 <= r <= 1:
        raise HypothesisError("alpha/gamma must lie in [0, 1]")
    flags = []
    t = 1
    while len(flags) < horizon:
        free = math.ceil((1 - r) * t)
        forced = math.ceil(r * t)
        flags.extend([False] * free + [True] * forced)
        t += 1
    return lambda n: flags[n - 1]


def multifractal_witness(p_seq: BasicSeq, q_seq: BasicSeq, alpha, gamma,
                         horizon: int = 10000,
                         checkpoints: Optional[Sequence[int]] = None) -> MultifractalReport:
    """A target set and point schedule whose level-set dimension tracks
    alpha while the target-side set keeps dimension 1 - alpha/gamma.

    gamma is the gap exponent: the limit of log(prod (p_j - q_j + 1)) /
    log(prod p_j) (diagnostic attached).  Free positions allow digits
    0..q-2 (fiber weight 1), forced positions pin the digit q-1 (fiber
    weight p - q + 1).
    """
    alpha, gamma = Fraction(alpha), Fraction(gamma)
    forced = multifractal_schedule(alpha, gamma, horizon)
    if checkpoints is None:
        checkpoints = default_checkpoints(horizon)
    checkpoints = sorted(set(int(c) for c in checkpoints))

    def omega(j: int) -> int:
        if not forced(j):
            return 1
        v = p_seq.q(j) - q_seq.q(j) + 1
        if v < 1:
            raise HypothesisError(f"needs p_j > q_j; failed at j={j}")
        return v

    def upsilon(j: int) -> int:
        return 1 if forced(j) else q_seq.q(j) - 1

    level = dim_ratio(omega, p_seq.q, horizon, checkpoints)
    rng = dim_ratio(upsilon, q_seq.q, horizon, checkpoints)
    gd = dim_ratio(lambda j: max(p_seq.q(j) - q_seq.q(j) + 1, 1), p_seq.q,
                   horizon, checkpoints)
    exact_zero = alpha == 0
    return MultifractalReport(alpha=alpha, gamma=gamma, horizon=horizon,
                              checkpoints=list(checkpoints),
                              dim_level=[0.0] * len(checkpoints) if exact_zero
                              else level.values,
                              dim_range=rng.values, gamma_diag=gd.values,
                              exact_zero=exact_zero)


# ---------------------------------------------------------------------------
# bi-Lipschitz restriction domain

@dataclass
class ZpqDimBounds:
    lower: DimEstimate
    upper: DimEstimate


def zpq_dim_bounds(p_seq: BasicSeq, q_seq: BasicSeq,
                   horizon: int = 10000) -> ZpqDimBounds:
    """Dimension bracket for the run-restricted bi-Lipschitz domain.

    Lower: digits avoiding {0, p_j - 1} and the clamp region,
    min(p_j - 2, q_j - 1) choices.  Upper: all clamp-respecting digits,
    min(p_j, q_j) choices.
    """
    lo = dim_ratio(lambda j: max(min(p_seq.q(j) - 2, q_seq.q(j) - 1), 1),
                   p_seq.q, horizon)
    hi = dim_ratio(lambda j: min(p_seq.q(j), q_seq.q(j)), p_seq.q, horizon)
    return ZpqDimBounds(lower=lo, upper=hi)


# ---------------------------------------------------------------------------
# rationality / structure of the exceptional set

@dataclass
class RationalityReport:
    horizon: int
    sign_pattern: str                  # p_dominates | q_dominates | equal | mixed
    pos: int
    neg: int
    zero: int
    divisibility: dict[int, Optional[int]]   # m -> first n with m | q_n
    divisibility_ok: bool
    gap_sum_partial: float             # sum q_j / p_j
    gap_sum_converged: Optional[bool]  # certificate, None when unknown
    full_measure_verdict: str          # full | not_full | unknown
    dim_lower: DimEstimate             # sizes p_j - q_j
    dim_upper: DimEstimate             # sizes p_j - q_j + 1


def _certify_ratio_sum(p_seq: BasicSeq, q_seq: BasicSeq,
                       horizon: int) -> Optional[bool]:
    """True/False when the convergence of sum q_j/p_j is provable by kind."""
    if isinstance(p_seq, Geometric) and p_seq.r >= 2:
        if q_seq.upper_bound() is not None:
            return True
        if isinstance(q_seq, Geometric):
            if q_seq.r < p_seq.r:
                return True
            return None
    if (p_seq.eventual_period() is not None
            and q_seq.eventual_period() is not None):
        return False    # terms are eventually periodic and positive
    return None


def rationality_report(p_seq: BasicSeq, q_seq: BasicSeq, horizon: int = 2000,
                       m_bound: int = 50,
                       div_horizon: int = 100000) -> RationalityReport:
    """Structure report for where the clamp map sends rationals astray.

    Sign pattern of p_j - q_j, a divisibility scan (every m <= m_bound
    should divide some q_n for the rational-image arguments to apply), the
    measure dichotomy sum q_j/p_j, and the dimension bracket built from
    p_j - q_j and p_j - q_j + 1 digit choices.
    """
    pos = neg = zero = 0
    gap = 0.0
    for j in range(1, horizon + 1):
        p, q = p_seq.q(j), q_seq.q(j)
        if p > q:
            pos += 1
        elif p < q:
            neg += 1
        else:
            zero += 1
        gap += q / p
    if neg == 0 and pos > 0:
        pattern = "p_dominates"
    elif pos == 0 and neg > 0:
        pattern = "q_dominates"
    elif pos == neg == 0:
        pattern = "equal"
    else:
        pattern = "mixed"
    qe = q_seq.eventual_period()
    scan = (qe[0] + qe[1]) if qe is not None else div_horizon
    div: dict[int, Optional[int]] = {}
    for m in range(2, m_bound + 1):
        found = None
        for n in range(1, min(scan, div_horizon) + 1):
            if q_seq.q(n) % m == 0:
                found = n
                break
        div[m] = found
    conv = _certify_ratio_sum(p_seq, q_seq, horizon)
    verdict = {True: "full", False: "not_full", None: "unknown"}[conv]
    lo = dim_ratio(lambda j: max(p_seq.q(j) - q_seq.q(j), 1), p_seq.q, horizon)
    hi = dim_ratio(lambda j: max(p_seq.q(j) - q_seq.q(j) + 1, 1), p_seq.q, horizon)
    return RationalityReport(horizon=horizon, sign_pattern=pattern, pos=pos,
                             neg=neg, zero=zero, divisibility=div,
                             divisibility_ok=all(v is not None for v in div.values()),
                             gap_sum_partial=gap, gap_sum_converged=conv,
                             full_measure_verdict=verdict, dim_lower=lo,
                             dim_upper=hi)
