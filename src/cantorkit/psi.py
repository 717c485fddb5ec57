"""The digitwise clamp transform between two Cantor series systems.

A point x with digits E_n over the base P = (p_n) is sent to the point of
the base Q = (q_n) whose digits are min(E_n, q_n - 1).  This module has the
exact evaluators (values, finite-stage piecewise-linear approximants,
integrals), the one-sided continuity classifier at terminating points, the
total-variation formula for the finite stages, and the Hölder/monotonicity
diagnostics.

The finite-stage sums (approximant values and samples, the left limit at
1, the integral, the variation and its upper bound) and the clamped tail
sums behind the continuity classifier run on integers: P-digits come from
integer remainders, sums over Q are Horner steps (num = num*q + d), and one
Fraction is built at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .seqcore import (BasicSeq, Formula, HypothesisError, SpecError,
                      UndecidedError)
from .digitstream import (DigitStream, Enclosure, TERMINATING, UNKNOWN,
                          expand_rational, detect_max_tail, horner)


class _ImageStream(DigitStream):
    """The digits min(E_n, q_n - 1) of a source stream, over q_seq."""

    def __init__(self, stream: DigitStream, q_seq: BasicSeq):
        super().__init__(q_seq, None, e0=stream.e0, canonicity=UNKNOWN,
                         label="psi")
        self._source = stream

    def _fill(self, n: int) -> None:
        self._source.digit(n)        # fills the source's memo through n
        lo = len(self._memo)
        # min(E_j, q_j - 1) by one comparison (a call to min costs several
        # times more), reading the source memo in place: islice would step
        # from index 0 on every fill
        self._memo += [d if d < q else q - 1 for d, q in
                       zip(map(self._source._memo.__getitem__, range(lo, n)),
                           self.base.entries(lo, n))]


def psi_map(stream: DigitStream, q_seq: BasicSeq,
            canonicity_window: int = 0) -> DigitStream:
    """Image stream: digits min(E_n, q_n - 1) over q_seq.

    The image of a canonical stream may acquire an all-max tail, so the
    result is tagged unknown; pass canonicity_window > 0 to scan that many
    digits for tail evidence (detect_max_tail) and record it.
    """
    out = _ImageStream(stream, q_seq)
    if canonicity_window:
        out.max_tail_start = detect_max_tail(out, canonicity_window)
    return out


def compose_chain(stream: DigitStream, bases: Sequence[BasicSeq]) -> DigitStream:
    """psi through a chain of bases, innermost first."""
    for b in bases:
        stream = psi_map(stream, b)
    return stream


# ---------------------------------------------------------------------------
# exact evaluation helpers

def psi_terminating_value(p_seq: BasicSeq, q_seq: BasicSeq,
                          digits: Sequence[int], e0: int = 0) -> Fraction:
    """Exact image value of a point given by finitely many P-digits."""
    val = Fraction(e0)
    prod = 1
    for j, e in enumerate(digits, start=1):
        if not 0 <= e < p_seq.q(j):
            raise SpecError(f"digit E_{j} = {e} outside [0, {p_seq.q(j)})")
        prod *= q_seq.q(j)
        val += Fraction(min(e, q_seq.q(j) - 1), prod)
    return val


def psi_value(p_seq: BasicSeq, q_seq: BasicSeq, x, horizon: int = 512):
    """psi at an exact rational x.

    Returns a zero-width Enclosure when the value is exactly decidable
    (terminating expansion, or both bases eventually periodic so the digit
    and clamp pattern recurs); otherwise an enclosure at the horizon.
    """
    stream = expand_rational(x, p_seq)
    e0 = stream.e0
    # terminating case: finite sum
    for probe in (64, horizon):
        stream.digits(probe)
        if stream.canonicity == TERMINATING:
            t = stream.last_nonzero or 0
            v = psi_terminating_value(p_seq, q_seq, stream.digits(t), e0)
            return Enclosure(v, v)
    pp = p_seq.eventual_period()
    qp = q_seq.eventual_period()
    if pp is not None and qp is not None:
        start = max(pp[0], qp[0])
        L = math.lcm(pp[1], qp[1])
        # remainder states recur => digits eventually periodic; find the cycle
        seen: dict[tuple, int] = {}
        n = start
        while n <= horizon + start:
            n += L
            key = (stream.remainder(n), )
            if key in seen:
                n1, n2 = seen[key], n
                head = Fraction(0)
                prod = 1
                for j in range(1, n1 + 1):
                    prod *= q_seq.q(j)
                    head += Fraction(min(stream.digit(j), q_seq.q(j) - 1), prod)
                prod_n1 = prod
                block = Fraction(0)
                rel = 1
                for j in range(n1 + 1, n2 + 1):
                    rel *= q_seq.q(j)
                    block += Fraction(min(stream.digit(j), q_seq.q(j) - 1), rel)
                tail = block * Fraction(rel, rel - 1)
                v = e0 + head + tail / prod_n1
                return Enclosure(v, v)
            seen[key] = n
    lo = psi_terminating_value(p_seq, q_seq, stream.digits(horizon), e0)
    prod = 1
    for j in range(1, horizon + 1):
        prod *= q_seq.q(j)
    return Enclosure(lo, lo + Fraction(1, prod))


# ---------------------------------------------------------------------------
# finite-stage approximants

def _stage_value(ps: Sequence[int], qs: Sequence[int], qprod: int,
                 r: int, den: int) -> Fraction:
    """Stage-t approximant at the point r/den in [0, 1), for the prefixes
    ps, qs (length t) and qprod = q_1..q_t.

    One integer step per position: the P-digit and remainder come from
    divmod(r * p_n, den) and the clamped digit enters a Horner sum over Q.
    After t steps frac - alpha = r/(den * p_1..p_t), so the affine in-cell
    term is r/(den * qprod) and one Fraction is built at the end.
    """
    beta = 0
    for p, q in zip(ps, qs):
        d, r = divmod(r * p, den)
        beta = beta * q + min(d, q - 1)
    return Fraction(r + den * beta, den * qprod)


def approximant_eval(p_seq: BasicSeq, q_seq: BasicSeq, t: int, x) -> Fraction:
    """The stage-t piecewise-linear approximant at x (period-1 extension).

    On each level-t cell of the source base the map is affine with slope
    (p_1..p_t)/(q_1..q_t); the value follows from the first t digits of
    the fractional part.
    """
    x = Fraction(x)
    qs = q_seq.prefix(t)
    den = x.denominator
    return _stage_value(p_seq.prefix(t), qs, math.prod(qs),
                        x.numerator % den, den)


def _clamp_horner(p_seq: BasicSeq, q_seq: BasicSeq, lo: int,
                  hi: int) -> tuple[int, int]:
    """Horner (num, den) over Q of min(p_j, q_j) - 1 for lo < j <= hi."""
    return horner(q_seq.entries(lo, hi),
                  (min(p, q) - 1 for p, q in zip(p_seq.entries(lo, hi),
                                                 q_seq.entries(lo, hi))))


def approximant_left_limit_at_one(p_seq: BasicSeq, q_seq: BasicSeq, t: int) -> Fraction:
    num, qprod = _clamp_horner(p_seq, q_seq, 0, t)
    return Fraction(num + 1, qprod)


def approximant_bound(q_seq: BasicSeq, t: int) -> Fraction:
    """Uniform bound |psi - stage-t approximant| <= 2/(q_1..q_t) <= 2^-(t-1)."""
    return Fraction(2, math.prod(q_seq.entries(0, t)))


def approximant_integral(p_seq: BasicSeq, q_seq: BasicSeq, t: int) -> Fraction:
    """Exact integral of the stage-t approximant over [0, 1].

    Each clamped digit is uniform over its cell column, so position n
    contributes its mean clamp value s_n/p_n over 1/(q_1..q_n); the in-cell
    slope term averages to half a cell height, 1/(2 q_1..q_t).  The means
    share the denominator L = lcm(p_1..p_t), so the sum is one Horner pass.
    """
    ps, qs = p_seq.prefix(t), q_seq.prefix(t)
    L = math.lcm(*set(ps))

    def mean_times_L(p: int, q: int) -> int:
        m = min(p, q)   # s_n = sum over e < p of min(e, q - 1)
        return (m * (m - 1) // 2 + (p - m) * (q - 1)) * (L // p)

    num, qprod = horner(qs, map(mean_times_L, ps, qs))
    return Fraction(2 * num + L, 2 * L * qprod)


def approximant_integral_oracle(p_seq: BasicSeq, q_seq: BasicSeq, t: int) -> Fraction:
    """Trapezoid sum over all level-t cells, cell by cell (independent route)."""
    import itertools
    ps = p_seq.prefix(t)
    qs = q_seq.prefix(t)
    pprod = math.prod(ps)
    qprod = math.prod(qs)
    w_q = [math.prod(qs[n + 1:]) for n in range(t)]   # q_{n+2}..q_t
    total_num = 0   # in units 1/(pprod*qprod)
    for cell in itertools.product(*(range(p) for p in ps)):
        s = sum(min(e, qs[n] - 1) * w_q[n] for n, e in enumerate(cell))
        # area = width * (psi(c) + slope*width/2); in 1/(pprod*qprod) units:
        total_num += s
    # slope*width^2/2 summed over all cells: pprod * (pprod/qprod)*(1/pprod^2)/2
    return Fraction(total_num, pprod * qprod) + Fraction(1, 2 * qprod)


def sample_approximant(p_seq: BasicSeq, q_seq: BasicSeq, t: int,
                       grid: int) -> list[tuple[Fraction, Fraction]]:
    """(x, stage-t value) on the uniform grid i/grid, i = 0..grid-1."""
    ps, qs = p_seq.prefix(t), q_seq.prefix(t)
    qprod = math.prod(qs)
    return [(Fraction(i, grid), _stage_value(ps, qs, qprod, i, grid))
            for i in range(grid)]


# ---------------------------------------------------------------------------
# one-sided continuity at terminating points

@dataclass
class ContinuityReport:
    x: Fraction
    t: int                         # last nonzero digit index
    status: str                    # continuous | jump | undecided
    right_status: str              # always continuous
    jump: Optional[Fraction]       # psi(x) - psi(x-) when exactly known
    jump_bracket: Optional[tuple[Fraction, Fraction]]
    set_tag: Optional[str]         # "A": E_t >= q_t;  "B": some later p_s < q_s
    decided: bool


def certify_ge_tail(p_seq: BasicSeq, q_seq: BasicSeq, start: int,
                    horizon: int) -> Optional[int]:
    """Smallest J in [start, horizon] with p_j >= q_j provable for all j > J,
    or None if no such certificate is found."""
    pp, qp = p_seq.eventual_period(), q_seq.eventual_period()
    if pp is not None and qp is not None:
        s = max(pp[0], qp[0], start)
        L = math.lcm(pp[1], qp[1])
        if all(p_seq.q(j) >= q_seq.q(j) for j in range(s + 1, s + L + 1)):
            J = s
            # tighten: pull J back while the pointwise comparison still holds
            while J > start and p_seq.q(J) >= q_seq.q(J):
                J -= 1
            return J
        return None
    qmax = q_seq.upper_bound()
    if qmax is not None and p_seq.nondecreasing:
        for J in range(start, horizon + 1):
            if p_seq.q(J + 1) >= qmax:
                return J
        return None
    return None


def _clamp_tail_sum(p_seq: BasicSeq, q_seq: BasicSeq, t: int,
                    horizon: int) -> tuple[Optional[Fraction], tuple[Fraction, Fraction]]:
    """sum_{j>t} min(p_j-1, q_j-1) / (q_{t+1}..q_j), relative to position t.

    Returns (exact or None, (lo, hi) bracket).  Exact when a p >= q tail
    certificate exists (the remainder telescopes to a single product) or
    when both bases are eventually periodic (geometric closed form).
    """
    J = certify_ge_tail(p_seq, q_seq, t, horizon)
    if J is not None:
        num, rel = _clamp_horner(p_seq, q_seq, t, J)
        s = Fraction(num + 1, rel)   # telescoped all-(q_j - 1) remainder past J
        return s, (s, s)
    pp, qp = p_seq.eventual_period(), q_seq.eventual_period()
    if pp is not None and qp is not None:
        s0 = max(pp[0], qp[0], t)
        num, rel = _clamp_horner(p_seq, q_seq, t, s0)
        bnum, brel = _clamp_horner(p_seq, q_seq, s0, s0 + math.lcm(pp[1], qp[1]))
        # head + (block sum * brel/(brel - 1)) / rel, the block repeating
        s = Fraction(num * (brel - 1) + bnum, rel * (brel - 1))
        return s, (s, s)
    num, rel = _clamp_horner(p_seq, q_seq, t, horizon)
    return None, (Fraction(num, rel), Fraction(num + 1, rel))


def classify_continuity(p_seq: BasicSeq, q_seq: BasicSeq, x,
                        tail_horizon: int = 256) -> ContinuityReport:
    """One-sided continuity of psi at a terminating point x in (0, 1].

    Right limits always agree with the value; the left side is continuous
    exactly when the digit increment at the last nonzero position matches
    the clamped tail mass.  Exact where the tail is recognizable, else a
    bracket; undecided only when the bracket straddles the critical value.
    """
    x = Fraction(x)
    if not 0 < x <= 1:
        raise SpecError("continuity classification wants x in (0, 1]")
    stream = expand_rational(x, p_seq)
    stream.digits(tail_horizon)
    if stream.canonicity != TERMINATING:
        raise HypothesisError(f"{x} has no terminating expansion within "
                              f"horizon {tail_horizon}")
    t = stream.last_nonzero or 0
    digits = stream.digits(t)
    if t == 0:
        lhs = 1   # value psi(1) ... treat via x=1: increment of e0
        qprod = 1
    else:
        e_t = digits[-1]
        q_t = q_seq.q(t)
        lhs = min(e_t, q_t - 1) - min(e_t - 1, q_t - 1)
        qprod = 1
        for j in range(1, t + 1):
            qprod *= q_seq.q(j)
    exact, (blo, bhi) = _clamp_tail_sum(p_seq, q_seq, t, t + tail_horizon)
    # set tag
    tag = None
    if t > 0 and digits[-1] >= q_seq.q(t):
        tag = "A"
    if exact is not None:
        jump = Fraction(lhs - exact, 1) / qprod
        status = "continuous" if jump == 0 else "jump"
        if status == "jump" and tag is None:
            tag = "B"
        return ContinuityReport(x=x, t=t, status=status, right_status="continuous",
                                jump=jump if jump != 0 else Fraction(0),
                                jump_bracket=None, set_tag=tag, decided=True)
    jlo = (lhs - bhi) / qprod
    jhi = (lhs - blo) / qprod
    if jlo > 0 or jhi < 0:
        if tag is None:
            tag = "B"
        return ContinuityReport(x=x, t=t, status="jump", right_status="continuous",
                                jump=None, jump_bracket=(jlo, jhi),
                                set_tag=tag, decided=True)
    return ContinuityReport(x=x, t=t, status="undecided",
                            right_status="continuous", jump=None,
                            jump_bracket=(jlo, jhi), set_tag=tag, decided=False)


# ---------------------------------------------------------------------------
# total variation of the finite stages

@dataclass
class VariationReport:
    t: int
    value: Fraction
    method: str                     # always "formula"
    upper_bound: Optional[Fraction]


def _check_stage(t: int) -> None:
    if t < 0:
        raise SpecError(f"stage {t} < 0")


def variation_formula(p_seq: BasicSeq, q_seq: BasicSeq, t: int) -> VariationReport:
    """Exact total variation of the stage-t approximant on [0, 1], for
    every t >= 0.  The upper bound is reported only for t >= 2 with
    p_t != q_t."""
    _check_stage(t)
    ps, qs = p_seq.prefix(t), q_seq.prefix(t)
    w = [1] * t                        # w[k] = q_{k+2}..q_t
    for k in range(t - 2, -1, -1):
        w[k] = w[k + 1] * qs[k + 1]
    D = math.prod(qs)
    # S_k = sum_{j>k} min(p_j-1, q_j-1) * w_j  (units 1/D)
    S = [0] * (len(ps) + 1)         # len(ps) = max(t, 0)
    for k in range(t - 1, -1, -1):
        S[k] = S[k + 1] + min(ps[k] - 1, qs[k] - 1) * w[k]
    vnum = 0
    mult = 1   # a type-(k, E) boundary occurs once per choice of leading digits
    for k in range(t):
        # digits E = 1..p-1 raise the clamped digit by 1 while E <= q - 1,
        # then by 0: c boundaries of one kind, p - 1 - c of the other
        c = min(ps[k], qs[k]) - 1
        inner = c * abs(w[k] - S[k + 1] - 1) + (ps[k] - 1 - c) * (S[k + 1] + 1)
        vnum += mult * inner
        mult *= ps[k]
    vnum += S[0] + 1                  # left limit at 1
    pprod = math.prod(ps)
    vnum += pprod                     # slope * total length
    rep = VariationReport(t=t, value=Fraction(vnum, D), method="formula",
                          upper_bound=None)
    if t < 2 or ps[-1] == qs[-1]:
        return rep
    # upper bound: 2 sum_{j>=2} (p_1+..+p_{j-1})(p_j+q_j)/(q_1..q_j), as
    # one Horner pass over Q whose first coefficient is 0
    coeffs = []
    sum_p = 0
    for p, q in zip(ps, qs):
        coeffs.append(sum_p * (p + q))
        sum_p += p
    ub_num, _ = horner(qs, coeffs)
    rep.upper_bound = Fraction(2 * ub_num + 2 * pprod + D, D)
    return rep


_ORACLE_CELLS = 1 << 20


def variation_oracle(p_seq: BasicSeq, q_seq: BasicSeq, t: int) -> Fraction:
    """Breakpoint walk: sum of in-cell rises plus jumps at cell boundaries.

    Enumerates all p_1..p_t cells; raises UndecidedError past _ORACLE_CELLS.
    """
    _check_stage(t)
    ps, qs = p_seq.prefix(t), q_seq.prefix(t)
    pprod = math.prod(ps)
    if pprod > _ORACLE_CELLS:
        raise UndecidedError(f"variation oracle needs {pprod} cells, "
                             f"over its cap of {_ORACLE_CELLS}")
    s = [0]     # clamped numerators of the cells, in order (units 1/D)
    for k in range(t):
        wk = math.prod(qs[k + 1:])
        mins = [min(e, qs[k] - 1) * wk for e in range(ps[k])]
        s = [a + m for a in s for m in mins]
    jumps = sum(abs(b - a - 1) for a, b in zip(s, s[1:]))
    return Fraction(pprod + jumps + s[-1] + 1, math.prod(qs))


@dataclass
class BVReport:
    horizon: int
    double_sum_partial: float
    double_sum_tail_bound: Optional[float]   # None when no certificate
    sum_converged: Optional[bool]
    log_ratio_running_min: float
    ratio_diverging: bool
    verdict: str                             # bounded_variation | not_proven


def _trend_diverging(values: list[float]) -> bool:
    """Eventually-monotone-increase heuristic over the last decade of checkpoints."""
    if len(values) < 4:
        return False
    tail = values[-max(4, len(values) // 3):]
    rising = all(b >= a for a, b in zip(tail, tail[1:]))
    return rising and tail[-1] > tail[0] + 1e-9


def bv_check(p_seq: BasicSeq, q_seq: BasicSeq, horizon: int = 10000) -> BVReport:
    """One-sided bounded-variation certificate for the limit map.

    Sufficient condition: the double series sum_k sum_{j>k} p_k (p_j+q_j) /
    (q_1..q_j) converges and the prefix-product ratio does not diverge.
    Convergence is certified only for bases with a provable bound (constant,
    periodic, iid, explicit-over-those); otherwise the verdict stays
    not_proven with the partial sums reported.
    """
    from .seqcore import birkhoff_report
    rep = birkhoff_report(p_seq, q_seq, horizon)
    partial = rep.bv_partial[-1]
    pmax, qmax = p_seq.upper_bound(), q_seq.upper_bound()
    tail = None
    converged = None
    if pmax is not None and qmax is not None:
        log_qprod = sum(math.log(q_seq.q(j)) for j in range(1, horizon + 1))
        # sum_{j>H} (j-1) pmax (pmax+qmax) / (q_1..q_j) <= geometric envelope
        log_tail = (math.log(pmax * (pmax + qmax)) + math.log(horizon + 1.0)
                    + math.log(2.0) - log_qprod)
        tail = math.exp(log_tail) if log_tail < 700 else math.inf
        converged = tail < math.inf
    diverging = _trend_diverging(rep.log_ratio_running_min[-6:]) or (
        rep.log_ratio_running_min[-1] == rep.log_ratio[0]
        and _trend_diverging(rep.log_ratio))
    verdict = ("bounded_variation"
               if converged and not diverging else "not_proven")
    return BVReport(horizon=horizon, double_sum_partial=partial,
                    double_sum_tail_bound=tail, sum_converged=converged,
                    log_ratio_running_min=rep.log_ratio_running_min[-1],
                    ratio_diverging=diverging, verdict=verdict)


# ---------------------------------------------------------------------------
# non-monotonicity witness

@dataclass
class MonotonicityWitness:
    m: int
    c_digits: list[int]
    x_digits: list[int]
    y_digits: list[int]
    x: Fraction
    y: Fraction
    psi_x: Fraction
    psi_y: Fraction


def monotonicity_witness(p_seq: BasicSeq, q_seq: BasicSeq,
                         prefix: Sequence[int] = (),
                         horizon: int = 1000) -> MonotonicityWitness:
    """Two points x < y in a given cell with psi(x) > psi(y).

    Uses the first index m past the prefix with p_m > q_m: x ends with the
    digits (q_m - 1, 1), y with the single digit q_m; their images differ
    by exactly -1/(q_1..q_{m+1}) in y's favour... i.e. psi(x) is larger.
    Raises UndecidedError when no such m is found by the horizon.
    """
    prefix = [int(d) for d in prefix]
    n = len(prefix) + 1
    for j, d in enumerate(prefix, start=1):
        if not 0 <= d < p_seq.q(j):
            raise SpecError(f"prefix digit {d} invalid at position {j}")
    m = None
    for j in range(n, horizon + 1):
        if p_seq.q(j) > q_seq.q(j):
            m = j
            break
    if m is None:
        raise UndecidedError(f"no index with p_m > q_m found by horizon {horizon}")
    if m == n:
        c = list(prefix)
    else:
        c = prefix + [p_seq.q(n) - 1] + [0] * (m - n - 1)
    x_digits = c + [q_seq.q(m) - 1, 1]
    y_digits = c + [q_seq.q(m)]
    value = lambda ds: sum(Fraction(e, math.prod(p_seq.prefix(j)))
                           for j, e in enumerate(ds, start=1))
    x, y = value(x_digits), value(y_digits)
    px = psi_terminating_value(p_seq, q_seq, x_digits)
    py = psi_terminating_value(p_seq, q_seq, y_digits)
    assert x < y and px > py, "witness construction failed"
    return MonotonicityWitness(m=m, c_digits=c, x_digits=x_digits,
                               y_digits=y_digits, x=x, y=y, psi_x=px, psi_y=py)


# ---------------------------------------------------------------------------
# Hölder exponent diagnostics

@dataclass
class HolderReport:
    alpha: Fraction
    horizon: int
    hypothesis_ok: bool             # min(p_n, q_n) >= 3 up to the horizon
    sup1_log: float                 # log sup of the in-cell expression
    sup1_at: int
    sup2_log: float                 # log sup of the cross-cell expression
    sup2_at: tuple[int, int]
    checkpoints: list[int]
    expr1_log: list[float]
    verdict: str                    # bounded_so_far | diverging


def holder_report(p_seq: BasicSeq, q_seq: BasicSeq, alpha,
                  horizon: int = 2000, k_max: int = 8) -> HolderReport:
    """Track the two suprema controlling the alpha-Hölder seminorm.

    expr1(n) = (p_1..p_n)^a / (q_1..q_n) * min(p_n, q_n)^(1-a)
    expr2(n,k) = (p_1..p_{n+k})^a / (q_1..q_n)
                 * (p_{n+k+1} / max(1, p_{n+k+1} - q_{n+k+1}))^a

    Logs are accumulated per-term; the verdict is a trend call on the
    checkpoint trajectory (eventually-rising => diverging), never a claim
    about the limit.
    """
    from .seqcore import default_checkpoints
    a = Fraction(alpha)
    if not 0 < a <= 1:
        raise SpecError("alpha must be in (0, 1]")
    af = float(a)
    checkpoints = default_checkpoints(horizon)
    hyp = True
    lp = lq = 0.0
    lps = [0.0]     # prefix log p products
    sup1 = -math.inf
    sup1_at = 0
    expr1_ckpt = []
    ci = 0
    exprs = []
    for n in range(1, horizon + 1):
        p, q = p_seq.q(n), q_seq.q(n)
        if min(p, q) < 3:
            hyp = False
        lp += math.log(p)
        lq += math.log(q)
        lps.append(lp)
        e1 = af * lp - lq + (1 - af) * math.log(min(p, q))
        exprs.append(e1)
        if e1 > sup1:
            sup1, sup1_at = e1, n
        if ci < len(checkpoints) and n == checkpoints[ci]:
            expr1_ckpt.append(e1)
            ci += 1
    sup2 = -math.inf
    sup2_at = (0, 0)
    lqs = [0.0]
    for n in range(1, horizon + 1):
        lqs.append(lqs[-1] + math.log(q_seq.q(n)))
    for n in range(1, horizon + 1):
        for k in range(0, k_max + 1):
            if n + k + 1 > horizon:
                break
            p_next = p_seq.q(n + k + 1)
            gap = max(1, p_next - q_seq.q(n + k + 1))
            e2 = af * lps[n + k] - lqs[n] + af * (math.log(p_next) - math.log(gap))
            if e2 > sup2:
                sup2, sup2_at = e2, (n, k)
    running_sup = []
    cur = -math.inf
    ci = 0
    for n, e in enumerate(exprs, start=1):
        cur = max(cur, e)
        if ci < len(checkpoints) and n == checkpoints[ci]:
            running_sup.append(cur)
            ci += 1
    verdict = "diverging" if _trend_diverging(running_sup) else "bounded_so_far"
    return HolderReport(alpha=a, horizon=horizon, hypothesis_ok=hyp,
                        sup1_log=sup1, sup1_at=sup1_at, sup2_log=sup2,
                        sup2_at=sup2_at, checkpoints=checkpoints,
                        expr1_log=expr1_ckpt, verdict=verdict)


# ---------------------------------------------------------------------------
# small-perturbation (digit-identity) transform

@dataclass
class EdTransformReport:
    horizon: int
    gap_sum_partial: Fraction        # sum t_n / q_n
    gap_sum_float: float
    min_p: int
    hypothesis_min_ok: bool          # q_n - t_n >= 3 up to horizon
    identity_window: int
    identity_ok: bool                # image digits equal source digits


def ed_transform(q_seq: BasicSeq, t_of_n, stream: DigitStream,
                 horizon: int = 1000, identity_window: int = 200):
    """Shrink each base entry by t_n: P = (q_n - t_n), map a P-stream into Q.

    Because p_n <= q_n, the clamp never fires: the image has the same
    digits read in the larger base.  The report carries the summability
    diagnostic sum t_n/q_n and the floor hypothesis q_n - t_n >= 3.
    """
    p_seq = Formula(lambda n: q_seq.q(n) - int(t_of_n(n)), label="q-t")
    gap = Fraction(0)
    min_p = None
    hyp = True
    for n in range(1, horizon + 1):
        q = q_seq.q(n)
        tn = int(t_of_n(n))
        if tn < 0 or q - tn < 2:
            raise SpecError(f"t_{n} = {tn} leaves no base (q_{n} = {q})")
        if q - tn < 3:
            hyp = False
        gap += Fraction(tn, q)
        min_p = q - tn if min_p is None else min(min_p, q - tn)
    image = psi_map(stream, q_seq)
    ok = all(image.digit(j) == stream.digit(j)
             for j in range(1, identity_window + 1))
    report = EdTransformReport(horizon=horizon, gap_sum_partial=gap,
                               gap_sum_float=float(gap), min_p=min_p,
                               hypothesis_min_ok=hyp,
                               identity_window=identity_window, identity_ok=ok)
    return p_seq, image, report
