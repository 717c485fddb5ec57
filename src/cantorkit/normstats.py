"""Block-counting statistics, normality-style reports, orbit distribution,
and exact star discrepancy.

N_{M,n}(B, x) counts occurrences of the digit block B at positions
M <= j < M + n (block starting positions).  The natural normalizer for a
length-k block over the base Q is the position weight
Q_n^(k) = sum_{j<=n} 1/(q_j .. q_{j+k-1}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .seqcore import BasicSeq, SpecError, default_checkpoints, prefix_products
from .digitstream import DigitStream, shift_T


def count_blocks(stream: DigitStream, block: Sequence[int], n: int,
                 start: int = 1) -> int:
    """Occurrences of `block` starting at positions start <= j < start + n."""
    block = [int(b) for b in block]
    k = len(block)
    if k < 1:
        raise SpecError("block must be nonempty")
    if n < 1:
        return 0
    if start < 1:
        raise SpecError(f"digit index {start} < 1")
    digits = stream.digits(start + n + k - 2)
    return sum(digits[j:j + k] == block for j in range(start - 1, start - 1 + n))


def cumulative_block_counts(stream: DigitStream, block: Sequence[int],
                            n: int, start: int = 1) -> list[int]:
    """count_blocks for every prefix length 1..n, in one pass."""
    block = [int(b) for b in block]
    k = len(block)
    out = []
    c = 0
    digits = stream.digits(start + n + k - 2)
    for j in range(start, start + n):
        if digits[j - 1:j - 1 + k] == block:
            c += 1
        out.append(c)
    return out


def block_weight(q_seq: BasicSeq, k: int, n: int, exact_limit: int = 20000):
    """Q_n^(k), exact Fraction when cheap, float otherwise.

    Bases periodic from the first index have a closed form at any horizon;
    other bases get the integer-numerator recurrence up to `exact_limit`
    and a float accumulation beyond.  Returns (value, exact_flag).
    """
    per = q_seq.eventual_period()
    if per is not None and per[0] == 0:
        L = per[1]
        full, rest = divmod(n, L)
        per_residue = [Fraction(1, math.prod(q_seq.q(j + i) for i in range(k)))
                       for j in range(1, L + 1)]
        v = full * sum(per_residue) + sum(per_residue[:rest])
        return v, True
    if n <= exact_limit:
        return prefix_products(q_seq, n, [k]).block_weights[k], True
    total = 0.0
    logs = 0.0
    window = [q_seq.q(j) for j in range(1, k + 1)]
    logw = math.fsum(math.log(v) for v in window)
    for j in range(1, n + 1):
        total += math.exp(-logw)
        nxt = q_seq.q(j + k)
        logw += math.log(nxt) - math.log(window[0])
        window = window[1:] + [nxt]
    return total, False


@dataclass
class NormalityReport:
    k: int
    n: int
    checkpoints: list[int]
    blocks: list[tuple[int, ...]]
    counts: dict[tuple[int, ...], list[int]]       # per checkpoint
    weights: list                                  # Q_n^(k) per checkpoint
    weights_exact: bool
    ratios: dict[tuple[int, ...], list[float]]


def normality_report(stream: DigitStream, k: int, digit_alphabet: int, n: int,
                     checkpoints: Optional[Sequence[int]] = None) -> NormalityReport:
    """Counts and normalized ratios for every length-k block over
    {0..digit_alphabet-1}, at checkpoints up to n.

    For a distribution-normal stream the ratios trend to 1; the report
    never asserts the limit, it shows the trajectory.
    """
    import itertools
    if checkpoints is None:
        checkpoints = default_checkpoints(n)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    blocks = [tuple(b) for b in itertools.product(range(digit_alphabet), repeat=k)]
    digits = stream.digits(n + k - 1)
    counts = {b: [] for b in blocks}
    running = {b: 0 for b in blocks}
    ci = 0
    for j in range(1, n + 1):
        w = tuple(digits[j - 1:j - 1 + k])
        if w in running:
            running[w] += 1
        if ci < len(checkpoints) and j == checkpoints[ci]:
            for b in blocks:
                counts[b].append(running[b])
            ci += 1
    weights = []
    exact_all = True
    for c in checkpoints:
        wv, ex = block_weight(stream.base, k, c)
        weights.append(wv)
        exact_all = exact_all and ex
    ratios = {b: [cnt / float(w) if w else math.inf
                  for cnt, w in zip(counts[b], weights)] for b in blocks}
    return NormalityReport(k=k, n=n, checkpoints=list(checkpoints), blocks=blocks,
                           counts=counts, weights=weights,
                           weights_exact=exact_all, ratios=ratios)


# ---------------------------------------------------------------------------
# star discrepancy

def star_discrepancy(points: Sequence) -> Fraction:
    """Exact star discrepancy of a finite point set in [0, 1).

    D*_N = max over the sorted points of
    max(x_(i) - (i-1)/N, i/N - x_(i)), computed in exact rationals.
    """
    pts = sorted(Fraction(p) for p in points)
    n = len(pts)
    if n == 0:
        raise SpecError("discrepancy of an empty point set")
    if any(not 0 <= p < 1 for p in pts):
        raise SpecError("points must lie in [0, 1)")
    best = Fraction(0)
    for i, x in enumerate(pts, start=1):
        best = max(best, x - Fraction(i - 1, n), Fraction(i, n) - x)
    return best


def star_discrepancy_oracle(points: Sequence) -> Fraction:
    """Quadratic sup over interval endpoints t in {points, 1}: counts of
    points strictly below / not above each candidate t."""
    pts = sorted(Fraction(p) for p in points)
    n = len(pts)
    best = Fraction(0)
    for t in pts + [Fraction(1)]:
        below = sum(1 for p in pts if p < t)
        at_or_below = sum(1 for p in pts if p <= t)
        best = max(best, abs(Fraction(below, n) - t), abs(Fraction(at_or_below, n) - t))
    return best


# ---------------------------------------------------------------------------
# distribution reports

@dataclass
class UDReport:
    mode: str                      # "digit-ratio" | "orbit"
    n: int
    checkpoints: list[int]
    discrepancy: list[Fraction]
    orbit_depth: Optional[int] = None
    max_enclosure_width: Optional[Fraction] = None


def ud_report(stream: DigitStream, mode: str, n: int,
              checkpoints: Optional[Sequence[int]] = None,
              orbit_depth: int = 40) -> UDReport:
    """Star discrepancy of the digit ratios E_m/q_m or of the shifted
    orbit T_m(x) (enclosure midpoints at `orbit_depth` extra digits).

    distribution-normal <=> orbit equidistribution; when (1/N) sum 1/q_m -> 0
    it is also equivalent to the digit ratios being u.d. mod 1.
    """
    if checkpoints is None:
        checkpoints = default_checkpoints(n, count=8)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if mode == "digit-ratio":
        pts = [Fraction(stream.digit(m), stream.base.q(m)) for m in range(1, n + 1)]
        ds = [star_discrepancy(pts[:c]) for c in checkpoints]
        return UDReport(mode=mode, n=n, checkpoints=list(checkpoints),
                        discrepancy=ds)
    if mode == "orbit":
        maxw = Fraction(0)
        pts = []
        for m in range(1, n + 1):
            enc = shift_T(stream, m, depth=orbit_depth)
            maxw = max(maxw, enc.width)
            pts.append(enc.mid if enc.mid < 1 else Fraction(0))
        ds = [star_discrepancy(pts[:c]) for c in checkpoints]
        return UDReport(mode=mode, n=n, checkpoints=list(checkpoints),
                        discrepancy=ds, orbit_depth=orbit_depth,
                        max_enclosure_width=maxw)
    raise SpecError(f"unknown ud mode {mode!r}")


@dataclass
class AccumulationReport:
    n: int
    grid: int
    hit_cells: list[int]
    coverage: float


def accumulation_estimate(stream: DigitStream, n: int, grid: int = 100) -> AccumulationReport:
    """Grid cells hit by the digit ratios E_m/q_m for m in (n/2, n].

    The set of accumulation points of the ratio sequence is what the
    level-set and Delta-cell arguments care about; the late-half window
    drops transient early digits.
    """
    q = stream.base.q
    lo = n // 2
    hits = {min(d * grid // q(m), grid - 1)
            for m, d in enumerate(stream._span(lo, n), lo + 1)}
    cells = sorted(hits)
    return AccumulationReport(n=n, grid=grid, hit_cells=cells,
                              coverage=len(cells) / grid)


def golden_ratio_stream(q_seq: BasicSeq, precision_bits: int = 256) -> DigitStream:
    """Digits E_n = floor(theta_n q_n) with theta_n = frac(n * g), g the
    golden-section constant at fixed rational precision.  A deterministic
    low-discrepancy digit source for tests and examples."""
    one = 1 << precision_bits
    g = math.isqrt(5 << (2 * precision_bits)) - one   # g / one ~ (sqrt5-1)/2

    def rule(n: int) -> int:
        # floor(frac(n g / one) * q_n), in integers
        return (n * g % one * q_seq.q(n)) >> precision_bits

    return DigitStream(q_seq, rule, canonicity="unknown", label="golden")
