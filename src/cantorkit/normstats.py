"""Block-counting statistics, normality-style reports, orbit distribution,
and exact star discrepancy.

N_{M,n}(B, x) counts occurrences of the digit block B at positions
M <= j < M + n (block starting positions).  The natural normalizer for a
length-k block over the base Q is the position weight
Q_n^(k) = sum_{j<=n} 1/(q_j .. q_{j+k-1}).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .seqcore import (BasicSeq, SpecError, block_weight_sums,
                      default_checkpoints)
from .digitstream import UNKNOWN, DigitStream, shift_T


def count_blocks(stream: DigitStream, block: Sequence[int], n: int,
                 start: int = 1) -> int:
    """Occurrences of `block` starting at positions start <= j < start + n."""
    block = tuple(int(b) for b in block)
    k = len(block)
    if k < 1:
        raise SpecError("block must be nonempty")
    if n < 1:
        return 0
    if start < 1:
        raise SpecError(f"digit index {start} < 1")
    digits = stream.digits(start + n + k - 2)
    if k == 1:
        return digits[start - 1:start - 1 + n].count(block[0])
    return sum(map(block.__eq__, _windows(digits, k, start - 1, start - 1 + n)))


def _windows(digits: list[int], k: int, lo: int, hi: int):
    """The length-k blocks of digits starting at 0-based lo..hi-1, as
    tuples zipped from k shifted slices."""
    return zip(*(digits[lo + i:hi + i] for i in range(k)))


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

    Returns (value, exact_flag): _checkpoint_weights at the one checkpoint n.
    """
    (v,), exact = _checkpoint_weights(q_seq, k, [n], exact_limit)
    return v, exact


def _checkpoint_weights(q_seq: BasicSeq, k: int, checkpoints: Sequence[int],
                       exact_limit: int = 20000) -> tuple[list, bool]:
    """Q_c^(k) for each of the sorted checkpoints c, and whether all are
    exact Fractions.

    Bases periodic from the first index have a closed form at any horizon.
    Other bases get one block_weight_sums pass over the checkpoints up to
    `exact_limit` and a float accumulation per checkpoint beyond.
    """
    per = q_seq.eventual_period()
    if per is not None and per[0] == 0:
        L = per[1]
        per_residue = [Fraction(1, math.prod(q_seq.q(j + i) for i in range(k)))
                       for j in range(1, L + 1)]
        period_sum = sum(per_residue)
        out = []
        for c in checkpoints:
            full, rest = divmod(c, L)
            out.append(full * period_sum + sum(per_residue[:rest]))
        return out, True
    exact = [c for c in checkpoints if c <= exact_limit]
    out = block_weight_sums(q_seq.prefix(exact[-1] + k - 1), k, exact) \
        if exact else []
    out += [_float_weight(q_seq, k, c) for c in checkpoints[len(exact):]]
    return out, len(exact) == len(checkpoints)


def _float_weight(q_seq: BasicSeq, k: int, n: int) -> float:
    """Q_n^(k) in floats: the log of the window q_j..q_{j+k-1} slides by
    one entry per step, entering from one run and leaving from another."""
    total = 0.0
    logw = math.fsum(map(math.log, q_seq.entries(0, k)))
    for nxt, old in zip(q_seq.entries(k, n + k), q_seq.entries(0, n)):
        total += math.exp(-logw)
        logw += math.log(nxt) - math.log(old)
    return total


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
    if k < 0:
        raise SpecError(f"block length {k} < 0")
    if checkpoints is None:
        checkpoints = default_checkpoints(n)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if checkpoints and (checkpoints[0] < 1 or checkpoints[-1] > n):
        raise SpecError("checkpoints must lie in [1, n]")
    blocks = list(itertools.product(range(digit_alphabet), repeat=k))
    digits = stream.digits(n + k - 1)
    counts = {b: [] for b in blocks}
    running = Counter()
    prev = 0
    for c in checkpoints:
        if k:
            running.update(_windows(digits, k, prev, c))
        else:
            running[()] = c     # every position starts the empty block
        for b in blocks:
            counts[b].append(running[b])
        prev = c
    weights, exact_all = _checkpoint_weights(stream.base, k, checkpoints)
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
    pts = [Fraction(p) for p in points]
    if any(not 0 <= p < 1 for p in pts):
        raise SpecError("points must lie in [0, 1)")
    return _fraction_discrepancies(pts, [len(pts)])[0]


def _fraction_discrepancies(pts: list[Fraction],
                            checkpoints: Sequence[int]) -> list[Fraction]:
    order = sorted(range(len(pts)), key=pts.__getitem__)
    return _star_discrepancies([p.numerator for p in pts],
                               [p.denominator for p in pts], order, checkpoints)


def _star_discrepancies(nums: list[int], dens: list[int], order: list[int],
                        checkpoints: Sequence[int]) -> list[Fraction]:
    """D*_N of the points nums[j]/dens[j] with j < c, for each checkpoint c
    (N = min(c, number of points)), given `order`: every index, by
    increasing value.

    The candidates max(x_(i) - (i-1)/N, i/N - x_(i)) share the factor 1/N,
    so each is an integer over dens[j] and is compared by
    cross-multiplication; one Fraction is built per checkpoint.
    """
    out = []
    for c in checkpoints:
        m = min(c, len(order))
        if m < 1:
            raise SpecError("discrepancy of an empty point set")
        best, best_den = 0, 1       # the maximum so far is best/(best_den m)
        for i, j in enumerate([j for j in order if j < c], 1):
            a, b = nums[j], dens[j]
            v = max(a * m - (i - 1) * b, i * b - a * m)
            if v * best_den > best * b:
                best, best_den = v, b
        out.append(Fraction(best, best_den * m))
    return out


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
        nums = stream.digits(n) if n > 0 else []
        dens = stream.base.prefix(n)
        # distinct ratios differ by at least 1/(q q') >= 2^-K, so the
        # floors of ratio * 2^K keep their order exactly
        K = 2 * max(dens, default=1).bit_length()
        keys = [(d << K) // q for d, q in zip(nums, dens)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        ds = _star_discrepancies(nums, dens, order, checkpoints)
        return UDReport(mode=mode, n=n, checkpoints=list(checkpoints),
                        discrepancy=ds)
    if mode == "orbit":
        maxw = Fraction(0)
        pts = []
        for m in range(1, n + 1):
            enc = shift_T(stream, m, depth=orbit_depth)
            maxw = max(maxw, enc.width)
            pts.append(enc.mid if enc.mid < 1 else Fraction(0))
        ds = _fraction_discrepancies(pts, checkpoints)
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
    lo = n // 2
    hits = {d * grid // q
            for d, q in zip(stream._span(lo, n), stream.base.entries(lo, n))}
    cells = sorted({min(c, grid - 1) for c in hits})
    return AccumulationReport(n=n, grid=grid, hit_cells=cells,
                              coverage=len(cells) / grid)


class _GoldenStream(DigitStream):
    """Digits E_n = floor(frac(n g / one) q_n) in integers, one = 2^bits."""

    def __init__(self, q_seq: BasicSeq, bits: int):
        super().__init__(q_seq, None, canonicity=UNKNOWN, label="golden")
        self._bits = bits
        self._g = math.isqrt(5 << (2 * bits)) - (1 << bits)  # ~ (sqrt5-1)/2

    def _fill(self, n: int) -> None:
        start, bits, g = len(self._memo), self._bits, self._g
        mask = (1 << bits) - 1     # j g mod one
        self._memo += [(j * g & mask) * q >> bits for j, q in
                       enumerate(self.base.entries(start, n), start + 1)]


def golden_ratio_stream(q_seq: BasicSeq, precision_bits: int = 256) -> DigitStream:
    """Digits E_n = floor(theta_n q_n) with theta_n = frac(n * g), g the
    golden-section constant at fixed rational precision.  A deterministic
    low-discrepancy digit source for tests and examples."""
    return _GoldenStream(q_seq, precision_bits)
