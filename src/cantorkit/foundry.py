"""Constructions of normal-style numbers and their bases.

The building block: for b >= 2 put mass 1/2^b on each digit 0..b-1 and the
leftover (2^b - b)/2^b on the digit b.  The word V(b, w) lists every
length-w block over {0..b} in lexicographic order, each block repeated
2^(bw) * (its product mass) times -- an integer, (2^b - b)^(number of
b-digits).  Total length w * 2^(bw).

Nothing at a real construction stage is ever materialized: indices live in
big integers and digits come from weighted-lexicographic unranking.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterator, Sequence

from .seqcore import (BasicSeq, Formula, SEQ_REGISTRY, SpecError,
                      HypothesisError)
from .digitstream import DigitStream, UNKNOWN, horner
from .psi import psi_map


def nu_mass(b: int, digits: Sequence[int]) -> Fraction:
    """Product mass of a digit block under the stage-b distribution."""
    if b < 2:
        raise SpecError(f"stage parameter b = {b} < 2")
    m = Fraction(1)
    for d in digits:
        if d < 0:
            raise SpecError(f"negative digit {d}")
        if d < b:
            m *= Fraction(1, 2 ** b)
        elif d == b:
            m *= Fraction(2 ** b - b, 2 ** b)
        else:
            return Fraction(0)
    return m


def block_repeats(b: int, digits: Sequence[int]) -> int:
    """2^(b * len) * nu_mass: how often the block repeats inside V(b, w)."""
    r = nu_mass(b, digits) * 2 ** (b * len(digits))
    assert r.denominator == 1
    return r.numerator


def vbw_length(b: int, w: int) -> int:
    return w * 2 ** (b * w)


def vbw_unrank(b: int, w: int, rep: int) -> list[int]:
    """Digits of the block owning 0-based repetition index `rep`.

    Repetitions are ordered: all repeats of the lexicographically first
    block, then the next block, and so on; `rep` ranges over [0, 2^(bw)).
    Below a prefix of weight wp with rem free positions left, each digit
    d < b (weight 1) roots a subtree of sub = wp * 2^(b rem) repetitions,
    so the digit is min(rep // sub, b).
    """
    if not 0 <= rep < 2 ** (b * w):
        raise SpecError(f"repetition index {rep} out of range")
    digits = []
    wp = 1   # product of weights of chosen digits
    for rem in range(w - 1, -1, -1):
        sub = wp << (b * rem)
        d = min(rep // sub, b)
        rep -= d * sub
        digits.append(d)
        if d == b:
            wp *= 2 ** b - b
    return digits


def vbw_rank(b: int, w: int, digits: Sequence[int]) -> int:
    """Number of repetitions preceding this block's first repetition."""
    if len(digits) != w:
        raise SpecError("block length mismatch")
    rank = 0
    wp = 1
    for rem, d in zip(range(w - 1, -1, -1), digits):
        if not 0 <= d <= b:
            raise SpecError(f"digit {d} outside [0, {b}]")
        rank += d * wp << (b * rem)
        if d == b:
            wp *= 2 ** b - b
    return rank


def vbw_locate(b: int, w: int, idx: int) -> tuple[list[int], int]:
    """(block digits, 0-based offset) of the 1-based position idx in V(b, w)."""
    if not 1 <= idx <= vbw_length(b, w):
        raise SpecError(f"index {idx} outside V({b},{w})")
    rep, off = divmod(idx - 1, w)
    return vbw_unrank(b, w, rep), off


def vbw_digit(b: int, w: int, idx: int) -> int:
    block, off = vbw_locate(b, w, idx)
    return block[off]


def vbw_count(b: int, w: int, value: int, idx: int) -> int:
    """Occurrences of `value` among positions 1..idx of V(b, w)."""
    if not 0 <= idx <= vbw_length(b, w):
        raise SpecError(f"index {idx} outside V({b},{w})")
    if idx == 0 or not 0 <= value <= b:
        return 0
    return _count_to(b, value, vbw_locate(b, w, idx)[0], idx)


def _count_to(b: int, value: int, block: list[int], idx: int) -> int:
    """vbw_count(b, len(block), value, idx) for 0 <= value <= b, given the
    block that owns position idx.

    The digit d at each position skips d subtrees of sub repetitions each.
    Together they hold the `seen` occurrences of the prefix sub times each,
    their own digit once per repetition (sub when value < d), and the
    completions: rem * wgt(value) * 2^(b(rem-1)) per unit of prefix weight.
    """
    rep, off = divmod(idx - 1, len(block))
    wv = 1 if value < b else 2 ** b - b
    total = seen = 0
    wp = 1
    for rem, d in zip(range(len(block) - 1, -1, -1), block):
        sub = wp << (b * rem)
        rep -= d * sub
        total += d * sub * seen + sub * (value < d)
        if rem:
            total += (d * wp * rem * wv) << (b * (rem - 1))
        seen += d == value
        if d == b:
            wp *= 2 ** b - b
    # rep is now the repetition index within the block's own run
    return total + rep * seen + block[:off + 1].count(value)


def vbw_blocks(b: int, w: int) -> Iterator[tuple[list[int], int]]:
    """All blocks in lexicographic order with their repeat counts."""
    import itertools
    for block in itertools.product(range(b + 1), repeat=w):
        yield list(block), block_repeats(b, block)


def vbw_digits_iter(b: int, w: int, limit: int) -> Iterator[int]:
    """First `limit` digits of V(b, w), sequentially (test-sized limits)."""
    if limit <= 0:
        return
    produced = 0
    for block, reps in vbw_blocks(b, w):
        for _ in range(min(reps, (limit - produced) // w + 2)):
            for d in block:
                yield d
                produced += 1
                if produced >= limit:
                    return


# ---------------------------------------------------------------------------
# the staged layout shared by the witnesses below: stage i >= first_stage is
# 2^(4 i^2) copies of V(i, i^2), laid end to end

MAX_STAGE = 32   # entries unrank i^3-bit indices: ~9x slower at stage 48


def check_stage(first_stage, lowest: int) -> int:
    """first_stage itself when it is an int in [lowest, MAX_STAGE]."""
    if (not isinstance(first_stage, int) or isinstance(first_stage, bool)
            or not lowest <= first_stage <= MAX_STAGE):
        raise SpecError(f"first stage {first_stage!r} is not an int in "
                        f"[{lowest}, {MAX_STAGE}]")
    return first_stage


class StagedSeq(BasicSeq):
    """Base entries q_n = entry(i, t), where `locate(n) = (i, t)` puts n at
    the 1-based position t of a copy of V(i, i^2) on stage i."""

    def __init__(self, kind: str, first_stage: int,
                 entry: Callable[[int, int], int], lowest: int = 2):
        self.kind = kind
        self.first_stage = check_stage(first_stage, lowest)
        self._entry = entry
        self._ends = [0]     # L_{i-1} for i = first_stage, first_stage + 1, ...
        self._words = []     # |V(i, i^2)| for the same i

    def locate(self, n: int) -> tuple[int, int]:
        """(stage i, 1-based position t in its copy of V(i, i^2)) of n."""
        if n < 1:
            raise SpecError(f"index {n} < 1")
        ends, words = self._ends, self._words
        while ends[-1] < n:
            i = self.first_stage + len(words)
            words.append(vbw_length(i, i * i))
            ends.append(ends[-1] + 2 ** (4 * i * i) * words[-1])
        k = bisect.bisect_left(ends, n) - 1
        return self.first_stage + k, (n - ends[k] - 1) % words[k] + 1

    def q(self, n: int) -> int:
        return self._entry(*self.locate(n))

    def _entries(self, lo: int, hi: int) -> Iterator[int]:
        n = lo + 1
        i, t = self.locate(n)
        while True:
            k = i - self.first_stage
            word, stop = self._words[k], min(hi, self._ends[k + 1])
            while n <= stop:    # the rest of one copy of V(i, i^2)
                m = min(stop - n + 1, word - t + 1)
                yield from map(self._entry, repeat(i, m), range(t, t + m))
                n, t = n + m, 1
            if n > hi:
                return
            i, t = self.locate(n)    # lays out the next stage: (i + 1, 1)

    def describe(self) -> dict:
        return {"kind": self.kind, "first_stage": self.first_stage}


# ---------------------------------------------------------------------------
# the distribution-normal witness (base + digits)

def qnex_pair(first_stage: int = 6) -> tuple[BasicSeq, DigitStream]:
    """The staged base (entries 2^i on stage i) together with the digit
    stream whose digits walk V(i, i^2) repeated 2^(4 i^2) times per stage.
    """
    seq = StagedSeq("qnex", first_stage, lambda i, t: 2 ** i, lowest=1)
    return seq, _QnexStream(seq)


class _QnexStream(DigitStream):
    """The digits of V(i, i^2) at every position of the qnex base, filled a
    run at a time: the repetitions of one block follow each other, so a
    block is unranked once for all the digits of its run."""

    def __init__(self, seq: StagedSeq):
        super().__init__(seq, None, canonicity=UNKNOWN, label="qnex")
        self._run = (1, 0, [])     # (first, last index, block) of a run

    def _fill(self, n: int) -> None:
        self._memo += self._digits_from(len(self._memo) + 1, n)

    def _digits_from(self, g: int, n: int) -> list[int]:
        """Digits g..n, keeping the last run located for the next call."""
        out = []
        lo, hi, block = self._run
        while g <= n:
            if not lo <= g <= hi:
                i, t = self.base.locate(g)
                w = i * i
                rep, off = divmod(t - 1, w)
                block = vbw_unrank(i, w, rep)
                # the block's run: [rank, rank + (2^i - i)^(its i-digits))
                lo = g - off - (rep - vbw_rank(i, w, block)) * w
                hi = lo + (2 ** i - i) ** block.count(i) * w - 1
            stop = min(n, hi)
            w = len(block)
            off = (g - lo) % w
            out += (block * ((off + stop - g) // w + 1))[off:off + stop - g + 1]
            g = stop + 1
        self._run = (lo, hi, block)
        return out


# ---------------------------------------------------------------------------
# the restricted-distribution-normal witness

def rdn_class_size(i: int) -> int:
    return i * 2 ** (i ** 3) - i * i * 2 ** (i ** 3 - i)


def rdn_entry(i: int, t: int) -> tuple[int, int, int]:
    """(w, q, y) at position t of stage i.

    w is the V(i, i^2) digit.  Positions with w < i keep the small base
    q = i and the digit y = w.  Positions with w = i are split, in order
    of occurrence, into i classes of equal size: the first class gets the
    large base i^3 (digit ratio ~ 0 there), class j >= 2 gets
    floor(i^2/(j-1)) (digit ratio in the (j-1)-th cell).
    """
    block, off = vbw_locate(i, i * i, t)
    w = block[off]
    if w < i:
        return w, i, w
    j = (_count_to(i, i, block, t) - 1) // rdn_class_size(i) + 1
    if j > i:
        raise AssertionError("class index overflow: counts do not divide")
    if j == 1:
        return w, i ** 3, 0
    return w, (i * i) // (j - 1), j - 1


class RdnSeq(StagedSeq):
    """The restricted-distribution-normality base: q_n = rdn_entry(i, t)[1]."""

    def __init__(self, first_stage: int = 6):
        super().__init__("rdn", first_stage, lambda i, t: rdn_entry(i, t)[1])


def rdn_kappa(first_stage: int = 6) -> tuple[BasicSeq, DigitStream]:
    """The companion point kappa over the small staged base (entries i)."""
    seq = StagedSeq("rdn-kappa-base", first_stage, lambda i, t: i)
    stream = DigitStream(seq, lambda n: rdn_entry(*seq.locate(n))[2],
                         canonicity=UNKNOWN, label="rdn-kappa")
    return seq, stream


def rdn_walk(i: int, count: int) -> Iterator[tuple[int, int, int, int]]:
    """(t, w, q, y) for t = 1..count of stage i, sequentially.

    Walks V(i, i^2) block by block keeping a running tally of w = i
    occurrences, so it is fast for desk-check sized counts.
    """
    cls = rdn_class_size(i)
    t = 0
    seen_i = 0
    w = i * i
    for block, reps in vbw_blocks(i, w):
        for _ in range(reps):
            for d in block:
                t += 1
                if d < i:
                    yield t, d, i, d
                else:
                    seen_i += 1
                    j = (seen_i - 1) // cls + 1
                    if j == 1:
                        yield t, d, i ** 3, 0
                    else:
                        yield t, d, (i * i) // (j - 1), j - 1
                if t >= count:
                    return


def rdn_count_identities(i: int) -> dict:
    """Computed-vs-formula counting identities for the stage word W_i."""
    w = i * i
    length = vbw_length(i, w)
    formula = {
        "length": w * 2 ** (i * w),
        "count_small": i * i * 2 ** (i ** 3 - i),      # each alpha < i
        "count_large": i * i * 2 ** (i ** 3) - i ** 3 * 2 ** (i ** 3 - i),
        "class_size": rdn_class_size(i),
    }
    computed = {
        "length": length,
        "count_small": vbw_count(i, w, 0, length),
        "count_large": vbw_count(i, w, i, length),
        "divisible": formula["count_large"] % i == 0,
        "classes_cover": formula["class_size"] * i == formula["count_large"],
    }
    return {"formula": formula, "computed": computed}


def delta_cell(ratio: Fraction, i: int) -> int:
    """Index alpha of the cell [alpha/i, (alpha+1)/i) containing the ratio."""
    a = (ratio.numerator * i) // ratio.denominator
    return min(a, i - 1)


def in_delta_check(i: int, alpha: int) -> bool:
    """alpha/i <= i / floor(i^2/alpha) < (alpha+1)/i, the cell-landing fact."""
    q = (i * i) // alpha
    return alpha * q <= i * i < (alpha + 1) * q


def rdn_measure_log10():
    """log10 of the measure lower bound for the restricted witness set.

    Only stages 6..9 contribute (2^t < t^3 exactly there); each contributes
    (2^t/t^3) per large-base position, and there are
    2^(4 t^2) * (t 2^(t^3) - t^2 2^(t^3 - t)) of those.
    """
    import mpmath
    with mpmath.workprec(200):
        total = mpmath.mpf(0)
        for t in range(6, 10):
            count = 2 ** (4 * t * t) * (t * 2 ** (t ** 3) - t * t * 2 ** (t ** 3 - t))
            total += mpmath.mpf(count) * (t * mpmath.log(2, 10) - 3 * mpmath.log(t, 10))
        return total


# ---------------------------------------------------------------------------
# counterexample transforms between normality notions

def nnotdn_base(q_seq: BasicSeq) -> BasicSeq:
    """p_n = max(floor(ln q_n), 2)."""
    return Formula(lambda n: max(int(math.floor(math.log(q_seq.q(n)))), 2),
                   label="floor-log")


def nnotdn_pair(q_seq: BasicSeq, stream: DigitStream
                ) -> tuple[BasicSeq, DigitStream]:
    """Round trip through the much smaller base: digits min(E_n, p_n - 1),
    read back over Q.  Destroys digit-ratio equidistribution while the
    block counts move by O(1) per block."""
    p_seq = nnotdn_base(q_seq)
    down = psi_map(stream, p_seq)
    return p_seq, psi_map(down, q_seq)


def rnnotn_base(q_seq: BasicSeq) -> BasicSeq:
    """p_n = max(floor(q_n/2), 2): halve the bases."""
    return Formula(lambda n: max(q_seq.q(n) // 2, 2), label="half")


def rnnotn_pair(q_seq: BasicSeq, stream_over_p: DigitStream
                ) -> tuple[BasicSeq, DigitStream]:
    """Read a point of the halved base inside Q.  Since p_n <= q_n the
    clamp never fires: counts transfer exactly, but the position weights
    differ by the factor the ratio report exposes."""
    p_seq = rnnotn_base(q_seq)
    return p_seq, psi_map(stream_over_p, q_seq)


def dnnotrn_pair(q_seq: BasicSeq, stream: DigitStream
                 ) -> tuple[BasicSeq, DigitStream]:
    """p_n = q_n - 1 and y with digits min(E_n, q_n - 2) + 1: never a zero
    digit, yet the shifted orbits of x and y stay within ~1/q_n."""
    p_seq = Formula(lambda n: q_seq.q(n) - 1, label="q-1")
    for n in (1, 2, 3):
        if q_seq.q(n) < 3:
            raise HypothesisError("dnnotrn needs q_n >= 3")
    out = DigitStream(q_seq, lambda n: min(stream.digit(n), q_seq.q(n) - 2) + 1,
                      e0=stream.e0, canonicity=UNKNOWN, label="dnnotrn")
    return p_seq, out


def orbit_closeness(x: DigitStream, y: DigitStream, n_max: int,
                    depth: int = 30) -> tuple[bool, Fraction]:
    """Check |T_n(x) - T_n(y)| <= 1/q_n for 1 <= n <= n_max.

    The difference is sum_{j>n} (y_j - x_j)/(q_{n+1}..q_j) with digit
    differences in {0, 1}; it is bracketed with `depth` exact terms plus
    the worst-case tail.  Returns (all bounds hold, max of q_n * upper
    bracket seen).
    """
    q = x.base
    worst = Fraction(0)
    ok = True
    x.digits(n_max + depth + 1)
    y.digits(n_max + depth + 1)

    def gaps(n: int, m: int) -> list[int]:
        """y_j - x_j for n < j <= n + m."""
        return [b - a for a, b in zip(x._span(n, n + m), y._span(n, n + m))]

    def upper(n: int, g: list[int]) -> tuple[int, int]:
        # (num, den) of the upper bracket from the exact terms g: the tail
        # of all-ones gaps past them is < 2/den
        num, den = horner(q.entries(n, n + len(g)), g)
        return num + 2, den

    for n, qn in enumerate(q.entries(0, n_max), 1):
        g = gaps(n, depth)
        if any(v not in (0, 1) for v in g):
            raise SpecError("orbit closeness expects digit gaps in {0,1}")
        num, den = upper(n, g)
        worst = max(worst, Fraction(qn * num, den))
        if qn * num > den and qn * (num - 2) <= den:
            # bracket straddles: refine by doubling depth once
            num, den = upper(n, gaps(n, 2 * depth))
            worst = max(worst, Fraction(qn * num, den))
        if qn * num > den:
            ok = False
    return ok, worst


SEQ_REGISTRY["rdn"] = RdnSeq
SEQ_REGISTRY["qnex"] = lambda **kw: qnex_pair(**kw)[0]
