"""Lazy digit streams for Cantor series expansions.

A point x is represented as an integer part e0 plus digits E_1, E_2, ...
with 0 <= E_n < q_n, so that x = e0 + sum E_n / (q_1...q_n).  The canonical
convention: E_n != q_n - 1 infinitely often.  Points with a terminating
expansion have a second, all-(q_n - 1)-tail representation; streams carry a
tag saying which form they are.

Digits are materialised in bulk: every read that runs past the memo calls
the stream's `_fill(n)` once, which extends the memo to exactly n digits.
A fill reads the base entries it needs as one run, `base.entries(lo, n)`,
never one `base.q(j)` call per index.  Rule-backed streams call their rule
per digit beside that run; rational expansions, terminating streams, their
dual forms and psi images override `_fill` with tight loops (rational
remainders are integers over the fixed denominator).  Exact prefix sums go
through `horner`, which zips a run of entries with the digits, with one
Fraction at the end.

Memos (digits, and a rational stream's remainders) are `array.array`s of
the narrowest unsigned type code in `_CODES` that holds them: 'B' (one
byte a digit, the usual case), then 'I' (4 bytes) and an 8-byte code.  The
code comes from the base's `upper_bound()` when it declares one (the
denominator for remainders); otherwise the memo starts at 'B'.  A fill
appends each run in bulk through `_append_run` (`frombytes` for 'B',
`fromlist` for wider codes), and the first run that does not fit widens
the memo once, to a list when a value reaches 2^64.  Long fills append
chunks of `CHUNK` digits, so no fill holds a second full-length copy of
its digits.  Reads in place (`memo[i]`, `map(memo.__getitem__, ...)`)
work on either kind; `digits()` and `_span` return lists, `_slice` the
memo's own kind.

A rational expansion over a base with an `eventual_period()` repeats once
its remainder state does.  Its first fill past `CHUNK` digits scans the
remainders made so far, once, for an earlier copy of the last one (at C
speed, `index`); when there is one, that fill and every later one copy
whole periods of digits and remainders, at most `CHUNK` at a time, in
place of the divmod loop.  Fills up to `CHUNK` digits never scan.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Optional, Union

from .seqcore import BasicSeq, SpecError

CANONICAL = "canonical"
TERMINATING = "terminating"
UNKNOWN = "unknown"

CHUNK = 1 << 15     # digits a long fill appends at a time

# unsigned type codes, narrowest first, with the first int each cannot
# hold.  'H' is left out: its fromlist parses every item (27 ns against 7 ns
# for 'I'); and 'L' is preferred to 'Q' where it has 8 bytes, as 'Q' converts
# ints above 2^30 through a byte buffer (32 ns against 7 ns)
_WIDE = "L" if array("L").itemsize == 8 else "Q"
_CODES = [(code, 1 << 8 * array(code).itemsize) for code in ("B", "I", _WIDE)]

Memo = Union[array, list]


def _new_memo(top: Optional[int]) -> Memo:
    """An empty memo for ints in [0, top]: the narrowest type code that
    holds top ('B' when top is None), a list when none does."""
    if top is None:
        return array("B")
    for code, limit in _CODES:
        if top < limit:
            return array(code)
    return []


def _append_run(memo: Memo, run: list[int]) -> Memo:
    """Append the non-negative ints `run` to the memo in bulk; returns the
    memo, widened first when the run does not fit its type code."""
    if type(memo) is list:
        memo += run
        return memo
    try:
        if memo.typecode == "B":
            memo.frombytes(bytearray(run))
        else:
            memo.fromlist(run)      # appends all of the run or none of it
        return memo
    except (ValueError, OverflowError):
        wide = _new_memo(max(run))
        if type(wide) is list:
            return memo.tolist() + run
        wide.fromlist(memo.tolist())
        wide.fromlist(run)
        return wide


def _append_zeros(memo: Memo, k: int) -> None:
    if type(memo) is list:
        memo += [0] * k
    else:
        memo.frombytes(bytes(k * memo.itemsize))


class DigitStream:
    """Digits over a basic sequence, memoized, indexed from 1.

    max_tail_start = k means digits are q_j - 1 for all j >= k (the
    non-canonical dual form of a terminating point); None otherwise.
    Subclasses that materialise digits without a rule pass rule=None and
    override `_fill`.
    """

    def __init__(self, base: BasicSeq, rule: Optional[Callable[[int], int]],
                 e0: int = 0, canonicity: str = UNKNOWN,
                 last_nonzero: Optional[int] = None,
                 max_tail_start: Optional[int] = None,
                 label: str = ""):
        self.base = base
        self._rule = rule
        self.e0 = int(e0)
        self.canonicity = canonicity
        self.last_nonzero = last_nonzero
        self.max_tail_start = max_tail_start
        self.label = label
        top = base.upper_bound()
        self._memo = _new_memo(None if top is None else top - 1)

    def _append(self, run: list[int]) -> None:
        self._memo = _append_run(self._memo, run)

    def _fill(self, n: int) -> None:
        """Extend the memo to n digits (n > len(memo)) through the rule.
        A digit out of range raises SpecError with the digits before it
        in the memo."""
        rule, start = self._rule, len(self._memo)
        qs = self.base.entries(start, n)
        for lo in range(start, n, CHUNK):
            run = []
            add = run.append
            try:
                # range first: zip stops there without taking another entry
                for j, qj in zip(range(lo + 1, min(lo + CHUNK, n) + 1), qs):
                    d = rule(j)
                    if not 0 <= d < qj:
                        raise SpecError(f"digit E_{j} = {d} outside [0, {qj})")
                    add(d)
            finally:
                self._append(run)

    def digit(self, n: int) -> int:
        if n < 1:
            raise SpecError(f"digit index {n} < 1")
        if n > len(self._memo):
            self._fill(n)
        return self._memo[n - 1]

    def digits(self, n: int) -> list[int]:
        return self._span(0, n)

    def _span(self, lo: int, hi: int) -> list[int]:
        """Digits E_{lo+1}..E_hi, without copying the prefix before them."""
        span = self._slice(lo, hi)
        return span if type(span) is list else span.tolist()

    def _slice(self, lo: int, hi: int) -> Memo:
        """_span as a slice of the memo: an array or a list."""
        if lo < 0:
            raise SpecError(f"digit index {lo + 1} < 1")
        if hi > len(self._memo):
            self._fill(hi)
        return self._memo[lo:hi]

    def __repr__(self):
        shown = ",".join(str(d) for d in self._memo[:8])
        return (f"DigitStream({self.label or self.base.kind}: {self.e0}."
                f"{shown}...; {self.canonicity})")


class _HeadStream(DigitStream):
    """Fixed head digits, then zeros (a terminating form) or q_j - 1 for
    every later j (the dual form of a terminating point)."""

    def __init__(self, base: BasicSeq, head: list[int], max_tail: bool, **kw):
        super().__init__(base, None, **kw)
        self._head = head
        self._max_tail = max_tail

    def _fill(self, n: int) -> None:
        self._append(self._head[len(self._memo):n])
        start = len(self._memo)
        if not self._max_tail:
            _append_zeros(self._memo, n - start)
            return
        qs = self.base.entries(start, n)
        for _ in range(start, n, CHUNK):
            self._append([qj - 1 for qj in islice(qs, CHUNK)])


def from_digits(base: BasicSeq, digits: list[int], e0: int = 0) -> DigitStream:
    """Terminating stream: the given digits, then zeros forever."""
    digits = [int(d) for d in digits]
    last = 0
    for i, (d, qi) in enumerate(zip(digits, base.entries(0, len(digits))), 1):
        if not 0 <= d < qi:
            raise SpecError(f"digit {d} at position {i} outside [0, {qi})")
        if d:
            last = i
    return _HeadStream(base, digits, False, e0=e0, canonicity=TERMINATING,
                       last_nonzero=last if (last or e0) else 0)


def from_rule(base: BasicSeq, rule: Callable[[int], int], e0: int = 0,
              canonicity: str = UNKNOWN, label: str = "") -> DigitStream:
    return DigitStream(base, rule, e0=e0, canonicity=canonicity, label=label)


class RationalDigitStream(DigitStream):
    """Multiply-and-floor expansion of an exact rational x = a/b.

    Remainders are kept so tails are exact: after n digits,
    x = e0 + sum_{j<=n} E_j/(q_1..q_j) + remainder_n/(q_1..q_n)
    with remainder_n = r_n/b in [0, 1).  Only the integer numerators r_n
    over the fixed denominator b are stored; `_fill` takes one step per
    digit, E_n, r_n = divmod(r_{n-1} * q_n, b), and `remainder(n)` builds
    the Fraction on request.  Multiply-and-floor never produces an
    all-max tail, so the result is the canonical expansion; if some
    remainder hits 0 the expansion terminates, the tag says so and
    last_nonzero is the digit where it did.
    """

    def __init__(self, x: Fraction, base: BasicSeq):
        x = Fraction(x)
        e0 = x.numerator // x.denominator
        super().__init__(base, None, e0=e0, canonicity=CANONICAL,
                         label=f"expand({x})")
        self.value = x
        self._den = x.denominator
        r = x.numerator - e0 * x.denominator
        self._rems = _new_memo(self._den - 1)
        self._rems.append(r)
        if r == 0:
            self.canonicity = TERMINATING
            self.last_nonzero = 0
        self._period = base.eventual_period()   # None once scanned
        self._cycle = None      # (i, p) from the scan, when it found one

    def _fill(self, n: int) -> None:
        if n > CHUNK and self._period is not None:
            if len(self._memo) < CHUNK:
                self._step(CHUNK)
            self._cycle = self._find_cycle(*self._period)
            self._period = None
        if self._cycle is not None:
            self._copy(n)
        else:
            self._step(n)

    def _step(self, n: int) -> None:
        """Extend the memo to n digits, one divmod a digit."""
        b, start = self._den, len(self._memo)
        r = self._rems[-1]
        qs = self.base.entries(start, n)
        for _ in range(start, n, CHUNK):
            digits, rems = [], []
            add_digit, add_rem = digits.append, rems.append
            for qj in islice(qs, CHUNK):
                d, r = divmod(r * qj, b)
                add_digit(d)
                add_rem(r)
            self._append(digits)
            self._rems = _append_run(self._rems, rems)
        if r == 0 and self.last_nonzero is None:
            # a zero remainder stays zero, and the digit that first reaches
            # it is nonzero (r_{t-1} q_t = E_t b with r_{t-1} > 0)
            self.last_nonzero = self._rems.index(0, start + 1)
            self.canonicity = TERMINATING

    def _find_cycle(self, s: int, L: int) -> Optional[tuple[int, int]]:
        """(i, p) with r_{j+p} = r_j and E_{j+1+p} = E_{j+1} for every
        j >= i, or None.

        The base repeats with period L past index s, so the remainder r_j
        and j mod L decide everything after index j >= s.  An earlier copy
        r_i of the last remainder r_m, with i >= s and m - i a multiple of
        L, is the same state: the expansion repeats with period p = m - i
        from i on.  The remainders made so far are scanned once, at C
        speed; p <= m, so no cycle longer than the memo is found.
        """
        rems, m = self._rems, len(self._memo)
        r, i = rems[m], s - 1
        try:
            while True:
                i = rems.index(r, i + 1, m)
                if (m - i) % L == 0:
                    return i, m - i
        except ValueError:
            return None

    def _copy(self, n: int) -> None:
        """Extend the memo and the remainders to n digits by copying the
        cycle: w (a multiple of p, at most CHUNK) items from w back."""
        i, p = self._cycle
        while len(self._memo) < n:
            m = len(self._memo)
            w = min(m - i, CHUNK) // p * p
            piece = min(n - m, w)
            self._memo += self._memo[m - w:m - w + piece]
            self._rems += self._rems[m + 1 - w:m + 1 - w + piece]

    def remainder(self, n: int) -> Fraction:
        """Exact tail sum_{j>n} E_j/(q_{n+1}..q_j), in [0, 1)."""
        if n > len(self._memo):
            self._fill(n)
        return Fraction(self._rems[n], self._den)


def expand_rational(x, base: BasicSeq) -> RationalDigitStream:
    return RationalDigitStream(Fraction(x), base)


@dataclass
class Enclosure:
    lo: Fraction
    hi: Fraction

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, v) -> bool:
        return self.lo <= v <= self.hi


def horner(qs: Iterable[int], digits: Iterable[int]) -> tuple[int, int]:
    """Integers (num, den) with den = q_1..q_k and
    num/den = sum_{i<=k} d_i/(q_1..q_i) for the entries q_1..q_k of `qs`
    zipped with the digits d_1..d_k; k is the shorter length.

    A sum over positions lo+1..hi reads the run `base.entries(lo, hi)`.
    One Horner step per digit (num = num*q + d, den *= q), so exact prefix
    sums pay no gcd until the caller builds its Fraction.
    """
    num, den = 0, 1
    for d, qj in zip(digits, qs):
        num = num * qj + d
        den *= qj
    return num, den


def enclose_prefix(stream: DigitStream, n: int) -> Enclosure:
    """Exact interval containing the stream's value, from its first n digits."""
    if n < 0:
        raise SpecError(f"depth {n} < 0")
    num, den = horner(stream.base.entries(0, n), stream.digits(n))
    lo = stream.e0 * den + num
    return Enclosure(Fraction(lo, den), Fraction(lo + 1, den))


def stream_value(stream: DigitStream, depth: int = 64) -> Enclosure:
    """Value enclosure; exact (zero width) for terminating/rational streams."""
    if isinstance(stream, RationalDigitStream):
        return Enclosure(stream.value, stream.value)
    if stream.canonicity == TERMINATING and stream.last_nonzero is not None:
        e = enclose_prefix(stream, stream.last_nonzero)
        return Enclosure(e.lo, e.lo)
    if stream.max_tail_start is not None:
        # value = prefix + full tail mass = hi endpoint of the enclosure
        e = enclose_prefix(stream, stream.max_tail_start - 1)
        return Enclosure(e.hi, e.hi)
    return enclose_prefix(stream, depth)


def shift_T(stream: DigitStream, n: int, depth: Optional[int] = None) -> Enclosure:
    """The shifted tail T_n(x) = (q_1..q_n) x mod 1 = sum_{j>n} E_j/(q_{n+1}..q_j).

    Exact for rational-backed and terminating streams; otherwise an
    enclosure from `depth` further digits (default n + 40 total: the tail
    width is at most 2^-(depth), plenty for comparisons).
    """
    if isinstance(stream, RationalDigitStream):
        r = stream.remainder(n)
        return Enclosure(r, r)
    if stream.canonicity == TERMINATING and stream.last_nonzero is not None:
        hi = max(n, stream.last_nonzero)
        digits = stream._span(n, hi)
        num, den = horner(stream.base.entries(n, hi), digits)
        v = Fraction(num, den)
        return Enclosure(v, v)
    if depth is None:
        depth = 40
    digits = stream._span(n, n + depth)
    num, den = horner(stream.base.entries(n, n + depth), digits)
    return Enclosure(Fraction(num, den), Fraction(num + 1, den))


def detect_max_tail(stream: DigitStream, window: int = 256) -> Optional[int]:
    """Smallest k such that E_j = q_j - 1 for all j in [k, window].

    Window evidence only: a return value k with k <= window means the
    materialized digits show an all-max run covering the whole window tail.
    Returns None when the last window digit is not maximal.
    """
    if stream.max_tail_start is not None:
        return stream.max_tail_start
    k = window + 1
    for j in range(window, 0, -1):
        if stream.digit(j) == stream.base.q(j) - 1:
            k = j
        else:
            break
    return k if k <= window else None


def canonicalize(stream: DigitStream, window: int = 256) -> DigitStream:
    """Convert between the two representations of a terminating point.

    Terminating form  ->  dual form ending in q_j - 1 forever.
    Detected all-max tail  ->  terminating form.
    Streams with neither property are returned unchanged (the caller can
    compare identity to see nothing happened).
    """
    base = stream.base
    if stream.canonicity == TERMINATING and stream.last_nonzero is not None:
        t = stream.last_nonzero
        head = stream.digits(t)
        if t == 0:
            e0, head = stream.e0 - 1, []
        else:
            e0 = stream.e0
            head = head[:-1] + [head[-1] - 1]

        return _HeadStream(base, head, True, e0=e0, canonicity=UNKNOWN,
                           max_tail_start=t + 1, label="dual")
    k = detect_max_tail(stream, window)
    if k is not None:
        if k == 1:
            return from_digits(base, [], e0=stream.e0 + 1)
        head = stream.digits(k - 1)
        head = head[:-1] + [head[-1] + 1]
        return from_digits(base, head, e0=stream.e0)
    return stream
