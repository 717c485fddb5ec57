"""Basic sequences: the integer bases q_1, q_2, ... (all >= 2) that drive
every digit expansion in this package, plus prefix products and sampling
diagnostics.

Sequences are lazy and indexed from 1.  Values may be astronomically large
(geometric specs, construction stages), so everything stays in Python ints.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, cycle, islice, repeat
from operator import mul
from typing import Callable, Iterator, Optional, Sequence


class SpecError(ValueError):
    """Malformed sequence spec (entry < 2, bad kind, bad parameters)."""


class HypothesisError(ValueError):
    """Inputs violate a stated hypothesis of the operation."""


class UndecidedError(ValueError):
    """Result not decidable at the requested horizon."""


class BasicSeq:
    """A sequence of integers q_n >= 2, n >= 1."""

    kind = "abstract"
    nondecreasing = False    # True when the kind guarantees q_n <= q_{n+1}

    def q(self, n: int) -> int:
        raise NotImplementedError

    def entries(self, lo: int, hi: int) -> Iterator[int]:
        """q_{lo+1}..q_hi as a lazy iterator, empty when hi <= lo.

        Bulk readers (digit fills, Horner sums) take entries here, so a
        kind that can step from one entry to the next pays no per-index
        lookup.
        """
        if lo < 0:
            raise SpecError(f"index {lo + 1} < 1")
        return self._entries(lo, hi) if hi > lo else iter(())

    def _entries(self, lo: int, hi: int) -> Iterator[int]:
        """entries(lo, hi) for 0 <= lo < hi."""
        return map(self.q, range(lo + 1, hi + 1))

    def residues(self, lo: int, hi: int, m: int) -> Iterator[int]:
        """q_{lo+1} mod m, ..., q_hi mod m, lazily (entries(lo, hi) reduced)."""
        return (q % m for q in self.entries(lo, hi))

    def eventual_period(self) -> Optional[tuple[int, int]]:
        """(start, period) with q_n = q_{n+period} for all n > start, when
        the kind guarantees one; None otherwise."""
        return None

    def upper_bound(self) -> Optional[int]:
        """An int >= every q_n, when the kind guarantees one; None otherwise."""
        return None

    def prefix(self, n: int) -> list[int]:
        return list(self.entries(0, n))

    def describe(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"{self.__class__.__name__}({self.describe()})"


def _check_entry(v: int, n: int) -> int:
    if v < 2:
        raise SpecError(f"sequence entry q_{n} = {v} < 2")
    return v


class Constant(BasicSeq):
    kind = "constant"
    nondecreasing = True

    def __init__(self, value: int):
        self.value = _check_entry(int(value), 1)

    def q(self, n: int) -> int:
        if n < 1:
            raise SpecError(f"index {n} < 1")
        return self.value

    def _entries(self, lo: int, hi: int) -> Iterator[int]:
        return repeat(self.value, hi - lo)

    def eventual_period(self) -> tuple[int, int]:
        return (0, 1)

    def upper_bound(self) -> int:
        return self.value

    def describe(self) -> dict:
        return {"kind": "constant", "value": self.value}


class Affine(BasicSeq):
    """q_n = a + d*n."""

    kind = "affine"
    nondecreasing = True     # the constructor rejects d < 0

    def __init__(self, a: int, d: int):
        self.a, self.d = int(a), int(d)
        _check_entry(self.q(1), 1)
        if self.d < 0:
            raise SpecError("affine sequences must be nondecreasing (d >= 0)")

    def q(self, n: int) -> int:
        if n < 1:
            raise SpecError(f"index {n} < 1")
        return _check_entry(self.a + self.d * n, n)

    def _entries(self, lo: int, hi: int) -> Iterator[int]:
        if self.d == 0:
            return repeat(self.a, hi - lo)
        return iter(range(self.a + self.d * (lo + 1), self.a + self.d * hi + 1,
                          self.d))

    def describe(self) -> dict:
        return {"kind": "affine", "a": self.a, "d": self.d}


class Geometric(BasicSeq):
    """q_n = a * r**n."""

    kind = "geometric"
    nondecreasing = True     # r >= 1, and q_1 = a*r >= 2 forces a > 0

    def __init__(self, a: int, r: int):
        self.a, self.r = int(a), int(r)
        if self.r < 1:
            raise SpecError("geometric ratio must be >= 1")
        _check_entry(self.q(1), 1)

    def q(self, n: int) -> int:
        if n < 1:
            raise SpecError(f"index {n} < 1")
        return _check_entry(self.a * self.r ** n, n)

    def _entries(self, lo: int, hi: int) -> Iterator[int]:
        # one multiplication a step: a * r**n afresh for each index would
        # cost O(n^2) bit operations over a run
        return accumulate(repeat(self.r, hi - lo - 1), mul,
                          initial=self.q(lo + 1))

    def residues(self, lo: int, hi: int, m: int) -> Iterator[int]:
        # stepped mod m: the entries themselves grow by log r bits a step
        if hi <= lo or lo < 0:
            return super().residues(lo, hi, m)    # empty, or the index error
        return accumulate(repeat(self.r % m, hi - lo - 1),
                          lambda x, r: x * r % m, initial=self.q(lo + 1) % m)

    def describe(self) -> dict:
        return {"kind": "geometric", "a": self.a, "r": self.r}


class Periodic(BasicSeq):
    kind = "periodic"

    def __init__(self, values: Sequence[int]):
        vals = [int(v) for v in values]
        if not vals:
            raise SpecError("periodic spec needs at least one value")
        for i, v in enumerate(vals):
            _check_entry(v, i + 1)
        self.values = vals

    def q(self, n: int) -> int:
        if n < 1:
            raise SpecError(f"index {n} < 1")
        return self.values[(n - 1) % len(self.values)]

    def _entries(self, lo: int, hi: int) -> Iterator[int]:
        r = lo % len(self.values)
        return islice(cycle(self.values[r:] + self.values[:r]), hi - lo)

    def eventual_period(self) -> tuple[int, int]:
        return (0, len(self.values))

    def upper_bound(self) -> int:
        return max(self.values)

    def describe(self) -> dict:
        return {"kind": "periodic", "values": list(self.values)}


class Explicit(BasicSeq):
    """A finite prefix followed by an arbitrary tail sequence."""

    kind = "explicit"

    def __init__(self, head: Sequence[int], tail: Optional[BasicSeq] = None):
        self.head = [int(v) for v in head]
        for i, v in enumerate(self.head):
            _check_entry(v, i + 1)
        self.tail = tail if tail is not None else Constant(2)

    def q(self, n: int) -> int:
        if n < 1:
            raise SpecError(f"index {n} < 1")
        if n <= len(self.head):
            return self.head[n - 1]
        return self.tail.q(n - len(self.head))

    def _entries(self, lo: int, hi: int) -> Iterator[int]:
        h = len(self.head)
        return chain(self.head[lo:hi],
                     self.tail.entries(max(lo - h, 0), hi - h))

    def eventual_period(self) -> Optional[tuple[int, int]]:
        t = self.tail.eventual_period()
        if t is None:
            return None
        return (len(self.head) + t[0], t[1])

    def upper_bound(self) -> Optional[int]:
        m = self.tail.upper_bound()
        if m is None:
            return None
        return max([m] + self.head)

    def describe(self) -> dict:
        return {"kind": "explicit", "head": list(self.head),
                "tail": self.tail.describe()}


class Formula(BasicSeq):
    """q_n = fn(n) for an arbitrary callable; used for constructions the
    JSON schema has no kind for (e.g. q_n = n**2 + 3)."""

    kind = "formula"

    def __init__(self, fn: Callable[[int], int], label: str = "formula"):
        self.fn = fn
        self.label = label

    def q(self, n: int) -> int:
        if n < 1:
            raise SpecError(f"index {n} < 1")
        return _check_entry(int(self.fn(n)), n)

    def describe(self) -> dict:
        return {"kind": "formula", "label": self.label}


class Concatenated(BasicSeq):
    """Segments (seq, repeat, seglen): the first `seglen` values of `seq`,
    the whole segment repeated `repeat` times, segments laid end to end.
    The final segment's tail extends forever if its repeat count is None.
    Boundaries may be astronomically large; everything is int arithmetic.
    """

    kind = "concatenated"

    def __init__(self, segments: Sequence[tuple]):
        if not segments:
            raise SpecError("concatenated spec needs at least one segment")
        self.segments = []
        self._bounds = []  # cumulative lengths, last may be None (infinite)
        total = 0
        for i, (seq, repeat, seglen) in enumerate(segments):
            last = i == len(segments) - 1
            if repeat is None:
                if not last:
                    raise SpecError("only the final segment may be unbounded")
                self.segments.append((seq, None, int(seglen)))
                self._bounds.append(None)
            else:
                repeat, seglen = int(repeat), int(seglen)
                if repeat < 0 or seglen <= 0:
                    raise SpecError("repeat must be >= 0 and seglen > 0")
                total += repeat * seglen
                self.segments.append((seq, repeat, seglen))
                self._bounds.append(total)
        if self._bounds[-1] is not None:
            raise SpecError("concatenated spec must cover all indices; "
                            "final segment needs repeat=None")

    def q(self, n: int) -> int:
        if n < 1:
            raise SpecError(f"index {n} < 1")
        lo = 0
        for (seq, repeat, seglen), hi in zip(self.segments, self._bounds):
            if hi is None or n <= hi:
                off = (n - lo - 1) % seglen + 1
                return seq.q(off)
            lo = hi
        raise AssertionError("unreachable")

    def describe(self) -> dict:
        return {"kind": "concatenated",
                "segments": [
                    {"seq": s.describe(), "repeat": r, "seglen": L}
                    for s, r, L in self.segments]}


class IID(BasicSeq):
    """IID uniform draws from [lo, hi], memoized so q(n) is stable.
    Deterministic in the seed; the draw order is by index, so two
    instances with the same parameters agree everywhere.
    """

    kind = "iid"

    def __init__(self, lo: int, hi: int, seed: int):
        lo, hi = int(lo), int(hi)
        if lo < 2 or hi < lo:
            raise SpecError(f"iid support [{lo},{hi}] invalid (need 2 <= lo <= hi)")
        self.lo, self.hi, self.seed = lo, hi, int(seed)
        self._rng = random.Random(self.seed)
        self._memo: list[int] = []

    def q(self, n: int) -> int:
        if n < 1:
            raise SpecError(f"index {n} < 1")
        if n > len(self._memo):
            # reads one index at a time still draw in runs, at most twice
            # what was asked
            self._draw(max(n, 2 * len(self._memo)))
        return self._memo[n - 1]

    def _draw(self, n: int) -> None:
        """Extend the memo to n draws (none when it holds as many).

        The rejection loop is randint's own (CPython's
        _randbelow_with_getrandbits), run locally for the whole run, so
        the draws equal random.Random(seed).randint(lo, hi) one by one.
        """
        width = self.hi - self.lo + 1
        k, lo, bits = width.bit_length(), self.lo, self._rng.getrandbits
        run = []
        add = run.append
        for _ in range(n - len(self._memo)):
            r = bits(k)
            while r >= width:
                r = bits(k)
            add(lo + r)
        self._memo += run

    def _entries(self, lo: int, hi: int) -> Iterator[int]:
        self._draw(hi)
        # in place from lo: islice would step from index 0 on every call
        return map(self._memo.__getitem__, range(lo, hi))

    def upper_bound(self) -> int:
        return self.hi

    def describe(self) -> dict:
        return {"kind": "iid", "lo": self.lo, "hi": self.hi, "seed": self.seed}


# foundry registers "qnex" and "rdn" here on import
SEQ_REGISTRY: dict[str, Callable[..., BasicSeq]] = {}


def from_spec(spec: dict) -> BasicSeq:
    """Build a BasicSeq from its JSON-style description."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError(f"sequence spec must be a dict with 'kind': {spec!r}")
    kind = spec["kind"]
    try:
        if kind == "constant":
            return Constant(spec["value"])
        if kind == "affine":
            return Affine(spec["a"], spec["d"])
        if kind == "geometric":
            return Geometric(spec["a"], spec["r"])
        if kind == "periodic":
            return Periodic(spec["values"])
        if kind == "explicit":
            tail = from_spec(spec["tail"]) if "tail" in spec else None
            return Explicit(spec["head"], tail)
        if kind == "iid":
            return IID(spec["lo"], spec["hi"], spec["seed"])
        if kind in SEQ_REGISTRY:
            args = {k: v for k, v in spec.items() if k != "kind"}
            return SEQ_REGISTRY[kind](**args)
    except KeyError as e:
        raise SpecError(f"spec for kind {kind!r} missing field {e}") from None
    except SpecError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise SpecError(f"spec for kind {kind!r} has a malformed field: "
                        f"{e}") from None
    raise SpecError(f"unknown sequence kind {kind!r}")


def truncate_tail(seq: BasicSeq, t: int) -> Explicit:
    """First t entries of seq, then the constant tail 2, 2, ...

    This is the finite-stage base used by the piecewise-linear approximants.
    """
    if t < 0:
        raise SpecError(f"truncation index {t} < 0")
    return Explicit(seq.prefix(t), Constant(2))


@dataclass
class PrefixProducts:
    n: int
    product: int                       # q_1 * ... * q_n
    block_weights: dict[int, Fraction] = field(default_factory=dict)
    # block_weights[k] = sum_{j<=n} 1 / (q_j * ... * q_{j+k-1})


def prefix_products(seq: BasicSeq, n: int, ks: Sequence[int] = ()) -> PrefixProducts:
    """Exact prefix product and block-position weights (block_weight_sums
    at the one checkpoint n)."""
    if n < 0:
        raise SpecError(f"horizon {n} < 0")
    ks = sorted(set(int(k) for k in ks))
    kmax = ks[-1] if ks else 0
    qs = seq.prefix(n + max(kmax - 1, 0))
    out = PrefixProducts(n=n, product=math.prod(qs[:n]))
    for k in ks:
        out.block_weights[k] = block_weight_sums(qs, k, [n])[0]
    return out


def _split_sum(qs: list[int], k: int, lo: int, hi: int) -> tuple[int, int, int]:
    """(num, left, right) for the terms j = lo+1..hi of
    sum 1/(q_j..q_{j+k-1}): the sum is num/(q_{lo+1}..q_{hi+k-1}),
    left = q_{lo+1}..q_hi and right = q_{lo+k}..q_{hi+k-1}.

    Binary splitting: two halves join as num_1*right_2 + left_1*num_2, so
    the big products are formed between operands of equal size.
    """
    if hi - lo == 1:
        return 1, qs[lo], qs[lo + k - 1]
    mid = (lo + hi) // 2
    n1, l1, r1 = _split_sum(qs, k, lo, mid)
    n2, l2, r2 = _split_sum(qs, k, mid, hi)
    return n1 * r2 + l1 * n2, l1 * l2, r1 * r2


def block_weight_sums(qs: Sequence[int], k: int,
                      checkpoints: Sequence[int]) -> list[Fraction]:
    """Q_c^(k) = sum_{j<=c} 1/(q_j..q_{j+k-1}) for each of the sorted
    checkpoints c, from the prefix qs = [q_1, .., q_{c_max+k-1}].

    Each segment between checkpoints is summed by binary splitting and
    joined onto the running total the same way; the total stays an
    integer over q_1..q_{c+k-1}, with one Fraction per checkpoint.  At
    k = 0 every term is 1 (the empty product), so Q_c^(0) = c.
    """
    if k < 0:
        raise SpecError(f"block length {k} < 0")
    if checkpoints and min(checkpoints) < 0:
        raise SpecError(f"horizon {min(checkpoints)} < 0")
    if k == 0:
        return [Fraction(c) for c in checkpoints]
    head = math.prod(qs[:k - 1])
    num, left, right = 0, 1, 1
    prev = 0
    out = []
    for c in checkpoints:
        if c > prev:
            n2, l2, r2 = _split_sum(qs, k, prev, c)
            num, left, right = num * r2 + left * n2, left * l2, right * r2
            prev = c
        out.append(Fraction(num, head * right))
    return out


def sample_iid(lo: int, hi: int, seed: int, n: int) -> list[int]:
    """First n values of the IID spec; reproducible for a fixed seed."""
    return IID(lo, hi, seed).prefix(n)


@dataclass
class BirkhoffReport:
    n: int
    checkpoints: list[int]
    mean_log_p: list[float]
    mean_log_q: list[float]
    log_ratio: list[float]             # log(p_1..p_n) - log(q_1..q_n)
    log_ratio_running_min: list[float]
    pos_count: int                     # indices with p_j > q_j
    neg_count: int                     # indices with p_j < q_j
    bv_partial: list[float]            # partial double sums of p_k(p_j+q_j)/(q_1..q_j)


def default_checkpoints(n: int, count: int = 20) -> list[int]:
    """Roughly geometric checkpoint grid ending at n."""
    if n < 1:
        return []
    pts = sorted({max(1, round(n ** (i / count))) for i in range(1, count + 1)})
    if pts[-1] != n:
        pts.append(n)
    return pts


def birkhoff_report(p_seq: BasicSeq, q_seq: BasicSeq, n: int,
                    checkpoints: Optional[Sequence[int]] = None) -> BirkhoffReport:
    """Running averages of log p, log q and the log prefix-product ratio.

    These are the seeded statistical stand-ins for the almost-everywhere
    hypotheses (ergodic averages, ratio liminf behaviour): the report gives
    the trajectory at checkpoints plus a running min, never a single
    'the liminf is' number.
    """
    if checkpoints is None:
        checkpoints = default_checkpoints(n)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if checkpoints and (checkpoints[0] < 1 or checkpoints[-1] > n):
        raise SpecError("checkpoints must lie in [1, n]")
    rep = BirkhoffReport(n=n, checkpoints=list(checkpoints), mean_log_p=[],
                         mean_log_q=[], log_ratio=[], log_ratio_running_min=[],
                         pos_count=0, neg_count=0, bv_partial=[])
    slp = slq = 0.0
    running_min = math.inf
    # bv double sum: sum_{j} (p_j+q_j)/(q_1..q_j) * (sum_{k<j} p_k)
    sum_p = 0
    log_qprod = 0.0
    bv = 0.0
    ci = 0
    for j in range(1, n + 1):
        p, q = p_seq.q(j), q_seq.q(j)
        lp, lq = math.log(p), math.log(q)
        slp += lp
        slq += lq
        lr = slp - slq
        running_min = min(running_min, lr)
        if p > q:
            rep.pos_count += 1
        elif p < q:
            rep.neg_count += 1
        log_qprod += lq
        if j > 1:
            bv += math.exp(math.log(p + q) - log_qprod) * sum_p
        sum_p += p
        if ci < len(checkpoints) and j == checkpoints[ci]:
            rep.mean_log_p.append(slp / j)
            rep.mean_log_q.append(slq / j)
            rep.log_ratio.append(lr)
            rep.log_ratio_running_min.append(running_min)
            rep.bv_partial.append(bv)
            ci += 1
    return rep
