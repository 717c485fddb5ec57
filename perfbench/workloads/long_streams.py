"""long-streams: a few seeded digit sources, each materialised once to
10^5..10^6 digits, then read by a fixed battery of requests.

A round builds fresh streams: the test_c01 computation (7/8 in base 3,
mapped into Periodic([3,2]), 10^6 digits), large-denominator rationals
over constant, periodic and affine bases, a golden-ratio stream, an iid
digit stream and the staged foundry.qnex_pair stream at a modest length.
Each source is materialised by one explicit digits(n) request, so that
cost lands on digitstream (foundry.stream for qnex); the battery then
rereads the memoised digits: block counts for every block of length <= 2
over {0,1,2}, normality_report, ud_report in digit-ratio and (shorter)
orbit mode, psi_map + canonicalize of the full image, a compose_chain
through affine bases, accumulation_estimate and exact tails shift_T.

A source's streams are dropped once its battery is done, so the peak
memory is that of the largest source, test_c01's.

Unit of work: one request; a round is 7 sources x 22 requests.  Spans
that include digit materialisation besides digitstream.expand and
foundry.stream: psi.map (image digits), digitstream.canonicalize (the
canonical form's digits) and normstats.orbit (tail enclosures read up to
40 digits past the orbit window).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from cantorkit import digitstream, foundry, normstats, psi, seqcore
from cantorkit.seqcore import IID

from ..common import (Outcome, Request, clamp_value, emit_json, exact_numbers,
                      expand_int, parse_seqs, prefix_product, spec_text,
                      star_discrepancy_counted)

NAME = "long-streams"
UNIT = "one request of a source's battery (7 sources x 22 requests a round)"
TAIL_PCT = 90.0
N_C01 = 10 ** 6
N_SOURCE = 10 ** 5
N_QNEX = 2 * 10 ** 4
ROUNDS_PLANNED = 6


@dataclass(frozen=True)
class Windows:
    """How many leading digits each battery request reads."""
    block: int = 10 ** 4           # block counts
    normality: int = 10 ** 4       # normality_report
    ud: int = 4000                 # digit-ratio discrepancy
    orbit: int = 500               # orbit discrepancy
    chain: int = 2 * 10 ** 4       # compose_chain
    acc: int = 5 * 10 ** 4         # accumulation_estimate


FULL = Windows()
WARM = Windows(block=100, normality=100, ud=100, orbit=50, chain=100, acc=100)
ORBIT_DEPTH = 40
CANON_WINDOW = 64         # psi_map's max-tail certificate window
ORACLE_POINTS = 320        # checkpoints up to this size go to the O(N^2) oracle
ALPHABET = 3
BLOCKS = [(a,) for a in range(ALPHABET)] + \
    list(itertools.product(range(ALPHABET), repeat=2))
GOLDEN_BITS = 256


class Source:
    """One seeded digit source: how to build it and how to recompute its
    digits by an independent route."""

    def __init__(self, label, kind, base_spec, target_spec, chain_specs, n,
                 x=None, draws=None):
        self.label, self.kind, self.n = label, kind, n
        self.base_text = spec_text(base_spec)
        self.target_text = spec_text(target_spec)
        self.chain_texts = [spec_text(s) for s in chain_specs]
        self.x = x              # rational sources
        self.draws = draws      # iid sources: (lo, hi, seed)
        self._own = None

    def build(self, base):
        """The library's stream over `base` (qnex brings its own base)."""
        if self.kind == "rational":
            return digitstream.expand_rational(self.x, base)
        if self.kind == "golden":
            return normstats.golden_ratio_stream(base, GOLDEN_BITS)
        lo, hi, seed = self.draws     # iid digits, as the CLI's iid: source
        draws = IID(lo + 2, hi + 2, seed)
        return digitstream.from_rule(
            base, lambda n: min(draws.q(n) - 2, base.q(n) - 1),
            canonicity="unknown", label="iid-digits")

    def own(self):
        """(base, digits, remainder numerators or None), recomputed
        without the library's digit streams."""
        if self._own is None:
            base = seqcore.from_spec(json.loads(self.base_text)) \
                if self.kind != "qnex" else foundry.qnex_pair()[0]
            n = self.n + ORBIT_DEPTH + 2
            rems = None
            if self.kind == "rational":
                _, digs, rems = expand_int(self.x, base.q, n)
            elif self.kind == "golden":
                one = 1 << GOLDEN_BITS
                g = math.isqrt(5 << (2 * GOLDEN_BITS)) - one
                digs = [((m * g) % one * base.q(m)) >> GOLDEN_BITS
                        for m in range(1, n + 1)]
            elif self.kind == "iid":
                lo, hi, seed = self.draws
                rng = random.Random(seed)
                digs = [min(rng.randint(lo + 2, hi + 2) - 2, base.q(m) - 1)
                        for m in range(1, n + 1)]
            else:
                digs = list(foundry.vbw_digits_iter(6, 36, n))
            self._own = (base, digs, rems)
        return self._own


def _sources(rng: random.Random) -> list[Source]:
    def small_periodic(hi=9):
        return {"kind": "periodic",
                "values": [rng.randint(3, hi) for _ in range(rng.randint(2, 4))]}

    def affine():
        return {"kind": "affine", "a": rng.randint(2, 5), "d": rng.randint(1, 3)}

    def chain():
        return [affine() for _ in range(rng.randint(2, 3))]

    def big_rational():
        d = rng.randrange(10 ** 11, 10 ** 12)
        return Fraction(rng.randrange(1, d), d)

    const = {"kind": "constant", "value": rng.randint(4, 10)}
    return [
        Source("c01", "rational", {"kind": "constant", "value": 3},
               {"kind": "periodic", "values": [3, 2]}, chain(), N_C01,
               x=Fraction(7, 8)),
        Source("rational-constant", "rational", const, small_periodic(),
               chain(), N_SOURCE, x=big_rational()),
        Source("rational-periodic", "rational", small_periodic(),
               {"kind": "constant", "value": rng.randint(3, 5)}, chain(),
               N_SOURCE, x=big_rational()),
        Source("rational-affine", "rational", affine(),
               {"kind": "constant", "value": rng.randint(3, 6)}, chain(),
               N_SOURCE, x=big_rational()),
        Source("golden", "golden",
               {"kind": "constant", "value": rng.randint(3, 10)},
               small_periodic(), chain(), N_SOURCE),
        Source("iid", "iid", {"kind": "constant", "value": rng.randint(3, 6)},
               small_periodic(), chain(), N_SOURCE,
               draws=(0, rng.randint(3, 8), rng.randrange(10 ** 6))),
        Source("qnex", "qnex", {"kind": "qnex"}, small_periodic(), chain(),
               N_QNEX),
    ]


# ---------------------------------------------------------------------------
# the battery: a function per request kind, returning Requests that share
# one stream through `state`

def battery(src: Source, w: Windows = FULL) -> list[Request]:
    state = {}
    n = src.n
    counted = src.kind != "qnex"    # qnex digits are foundry work

    def read(tr, k):
        if counted:
            tr.count("digitstream.digits_read", k)

    def materialise(tr):
        if src.kind == "qnex":
            with tr.span("foundry.stream"):
                _, stream = foundry.qnex_pair()
                digs = stream.digits(n)
        else:
            (base,) = parse_seqs(tr, src.base_text)
            with tr.span("digitstream.expand"):
                stream = src.build(base)
                digs = stream.digits(n)
            tr.count("digitstream.digits", n)
        state["stream"] = stream
        text = emit_json(tr, {"source": src.label, "n": n, "e0": stream.e0,
                              "canonicity": stream.canonicity,
                              "tail": digs[-16:]})
        return Outcome(text, None, stream)

    def check_materialise(out):
        _, digs, _ = src.own()
        return out.value.digits(n) == digs[:n]

    reqs = [Request("materialise", materialise, check_materialise)]

    for block in BLOCKS:
        def count(tr, block=block):
            with tr.span("normstats.block_count"):
                c = normstats.count_blocks(state["stream"], block, w.block)
            tr.count("normstats.positions", w.block)
            read(tr, w.block + len(block) - 1)
            return Outcome(emit_json(tr, {"block": list(block), "n": w.block,
                                          "count": c}), None, c)

        def check_count(out, block=block):
            _, digs, _ = src.own()
            k = len(block)
            want = sum(1 for j in range(w.block) if tuple(digs[j:j + k]) == block)
            return out.value == want

        reqs.append(Request("block-count", count, check_count))

    for k in (1, 2):
        def normality(tr, k=k):
            with tr.span("normstats.normality"):
                rep = normstats.normality_report(state["stream"], k, ALPHABET,
                                                 w.normality)
            tr.count("normstats.positions", w.normality)
            read(tr, w.normality + k - 1)
            return Outcome(emit_json(tr, rep), rep.weights_exact, rep)

        def check_normality(out, k=k):
            rep = out.value
            base, digs, _ = src.own()
            running = Counter(tuple(digs[j:j + k]) for j in range(rep.checkpoints[0]))
            w, prev = 0.0, 0
            for i, c in enumerate(rep.checkpoints):
                if i:
                    running.update(tuple(digs[j:j + k]) for j in range(prev, c))
                if any(rep.counts[b][i] != running[b] for b in rep.blocks):
                    return False
                if isinstance(base, seqcore.Constant):
                    if rep.weights[i] != Fraction(c, base.value ** k):
                        return False
                else:
                    w += math.fsum(1 / math.prod(base.q(j + i2) for i2 in range(k))
                                   for j in range(prev + 1, c + 1))
                    if not math.isclose(float(rep.weights[i]), w, rel_tol=1e-9):
                        return False
                prev = c
            return True

        reqs.append(Request("normality", normality, check_normality))

    def discrepancy(tr):
        with tr.span("normstats.discrepancy"):
            rep = normstats.ud_report(state["stream"], "digit-ratio", w.ud)
        tr.count("normstats.points_sorted", sum(rep.checkpoints))
        read(tr, w.ud)
        return Outcome(emit_json(tr, rep), None, rep)

    def check_discrepancy(out):
        base, digs, _ = src.own()
        pts = [Fraction(digs[m - 1], base.q(m)) for m in range(1, w.ud + 1)]
        return check_ud(out.value, pts)

    reqs.append(Request("discrepancy", discrepancy, check_discrepancy))

    def orbit(tr):
        with tr.span("normstats.orbit"):
            rep = normstats.ud_report(state["stream"], "orbit", w.orbit,
                                      orbit_depth=ORBIT_DEPTH)
        tr.count("normstats.points_sorted", sum(rep.checkpoints))
        read(tr, w.orbit + ORBIT_DEPTH)
        exact = rep.max_enclosure_width == 0
        return Outcome(emit_json(tr, rep), exact, rep)

    def check_orbit(out):
        # the orbit points are known to within their enclosures; moving
        # every point by at most e moves the star discrepancy by at most e,
        # so the report may differ from the discrepancy of deep midpoints
        # by half the library's width plus half the deep width
        rep = out.value
        base, digs, rems = src.own()
        pts, widest, deep = [], Fraction(0), Fraction(0)
        for m in range(1, w.orbit + 1):
            lo, hi = tail(base, digs, rems, src, m)
            widest = max(widest, hi - lo)
            lo, hi = tail(base, digs, rems, src, m, 2 * ORBIT_DEPTH)
            deep = max(deep, hi - lo)
            mid = (lo + hi) / 2
            pts.append(mid if mid < 1 else Fraction(0))
        slack = (rep.max_enclosure_width + deep) / 2
        return rep.max_enclosure_width <= widest and check_ud(rep, pts, slack)

    reqs.append(Request("orbit", orbit, check_orbit))

    def image(tr):
        (q,) = parse_seqs(tr, src.target_text)
        with tr.span("psi.map"):
            img = psi.psi_map(state["stream"], q, canonicity_window=CANON_WINDOW)
            digs = img.digits(n)
        read(tr, n)
        state["image"] = img
        return Outcome(emit_json(tr, {"n": n, "max_tail_start": img.max_tail_start,
                                      "tail": digs[-16:]}), None, img)

    def check_image(out):
        _, digs, _ = src.own()
        q = seqcore.from_spec(json.loads(src.target_text))
        return out.value.digits(n) == \
            [min(d, q.q(j) - 1) for j, d in enumerate(digs[:n], 1)]

    reqs.append(Request("psi-map", image, check_image))

    def canonical(tr):
        with tr.span("digitstream.canonicalize"):
            canon = digitstream.canonicalize(state["image"])
            digs = canon.digits(n)
        return Outcome(emit_json(tr, {"n": n, "e0": canon.e0,
                                      "changed": canon is not state["image"],
                                      "tail": digs[-16:]}), None,
                       (canon, state["image"]))

    def check_canonical(out):
        # max-tail detection trusts window evidence: psi_map's certificate
        # covers CANON_WINDOW digits.  An image whose clamped digits are all
        # maximal from a digit inside that window through digit n must be
        # rewritten; a rewrite must have an exact value that agrees with the
        # window's digits
        canon, img = out.value
        _, digs, _ = src.own()
        q = seqcore.from_spec(json.loads(src.target_text))
        k = n + 1
        while k > 1 and min(digs[k - 2], q.q(k - 1) - 1) == q.q(k - 1) - 1:
            k -= 1
        if canon is img:
            return k > CANON_WINDOW
        value = digitstream.stream_value(canon)
        head = [min(d, q.q(j) - 1) for j, d in enumerate(digs[:CANON_WINDOW], 1)]
        lo = img.e0 + clamp_value(q.q, head)
        return value.lo == value.hi and \
            lo <= value.lo <= lo + Fraction(1, prefix_product(q.q, CANON_WINDOW))

    reqs.append(Request("canonicalize", canonical, check_canonical))

    def compose(tr):
        chain = parse_seqs(tr, *src.chain_texts)
        with tr.span("psi.map"):
            digs = psi.compose_chain(state["stream"], chain).digits(w.chain)
        read(tr, w.chain)
        return Outcome(emit_json(tr, {"n": w.chain, "ones": digs.count(1),
                                      "tail": digs[-16:]}), None, digs)

    def check_compose(out):
        _, digs, _ = src.own()
        out_digs = list(digs[:w.chain])
        for text in src.chain_texts:
            b = seqcore.from_spec(json.loads(text))
            out_digs = [min(d, b.q(j) - 1) for j, d in enumerate(out_digs, 1)]
        return out.value == out_digs

    reqs.append(Request("compose-chain", compose, check_compose))

    n_acc = min(n, w.acc)

    def accumulation(tr):
        with tr.span("normstats.accumulation"):
            rep = normstats.accumulation_estimate(state["stream"], n_acc)
        read(tr, n_acc - n_acc // 2)
        # coverage is a float summary of the exact hit cells
        return Outcome(emit_json(tr, rep), exact_numbers(rep.hit_cells), rep)

    def check_accumulation(out):
        base, digs, _ = src.own()
        cells = {min(digs[m - 1] * 100 // base.q(m), 99)
                 for m in range(n_acc // 2 + 1, n_acc + 1)}
        return out.value.hit_cells == sorted(cells)

    reqs.append(Request("accumulation", accumulation, check_accumulation))

    positions = [1 + (i * (n - ORBIT_DEPTH - 2)) // 64 for i in range(64)]

    def shifts(tr):
        with tr.span("digitstream.shift"):
            encs = [digitstream.shift_T(state["stream"], m, depth=ORBIT_DEPTH)
                    for m in positions]
        read(tr, len(positions) * ORBIT_DEPTH)
        exact = all(e.lo == e.hi for e in encs)
        return Outcome(emit_json(tr, {"positions": positions,
                                      "lo": [e.lo for e in encs],
                                      "hi": [e.hi for e in encs]}), exact, encs)

    def check_shifts(out):
        # each enclosure is no wider than ORBIT_DEPTH digits give and holds
        # the enclosure of twice as many (both exact for rationals)
        base, digs, rems = src.own()
        for e, m in zip(out.value, positions):
            lo, hi = tail(base, digs, rems, src, m)
            deep_lo, deep_hi = tail(base, digs, rems, src, m, 2 * ORBIT_DEPTH)
            if e.width > hi - lo or not e.lo <= deep_lo <= deep_hi <= e.hi:
                return False
        return True

    reqs.append(Request("shift", shifts, check_shifts))
    return reqs


def tail(base, digs, rems, src, m, depth=ORBIT_DEPTH):
    """T_m: exact for rationals, else the enclosure from `depth` further
    digits."""
    if rems is not None:
        r = Fraction(rems[m], src.x.denominator)
        return r, r
    num, den = 0, 1
    for j in range(m + 1, m + depth + 1):
        qj = base.q(j)
        num = num * qj + digs[j - 1]
        den *= qj
    return Fraction(num, den), Fraction(num + 1, den)


def check_ud(rep, pts, slack=0) -> bool:
    """Each checkpoint's discrepancy is within `slack` of the points' own."""
    for c, d in zip(rep.checkpoints, rep.discrepancy):
        want = normstats.star_discrepancy_oracle(pts[:c]) if c <= ORACLE_POINTS \
            else star_discrepancy_counted(pts[:c])
        if abs(d - want) > slack:
            return False
    return True


def build(seed: int):
    rng = random.Random(f"long-streams:{seed}")
    return Workload(rng)


class Workload:
    name, unit, tail_pct = NAME, UNIT, TAIL_PCT

    def __init__(self, rng):
        # all rounds' inputs are drawn now, before any timing
        self.plans = [_sources(rng) for _ in range(ROUNDS_PLANNED)]
        tiny = _sources(random.Random(0))
        for s in tiny:
            s.n = 300
        self.warm = [r for s in tiny for r in battery(s, WARM)]

    def rounds(self):
        """Each round is a sequence of batches, one source's battery each;
        a batch is checked in one child process, which expands the source
        by its independent route once."""
        for i in itertools.count():
            yield Round(self.plans[i % len(self.plans)])


class Round:
    """A round's batteries, built as each one starts, so that a source's
    streams are dropped when its battery is done; iterating again replays
    the round on fresh streams."""

    def __init__(self, plan):
        self.plan = plan

    def __iter__(self):
        return (battery(s) for s in self.plan)

