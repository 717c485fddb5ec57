"""stage-sweeps: exhaustive finite-stage exact computations, with no
sharing between operations.

Every round draws fresh inputs (ROUNDS_PLANNED rounds are drawn before
timing, about twice what a 30 s run uses here), so no request repeats
within a run:
  psi       variation_formula over a sweep of stages for a base pair,
            approximant_integral, sample_approximant grids (psi-plot path)
  fracdim   dim_ratio, multifractal_witness and range_report at horizon
            10^4, level_measure_sum
  seqcore   prefix_products and birkhoff_report
  foundry   random-access vbw_unrank/vbw_rank and vbw_count at big-integer
            indices, rdn_walk
Unit of work: one request (one operation over one input).  No span here
touches a digit stream.  A request counts as exact when its result holds
no float (common.exact_numbers): today the fracdim estimates and the
Birkhoff log ratios are floats.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from cantorkit import foundry, fracdim, psi, seqcore
from cantorkit.seqcore import default_checkpoints

from ..common import (Outcome, Request, clamp_value, emit_csv, emit_json,
                      exact_numbers, expand_int, parse_seqs, prefix_product,
                      spec_text)

NAME = "stage-sweeps"
UNIT = "one finite-stage operation on fresh inputs"
TAIL_PCT = 95.0
ROUNDS_PLANNED = 64
HORIZON = 10 ** 4
ORACLE_CELLS = 3000       # largest p_1..p_t the exhaustive oracles enumerate


def periodic_spec(rng, lo, hi):
    if rng.random() < 0.5:
        return {"kind": "constant", "value": rng.randint(lo, hi)}
    return {"kind": "periodic",
            "values": [rng.randint(lo, hi) for _ in range(rng.randint(2, 4))]}


def split_pair(rng):
    """(p, q) specs whose entries never coincide, big side first or second."""
    big, small = periodic_spec(rng, 4, 7), periodic_spec(rng, 2, 3)
    return (big, small) if rng.random() < 0.6 else (small, big)


def oracle_stage(p, tmax):
    t = 1
    while t < tmax and prefix_product(p.q, t + 1) <= ORACLE_CELLS:
        t += 1
    return t


# ---------------------------------------------------------------------------

def variation_request(ps, qs, tmax):
    ptext, qtext = spec_text(ps), spec_text(qs)
    stages = range(2, tmax + 1)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("psi.variation_formula"):
            reps = [psi.variation_formula(p, q, t) for t in stages]
        rows = [(r.t, str(r.value), str(r.upper_bound)) for r in reps]
        return Outcome(emit_csv(tr, rows, ["t", "variation", "upper_bound"]),
                       None, reps)

    def check(out):
        p, q = seqcore.from_spec(ps), seqcore.from_spec(qs)
        t_or = oracle_stage(p, tmax)
        for r in out.value:
            if r.method != "formula" or r.value > r.upper_bound:
                return False
            if r.t <= t_or and r.value != psi.variation_oracle(p, q, r.t):
                return False
        return True

    return Request("variation", call, check)


def integral_request(ps, qs, t_big):
    ptext, qtext = spec_text(ps), spec_text(qs)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        stages = list(range(1, oracle_stage(p, 8) + 1)) + [t_big]
        with tr.span("psi.integral"):
            vals = {t: psi.approximant_integral(p, q, t) for t in stages}
        return Outcome(emit_json(tr, vals), None, vals)

    def check(out):
        p, q = seqcore.from_spec(ps), seqcore.from_spec(qs)
        small = [t for t in out.value if t != t_big]
        for t in small:
            if out.value[t] != psi.approximant_integral_oracle(p, q, t):
                return False
        t = small[-1]
        gap = abs(out.value[t_big] - out.value[t])
        return gap <= psi.approximant_bound(q, t) + psi.approximant_bound(q, t_big)

    return Request("integral", call, check)


def sample_request(ps, qs, t, grid):
    ptext, qtext = spec_text(ps), spec_text(qs)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("psi.sample"):
            samples = psi.sample_approximant(p, q, t, grid)
        rows = [(str(x), str(y)) for x, y in samples]
        return Outcome(emit_csv(tr, rows, ["x", "psi_t"]), None, samples)

    def check(out):
        p, q = seqcore.from_spec(ps), seqcore.from_spec(qs)
        bound = psi.approximant_bound(q, t)
        depth = t + 8
        for i in range(0, grid, max(1, grid // 8)):
            x, y = out.value[i]
            if x != Fraction(i, grid):
                return False
            e0, digs, _ = expand_int(x, p.q, depth)
            lo = clamp_value(q.q, digs, e0)
            hi = lo + Fraction(1, prefix_product(q.q, depth))
            if not lo - bound <= y <= hi + bound:
                return False
        return True

    return Request("sample", call, check)


def dim_ratio_request(ps, qs):
    ptext, qtext = spec_text(ps), spec_text(qs)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("fracdim.dim_ratio"):
            est = fracdim.dim_ratio(lambda j: min(p.q(j), q.q(j)), q.q, HORIZON)
        tr.count("fracdim.terms", HORIZON)
        return Outcome(emit_json(tr, est), None, est)

    def check(out):
        est = out.value
        p, q = seqcore.from_spec(ps), seqcore.from_spec(qs)
        num = math.fsum(math.log(min(p.q(j), q.q(j))) for j in range(1, HORIZON + 1))
        den = math.fsum(math.log(q.q(j)) for j in range(1, HORIZON + 1))
        for c, (a, b) in est.exact_at.items():
            if a != math.prod(min(p.q(j), q.q(j)) for j in range(1, c + 1)) or \
                    b != prefix_product(q.q, c):
                return False
        return est.checkpoints == default_checkpoints(HORIZON) and \
            math.isclose(est.last, num / den, rel_tol=1e-9)

    return Request("dim-ratio", call, check)


def multifractal_request(ps, qs, alpha):
    ptext, qtext = spec_text(ps), spec_text(qs)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("fracdim.dim_ratio"):
            rep = fracdim.multifractal_witness(p, q, alpha, 1, horizon=HORIZON)
        tr.count("fracdim.terms", 3 * HORIZON)
        return Outcome(emit_json(tr, rep), None, rep)

    def check(out):
        rep = out.value
        p, q = seqcore.from_spec(ps), seqcore.from_spec(qs)
        forced, t = [], 1
        while len(forced) < HORIZON:
            forced += [False] * math.ceil((1 - alpha) * t) + [True] * math.ceil(alpha * t)
            t += 1
        num = math.fsum(0.0 if forced[j - 1] else math.log(q.q(j) - 1)
                        for j in range(1, HORIZON + 1))
        den = math.fsum(math.log(q.q(j)) for j in range(1, HORIZON + 1))
        return math.isclose(rep.dim_range[-1], num / den, rel_tol=1e-9)

    return Request("multifractal", call, check)


def range_request(ps, qs):
    ptext, qtext = spec_text(ps), spec_text(qs)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("fracdim.report"):
            rep = fracdim.range_report(p, q, horizon=HORIZON)
        tr.count("fracdim.terms", 2 * HORIZON)
        return Outcome(emit_json(tr, rep), None, rep)

    def check(out):
        rep = out.value
        p, q = seqcore.from_spec(ps), seqcore.from_spec(qs)
        sizes = [math.log(min(p.q(j), q.q(j))) for j in range(1, HORIZON + 1)]
        logq = [math.log(q.q(j)) for j in range(1, HORIZON + 1)]
        log_m = math.fsum(sizes) - math.fsum(logq)
        if rep.measure_partial is not None and rep.measure_partial != Fraction(
                math.prod(min(p.q(j), q.q(j)) for j in range(1, HORIZON + 1)),
                prefix_product(q.q, HORIZON)):
            return False
        return math.isclose(rep.measure_partial_log, log_m, rel_tol=1e-9, abs_tol=1e-9) and \
            math.isclose(rep.dim.estimate.last, math.fsum(sizes) / math.fsum(logq),
                         rel_tol=1e-9)

    return Request("range", call, check)


def level_sum_request(ps, qs, K):
    ptext, qtext = spec_text(ps), spec_text(qs)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("fracdim.level_sum"):
            rep = fracdim.level_measure_sum(p, q, K)
        tr.count("fracdim.terms", K)
        # tail_term_bound is a float scale hint beside the exact sums
        return Outcome(emit_json(tr, rep), exact_numbers(rep.series, rep.telescoped),
                       rep)

    def check(out):
        rep = out.value
        p, q = seqcore.from_spec(ps), seqcore.from_spec(qs)
        prod = math.prod(Fraction(p.q(j) - q.q(j) + 1, p.q(j)) for j in range(1, K + 1))
        return rep.series == rep.telescoped == 1 - prod

    return Request("level-sum", call, check)


def prefix_products_request(ps, n):
    ptext = spec_text(ps)
    ks, n_small = (1, 2, 3), 40

    def call(tr):
        (p,) = parse_seqs(tr, ptext)
        with tr.span("seqcore.prefix_products"):
            small = seqcore.prefix_products(p, n_small, ks)
            big = seqcore.prefix_products(p, n, ks)
        return Outcome(emit_json(tr, {"small": small, "big": big}), None, (small, big))

    def check(out):
        small, big = out.value
        p = seqcore.from_spec(ps)
        if big.product != prefix_product(p.q, n):
            return False
        for k in ks:
            terms = [math.prod(p.q(j + i) for i in range(k)) for j in range(1, n + 1)]
            if small.block_weights[k] != sum(Fraction(1, t) for t in terms[:n_small]):
                return False
            if not math.isclose(float(big.block_weights[k]),
                                math.fsum(1 / t for t in terms), rel_tol=1e-12):
                return False
        return True

    return Request("prefix-products", call, check)


def birkhoff_request(ps, qs):
    ptext, qtext = spec_text(ps), spec_text(qs)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("seqcore.birkhoff"):
            rep = seqcore.birkhoff_report(p, q, HORIZON)
        return Outcome(emit_json(tr, rep), None, rep)

    def check(out):
        rep = out.value
        p, q = seqcore.from_spec(ps), seqcore.from_spec(qs)
        pv = [p.q(j) for j in range(1, HORIZON + 1)]
        qv = [q.q(j) for j in range(1, HORIZON + 1)]
        lr = math.fsum(map(math.log, pv)) - math.fsum(map(math.log, qv))
        return rep.pos_count == sum(a > b for a, b in zip(pv, qv)) and \
            rep.neg_count == sum(a < b for a, b in zip(pv, qv)) and \
            math.isclose(rep.log_ratio[-1], lr, rel_tol=1e-9, abs_tol=1e-6)

    return Request("birkhoff", call, check)


def unrank_request(b, w, reps):
    def call(tr):
        with tr.span("foundry.unrank"):
            blocks = [foundry.vbw_unrank(b, w, r) for r in reps]
            ranks = [foundry.vbw_rank(b, w, blk) for blk in blocks]
        tr.count("foundry.indices", len(reps))
        tr.count("foundry.index_bits_sum", sum(r.bit_length() for r in reps))
        return Outcome(emit_json(tr, {"b": b, "w": w, "reps": reps, "ranks": ranks,
                                      "blocks": blocks}), None, (blocks, ranks))

    def check(out):
        blocks, ranks = out.value
        return all(rank <= r < rank + foundry.block_repeats(b, blk)
                   and len(blk) == w and all(0 <= d <= b for d in blk)
                   for r, blk, rank in zip(reps, blocks, ranks))

    return Request("unrank", call, check)


def count_request(b, w, queries):
    def call(tr):
        with tr.span("foundry.count"):
            counts = [foundry.vbw_count(b, w, v, idx) for v, idx in queries]
        tr.count("foundry.indices", len(queries))
        tr.count("foundry.index_bits_sum", sum(i.bit_length() for _, i in queries))
        return Outcome(emit_json(tr, {"b": b, "w": w, "queries": queries,
                                      "counts": counts}), None, counts)

    def check(out):
        for (v, idx), c in zip(queries, out.value):
            if idx <= 2000:
                want = sum(d == v for d in foundry.vbw_digits_iter(b, w, idx))
                if c != want:
                    return False
            elif sum(foundry.vbw_count(b, w, u, idx) for u in range(b + 1)) != idx:
                return False
        return True

    return Request("count", call, check)


def walk_request(stage, count, probes):
    def call(tr):
        with tr.span("foundry.walk"):
            rows = list(foundry.rdn_walk(stage, count))
        return Outcome(emit_csv(tr, rows, ["n", "w_n", "q_n", "y_n"]), None, rows)

    def check(out):
        rows = out.value
        return len(rows) == count and all(
            rows[t - 1] == (t,) + foundry.rdn_entry(stage, t) for t in probes)

    return Request("walk", call, check)


# ---------------------------------------------------------------------------

def _round(rng: random.Random) -> list[Request]:
    # sizes vary in narrow ranges: inputs change every round, cost little
    reqs = []
    for _ in range(6):
        ps, qs = split_pair(rng)
        reqs.append(variation_request(ps, qs, rng.randint(50, 60)))
    for _ in range(4):
        ps, qs = split_pair(rng)
        reqs.append(integral_request(ps, qs, rng.randint(300, 400)))
    for _ in range(2):
        ps, qs = split_pair(rng)
        reqs.append(sample_request(ps, qs, rng.randint(56, 64), rng.randint(180, 220)))
    for _ in range(2):
        ps, qs = split_pair(rng)
        reqs.append(dim_ratio_request(ps, qs))
    ps, qs = split_pair(rng)
    reqs.append(multifractal_request(periodic_spec(rng, 6, 9), periodic_spec(rng, 2, 5),
                                     Fraction(rng.randint(1, 7), 8)))
    ps, qs = split_pair(rng)
    reqs.append(range_request(ps, qs))
    for _ in range(2):
        reqs.append(level_sum_request(periodic_spec(rng, 5, 9), periodic_spec(rng, 2, 5),
                                      rng.randint(350, 450)))
    for _ in range(3):
        reqs.append(prefix_products_request(
            rng.choice([periodic_spec(rng, 2, 9),
                        {"kind": "affine", "a": rng.randint(1, 5), "d": rng.randint(1, 3)}]),
            rng.randint(2500, 3500)))
    for _ in range(2):
        ps, qs = split_pair(rng)
        reqs.append(birkhoff_request(ps, qs))
    for _ in range(4):
        b = rng.randint(7, 8)
        w = b * b
        reqs.append(unrank_request(b, w, [rng.randrange(2 ** (b * w)) for _ in range(32)]))
    for _ in range(2):
        b = rng.randint(7, 8)
        w = b * b
        length = foundry.vbw_length(b, w)
        queries = [(rng.randint(0, b), rng.randint(1, 2000)) for _ in range(2)] + \
            [(rng.randint(0, b), rng.randint(1, length)) for _ in range(10)]
        reqs.append(count_request(b, w, queries))
    count = rng.randint(2000, 4000)
    reqs.append(walk_request(6, count, sorted(rng.sample(range(1, count + 1), 12))))
    rng.shuffle(reqs)
    return reqs


def build(seed: int):
    return Workload(random.Random(f"stage-sweeps:{seed}"))


class Workload:
    name, unit, tail_pct = NAME, UNIT, TAIL_PCT

    def __init__(self, rng):
        # all rounds' inputs are drawn now, before any timing
        self.plans = [_round(rng) for _ in range(ROUNDS_PLANNED)]
        self.warm = _round(random.Random(0))[:6]

    def rounds(self):
        """Each round is one batch, checked in one child process."""
        for i in itertools.count():
            yield [self.plans[i % ROUNDS_PLANNED]]
