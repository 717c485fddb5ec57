"""point-queries: many short, independent exact queries, shaped like the
CLI subcommands psi-eval, continuity, monotone-witness, stage-approximant
evaluation and short digit dumps.

Inputs come from a fixed seeded pool of base specs (every spec kind) and
rational points with denominators 10..10^6: terminating points, eventually
periodic points that psi_value decides exactly by cycle detection, and
enclosure-only points.  A round is a fixed sequence of requests drawn
from the pool with Zipf popularity inside each (request kind, point class,
base kind) stratum, so some exact requests repeat while the mix of kinds
and classes is the same for every seed.  ROUNDS_PLANNED rounds are drawn
with the same popularity and replayed in turn until time is up.

Unit of work: one request.  Spans that include digit materialisation:
psi.value, psi.continuity and psi.approximant expand the point themselves;
digit dumps materialise under digitstream.expand, then canonicalize,
shift_T and psi_map read the memoised digits.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from cantorkit import cli, digitstream, psi, seqcore
from cantorkit.seqcore import HypothesisError, UndecidedError

from ..common import (Outcome, Request, clamp_value, digits_value, emit_csv,
                      emit_json, expand_int, parse_seqs, prefix_product,
                      spec_text, terminates_at, zipf_picks)

NAME = "point-queries"
UNIT = "one CLI-style request (parse specs, compute, emit JSON/CSV)"
TAIL_PCT = 99.0
# request kinds per round; cheap kinds (witness, approximant, terminating
# psi-eval) stay near a third, so the median latency falls inside the dense
# 1-2 ms band of digit dumps and continuity queries, not at its edge
ROUND = {"psi-eval": 150, "continuity": 100, "witness": 40,
         "approximant": 70, "digits": 100}
POOL = 16          # distinct items per stratum
ROUNDS_PLANNED = 8  # distinct draws from the pool, replayed in turn
HORIZON = 512      # psi-eval horizon, the CLI default
SHORT_HORIZON = 40  # for geometric bases, whose products grow as r^(n^2/2)

PERIODIC_KINDS = ("constant", "periodic", "explicit")
OTHER_KINDS = ("affine", "geometric", "iid")


def base_spec(rng: random.Random, kind: str) -> dict:
    if kind == "constant":
        return {"kind": "constant", "value": rng.randint(3, 10)}
    if kind == "periodic":
        return {"kind": "periodic",
                "values": [rng.randint(2, 9) for _ in range(rng.randint(2, 4))]}
    if kind == "explicit":
        tail = base_spec(rng, rng.choice(("constant", "periodic")))
        return {"kind": "explicit",
                "head": [rng.randint(2, 9) for _ in range(rng.randint(2, 5))],
                "tail": tail}
    if kind == "affine":
        return {"kind": "affine", "a": rng.randint(1, 4), "d": rng.randint(1, 3)}
    if kind == "geometric":
        return {"kind": "geometric", "a": rng.randint(1, 3), "r": 2}
    if kind == "iid":
        lo = rng.randint(2, 4)
        return {"kind": "iid", "lo": lo, "hi": lo + rng.randint(1, 6),
                "seed": rng.randrange(10 ** 6)}
    raise ValueError(kind)


def eventual_period(spec: dict):
    """(start, period) of an eventually periodic spec, else None."""
    kind = spec["kind"]
    if kind == "constant":
        return (0, 1)
    if kind == "periodic":
        return (0, len(spec["values"]))
    if kind == "explicit":
        t = eventual_period(spec["tail"])
        return None if t is None else (len(spec["head"]) + t[0], t[1])
    return None


def random_point(rng: random.Random) -> Fraction:
    d = rng.randint(10, 10 ** 6)
    return Fraction(rng.randrange(1, d), d)


def terminating_point(rng: random.Random, p, kmax: int = 6) -> Fraction:
    """a / (p_1..p_k): terminates after at most k digits."""
    while True:
        k = rng.randint(1, kmax)
        den = prefix_product(p.q, k)
        x = Fraction(rng.randrange(1, den), den)
        if 10 <= x.denominator <= 10 ** 6:
            return x


def periodic_point(rng: random.Random, p, pre: int, per: int):
    """Digits: `pre` free digits, then a block of `per` digits repeated;
    None when a few tries give no denominator in range."""
    for _ in range(8):
        head = [rng.randrange(p.q(j)) for j in range(1, pre + per + 1)]
        # value of head then the block forever, when the base repeats with
        # a period dividing `per` after `pre`
        lo = digits_value(p.q, head[:pre])
        block = digits_value(lambda j: p.q(pre + j), head[pre:])
        x = lo + block * Fraction(prefix_product(lambda j: p.q(pre + j), per),
                                  prefix_product(lambda j: p.q(pre + j), per) - 1) \
            / prefix_product(p.q, pre)
        if 0 < x < 1 and 10 <= x.denominator <= 10 ** 6:
            return x
    return None


def psi_exact_expected(pspec, qspec, p, x: Fraction, horizon: int) -> bool:
    """Whether psi_value must return a zero-width enclosure: the expansion
    terminates within the horizon, or both bases are eventually periodic and
    the remainders sampled every lcm(periods) digits repeat in the window."""
    pp, qp = eventual_period(pspec), eventual_period(qspec)
    span = horizon + (max(pp[0], qp[0]) + math.lcm(pp[1], qp[1])
                      if pp and qp else 0)
    _, _, rems = expand_int(x, p.q, span)
    nt = terminates_at(rems)
    if nt is not None and nt <= horizon:
        return True
    if pp is None or qp is None:
        return False
    start, L = max(pp[0], qp[0]), math.lcm(pp[1], qp[1])
    seen = set()
    n = start
    while n <= horizon + start:
        n += L
        if rems[n] in seen:
            return True
        seen.add(rems[n])
    return False


def psi_truth(pspec, qspec, p, q, x: Fraction, horizon: int):
    """(lo, hi) bracketing psi(x), found without psi_value: lo == hi when
    x's expansion terminates or, for eventually periodic bases, its
    remainders recur within twice the horizon; otherwise the enclosure of
    the first horizon + 16 clamped digits."""
    pp, qp = eventual_period(pspec), eventual_period(qspec)
    start, L = (max(pp[0], qp[0]), math.lcm(pp[1], qp[1])) if pp and qp else (0, 0)
    depth = max(horizon + 16, 2 * horizon + start + L if L else 0)
    e0, digs, rems = expand_int(x, p.q, depth)
    nt = terminates_at(rems)
    if nt is not None:
        v = psi.psi_terminating_value(p, q, digs[:nt], e0)
        return v, v
    if L:
        seen = {}
        for n in range(start, depth + 1, L):
            if rems[n] in seen:
                n1 = seen[rems[n]]
                num, block = 0, 1
                for j in range(n1 + 1, n + 1):
                    num = num * q.q(j) + min(digs[j - 1], q.q(j) - 1)
                    block *= q.q(j)
                v = clamp_value(q.q, digs[:n1], e0) + \
                    Fraction(num, block - 1) / prefix_product(q.q, n1)
                return v, v
            seen[rems[n]] = n
    depth = horizon + 16
    lo = clamp_value(q.q, digs[:depth], e0)
    return lo, lo + Fraction(1, prefix_product(q.q, depth))


def _horizon(*specs) -> int:
    return SHORT_HORIZON if any(s["kind"] == "geometric" for s in specs) \
        else HORIZON


# ---------------------------------------------------------------------------
# one function per request kind; each returns a Request whose call is timed

def psi_eval_request(pspec, qspec, x, horizon, exact_expected):
    ptext, qtext, xtext = spec_text(pspec), spec_text(qspec), str(x)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("cli.parse"):
            xv = cli.parse_rational(xtext)
        with tr.span("psi.value"):
            enc = psi.psi_value(p, q, xv, horizon=horizon)
        exact = enc.lo == enc.hi
        tr.count("psi.value_exact", exact)
        text = emit_json(tr, {"x": xtext, "lo": enc.lo, "hi": enc.hi,
                              "exact": exact})
        return Outcome(text, exact, enc)

    def check(out):
        # exact answers must be the true value; enclosures must contain it
        # and be no wider than the horizon's; only an expected-exact answer
        # that comes back inexact fails for want of exactness
        enc = out.value
        if exact_expected and not out.exact:
            return False
        p, q = seqcore.from_spec(pspec), seqcore.from_spec(qspec)
        lo, hi = psi_truth(pspec, qspec, p, q, x, horizon)
        if out.exact:
            return enc.lo == lo if lo == hi else lo <= enc.lo <= hi
        if enc.width > Fraction(1, prefix_product(q.q, horizon)) or \
                not enc.lo <= lo <= hi <= enc.hi:
            return False
        t = min(horizon, 24)
        a = psi.approximant_eval(p, q, t, x)
        b = psi.approximant_bound(q, t)
        return enc.lo <= a + b and a - b <= enc.hi

    return Request("psi-eval", call, check)


def continuity_request(pspec, qspec, x, decided_expected, hypothesis_expected):
    ptext, qtext, xtext = spec_text(pspec), spec_text(qspec), str(x)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("cli.parse"):
            xv = cli.parse_rational(xtext)
        with tr.span("psi.continuity"):
            rep = psi.classify_continuity(p, q, xv)
        tr.count("psi.continuity_decided", rep.decided)
        return Outcome(emit_json(tr, rep), rep.decided, rep)

    def check(out):
        rep = out.value
        if decided_expected and not (rep.decided and rep.jump is not None):
            return False
        p, q = seqcore.from_spec(pspec), seqcore.from_spec(qspec)
        e0, digs, rems = expand_int(x, p.q, 256)
        t = terminates_at(rems)
        digs = digs[:t]
        # left limit: last nonzero digit decremented, then p_j - 1 for H digits
        if t == 0:
            left_e0, left = e0 - 1, []
        else:
            left_e0, left = e0, digs[:-1] + [digs[-1] - 1]
        H = 40
        left = left + [p.q(j) - 1 for j in range(t + 1, t + H + 1)]
        psi_x = clamp_value(q.q, digs, e0)
        lo = clamp_value(q.q, left, left_e0)
        hi = lo + Fraction(1, prefix_product(q.q, t + H))
        jlo, jhi = psi_x - hi, psi_x - lo
        if rep.jump is not None:
            return rep.t == t and jlo <= rep.jump <= jhi and \
                (rep.status == "continuous") == (rep.jump == 0)
        blo, bhi = rep.jump_bracket
        return rep.t == t and blo <= jhi and jlo <= bhi

    if hypothesis_expected:
        return Request("continuity", call, None, expect_error=HypothesisError)
    return Request("continuity", call, check)


def witness_request(pspec, qspec, prefix, horizon, undecided_expected):
    ptext, qtext = spec_text(pspec), spec_text(qspec)
    prefix_text = ",".join(map(str, prefix))

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("cli.parse"):
            pre = [int(v) for v in prefix_text.split(",")] if prefix_text else []
        with tr.span("psi.witness"):
            rep = psi.monotonicity_witness(p, q, pre, horizon=horizon)
        return Outcome(emit_json(tr, rep), None, rep)

    def check(out):
        rep = out.value
        p, q = seqcore.from_spec(pspec), seqcore.from_spec(qspec)
        if rep.x_digits[:len(prefix)] != list(prefix):
            return False
        for ds in (rep.x_digits, rep.y_digits):
            if any(not 0 <= d < p.q(j) for j, d in enumerate(ds, start=1)):
                return False
        x, y = digits_value(p.q, rep.x_digits), digits_value(p.q, rep.y_digits)
        px, py = clamp_value(q.q, rep.x_digits), clamp_value(q.q, rep.y_digits)
        return (x, y, px, py) == (rep.x, rep.y, rep.psi_x, rep.psi_y) \
            and x < y and px > py

    if undecided_expected:
        return Request("witness", call, None, expect_error=UndecidedError)
    return Request("witness", call, check)


def approximant_request(pspec, qspec, t, x):
    ptext, qtext, xtext = spec_text(pspec), spec_text(qspec), str(x)

    def call(tr):
        p, q = parse_seqs(tr, ptext, qtext)
        with tr.span("cli.parse"):
            xv = cli.parse_rational(xtext)
        with tr.span("psi.approximant"):
            a = psi.approximant_eval(p, q, t, xv)
            b = psi.approximant_bound(q, t)
        return Outcome(emit_json(tr, {"x": xtext, "t": t, "value": a,
                                      "bound": b}), None, (a, b))

    def check(out):
        a, b = out.value
        p, q = seqcore.from_spec(pspec), seqcore.from_spec(qspec)
        depth = t + 16
        e0, digs, _ = expand_int(x, p.q, depth)
        lo = clamp_value(q.q, digs, e0)
        hi = lo + Fraction(1, prefix_product(q.q, depth))
        return b == Fraction(2, prefix_product(q.q, t)) and \
            lo - b <= a <= hi + b

    return Request("approximant", call, check)


def digits_request(bspec, qspec, x, n, variant):
    btext, qtext, xtext = spec_text(bspec), spec_text(qspec), str(x)

    def call(tr):
        base, q = parse_seqs(tr, btext, qtext)
        with tr.span("cli.parse"):
            xv = cli.parse_rational(xtext)
        with tr.span("digitstream.expand"):
            stream = digitstream.expand_rational(xv, base)
            digs = stream.digits(n)
        tr.count("digitstream.digits", n)
        tr.count("digitstream.digits_read", n)
        if variant == "dump":
            rows = [(j, base.q(j), d) for j, d in enumerate(digs, start=1)]
            return Outcome(emit_csv(tr, rows, ["n", "q_n", "E_n"]), None, digs)
        if variant == "dual":
            with tr.span("digitstream.canonicalize"):
                dual = digitstream.canonicalize(stream)
                ddigs = dual.digits(n)
            tr.count("digitstream.digits_read", n)
            rows = [(j, base.q(j), d) for j, d in enumerate(ddigs, start=1)]
            return Outcome(emit_csv(tr, rows, ["n", "q_n", "E_n"]), None,
                           (dual, ddigs))
        if variant == "tail":
            with tr.span("digitstream.shift"):
                enc = digitstream.shift_T(stream, n)
            return Outcome(emit_json(tr, {"n": n, "lo": enc.lo, "hi": enc.hi}),
                           enc.lo == enc.hi, enc)
        with tr.span("psi.map"):
            image = psi.psi_map(stream, q)
            idigs = image.digits(n)
        tr.count("digitstream.digits_read", n)
        rows = [(j, q.q(j), d) for j, d in enumerate(idigs, start=1)]
        return Outcome(emit_csv(tr, rows, ["n", "q_n", "F_n"]), None, idigs)

    def check(out):
        base, q = seqcore.from_spec(bspec), seqcore.from_spec(qspec)
        e0, digs, rems = expand_int(x, base.q, n)
        if variant == "dump":
            return out.value == digs
        if variant == "dual":
            dual, ddigs = out.value
            t = terminates_at(rems)
            want = digs[:t - 1] + [digs[t - 1] - 1] + \
                [base.q(j) - 1 for j in range(t + 1, n + 1)]
            value = digitstream.stream_value(dual)
            return ddigs == want[:n] and value.lo == value.hi == x
        if variant == "tail":
            return out.value.lo == out.value.hi == Fraction(rems[n], x.denominator)
        return out.value == [min(d, q.q(j) - 1) for j, d in enumerate(digs, start=1)]

    return Request("digits", call, check)


# ---------------------------------------------------------------------------

def _strata(rng: random.Random) -> dict:
    """(kind, class[, base kind]) -> list of POOL distinct requests.  Strata
    split the pool by what sets a request's cost, so that popularity skew
    inside a stratum moves a round's cost little from seed to seed."""
    strata = {}

    def fill(key, make):
        items = []
        while len(items) < POOL:
            r = make()
            if r is not None:
                items.append(r)
        strata[key] = items

    def pair(p_kinds, q_kinds):
        ps, qs = base_spec(rng, rng.choice(p_kinds)), base_spec(rng, rng.choice(q_kinds))
        return ps, qs, seqcore.from_spec(ps)

    # psi-eval: terminating, periodic-exact and enclosure-only points
    def eval_terminating(pk):
        ps, qs, p = pair((pk,), PERIODIC_KINDS + OTHER_KINDS)
        h = _horizon(ps, qs)
        x = terminating_point(rng, p)
        return psi_eval_request(ps, qs, x, h, psi_exact_expected(ps, qs, p, x, h))

    def eval_periodic(pk):
        ps, qs, p = pair((pk,), PERIODIC_KINDS)
        st, per = eventual_period(ps)
        x = periodic_point(rng, p, st + rng.randint(0, 2), per * rng.randint(1, 2))
        if x is None:
            return None
        ok = psi_exact_expected(ps, qs, p, x, HORIZON)
        return psi_eval_request(ps, qs, x, HORIZON, ok) if ok else None

    def eval_enclosure(pk):
        ps, qs, p = pair((pk,), ("affine", "iid"))
        h = _horizon(ps, qs)
        x = random_point(rng)
        ok = psi_exact_expected(ps, qs, p, x, h)
        return None if ok else psi_eval_request(ps, qs, x, h, False)

    for pk in PERIODIC_KINDS + OTHER_KINDS:
        fill(("psi-eval", "terminating", pk), lambda pk=pk: eval_terminating(pk))
        fill(("psi-eval", "enclosure", pk), lambda pk=pk: eval_enclosure(pk))
    for pk in PERIODIC_KINDS:
        fill(("psi-eval", "periodic", pk), lambda pk=pk: eval_periodic(pk))

    # continuity: exact tails (periodic pairs, or p >= q certified), bracket
    # tails, and non-terminating points that must raise HypothesisError
    def cont(p_kinds, q_kinds, decided):
        ps, qs, p = pair(p_kinds, q_kinds)
        x = terminating_point(rng, p, 5)
        return continuity_request(ps, qs, x, decided, False)

    def cont_hypothesis():
        ps, qs, p = pair(PERIODIC_KINDS, PERIODIC_KINDS)
        x = random_point(rng)
        _, _, rems = expand_int(x, p.q, 300)
        if terminates_at(rems) is not None:
            return None
        return continuity_request(ps, qs, x, False, True)

    fill(("continuity", "periodic"), lambda: cont(PERIODIC_KINDS, PERIODIC_KINDS, True))
    fill(("continuity", "certified"), lambda: cont(("affine",), ("constant", "periodic", "iid"), True))
    fill(("continuity", "bracket"), lambda: cont(("constant", "periodic"), ("affine",), False))
    fill(("continuity", "hypothesis"), cont_hypothesis)

    # witness: found within the horizon, or predicted UndecidedError
    def witness(undecided):
        if undecided:
            v = rng.randint(2, 6)
            ps = {"kind": "constant", "value": v}
            qs = base_spec(rng, "affine") if rng.random() < 0.5 else \
                {"kind": "constant", "value": v + rng.randint(0, 3)}
        else:
            ps, qs = base_spec(rng, rng.choice(("affine", "periodic", "explicit"))), \
                {"kind": "constant", "value": rng.randint(2, 4)}
        p, q = seqcore.from_spec(ps), seqcore.from_spec(qs)
        prefix = [rng.randrange(p.q(j)) for j in range(1, rng.randint(0, 3) + 1)]
        horizon = 200
        hit = any(p.q(j) > q.q(j) for j in range(len(prefix) + 1, horizon + 1))
        if hit == undecided:
            return None
        return witness_request(ps, qs, prefix, horizon, undecided)

    fill(("witness", "found"), lambda: witness(False))
    fill(("witness", "undecided"), lambda: witness(True))

    def approximant(pk):
        ps, qs, _ = pair((pk,), PERIODIC_KINDS + OTHER_KINDS)
        t = rng.randint(4, 10) if _horizon(ps, qs) == SHORT_HORIZON else rng.randint(16, 32)
        return approximant_request(ps, qs, t, random_point(rng))

    for pk in PERIODIC_KINDS + OTHER_KINDS:
        fill(("approximant", "all", pk), lambda pk=pk: approximant(pk))

    def digits(variant):
        bs = base_spec(rng, rng.choice(("constant", "periodic", "explicit", "affine", "iid")))
        qs = base_spec(rng, rng.choice(PERIODIC_KINDS))
        base = seqcore.from_spec(bs)
        n = rng.randint(150, 250)
        x = terminating_point(rng, base) if variant == "dual" else random_point(rng)
        return digits_request(bs, qs, x, n, variant)

    for variant in ("dump", "dual", "tail", "image"):
        fill(("digits", variant), lambda v=variant: digits(v))
    return strata


def build(seed: int):
    rng = random.Random(f"point-queries:{seed}")
    strata = _strata(rng)
    for key, items in strata.items():
        for i, r in enumerate(items):
            r.key = (key, i)
    warm = [items[0] for items in strata.values()]
    for items in strata.values():
        rng.shuffle(items)          # popularity rank, fixed for the run
    plans = []
    for _ in range(ROUNDS_PLANNED):
        round_reqs = []
        for kind, total in ROUND.items():
            keys = [k for k in strata if k[0] == kind]
            for i, key in enumerate(keys):
                share = total // len(keys) + (i < total % len(keys))
                round_reqs += zipf_picks(rng, strata[key], share)
        rng.shuffle(round_reqs)
        plans.append(round_reqs)
    return Workload(plans, warm)


class Workload:
    name, unit, tail_pct = NAME, UNIT, TAIL_PCT

    def __init__(self, plans, warm):
        self.plans = plans
        self.warm = warm

    def rounds(self):
        """Each round is one batch, checked in one child process."""
        for i in itertools.count():
            yield [self.plans[i % ROUNDS_PLANNED]]
