"""Acceptance suite: one test per criterion, run with -v for per-line status.

Each test exercises one end-to-end guarantee of the package at its stated
tolerance.  Nothing here is randomized at run time: every randomized input
uses a fixed seed, so a failure is reproducible.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import cantorkit as ck
from cantorkit import foundry, fracdim, normstats, psi as psimod
from cantorkit.digitstream import canonicalize, expand_rational, from_digits
from cantorkit.seqcore import (
    Affine,
    Constant,
    Explicit,
    Formula,
    Geometric,
    IID,
    Periodic,
)


def _prod(seq, n):
    out = 1
    for j in range(1, n + 1):
        out *= seq.q(j)
    return out


# -- 1: single-digit counts survive the map only after canonicalizing --------

def test_c01_digit_count_collapse_at_one_million():
    start = time.time()
    p, q = Constant(3), Periodic([3, 2])
    x = expand_rational(Fraction(7, 8), p)
    assert x.digits(8) == [2, 1] * 4
    n_max = 10 ** 6
    ones = 0
    for n, d in enumerate(x.digits(n_max), start=1):
        if d == 1:
            ones += 1
        assert ones == n // 2
    image = canonicalize(ck.psi_map(x, q, canonicity_window=64))
    assert image.e0 == 1
    digs = image.digits(n_max)
    assert all(d == 0 for d in digs)  # zero occurrences of the digit 1
    assert time.time() - start < 5.0


# -- 2: block-count differences under chained maps freeze early --------------

def _occurrences(digits, block):
    L = len(block)
    return [n for n in range(len(digits) - L + 1)
            if digits[n:n + L] == block]


def test_c02_chained_map_block_count_gap_is_bounded():
    n_max, n_freeze = 10 ** 5, 10 ** 4
    p = Affine(4, 1)                      # 5, 6, 7, ...
    chains = {
        2: [Affine(3, 2), Affine(2, 3)],  # 5,7,9,...  5,8,11,...
        3: [Affine(3, 2), Affine(2, 3), Affine(4, 2)],
    }
    rng = random.Random(11)
    x_digits = [rng.randrange(p.q(n)) for n in range(1, n_max + 2)]
    x = from_digits(p, x_digits)
    blocks = [[a] for a in range(5)] + [[a, b] for a in range(5)
                                        for b in range(5)]
    for j, bases in chains.items():
        y_digits = ck.compose_chain(x, bases).digits(n_max + 1)
        for block in blocks:
            occ_x = set(_occurrences(x_digits[:n_max + 1], block))
            occ_y = set(_occurrences(y_digits, block))
            # running difference of cumulative counts at every position
            cx = cy = 0
            best, best_at = 0, 0
            for n in sorted(occ_x | occ_y):
                cx += n in occ_x
                cy += n in occ_y
                d = abs(cx - cy)
                if d > best:
                    best, best_at = d, n
            assert best_at < n_freeze, (j, block, best_at)


# -- 3: stage variation formula vs. exhaustive breakpoint oracle --------------

def test_c03_variation_formula_equals_oracle_exhaustively():
    start = time.time()
    checked = 0
    for t in (2, 3, 4):
        ranges = [range(2, 6)] * t
        for ps in _tuples(ranges):
            for qs in _tuples(ranges):
                # p_t = q_t included: the formula serves those stages too
                p = Explicit(list(ps), Constant(2))
                q = Explicit(list(qs), Constant(2))
                rep = psimod.variation_formula(p, q, t)
                assert rep.method == "formula"
                assert rep.value == psimod.variation_oracle(p, q, t), (ps, qs)
                if rep.upper_bound is not None:
                    assert rep.value <= rep.upper_bound, (ps, qs)
                checked += 1
    assert checked > 10 ** 3
    assert time.time() - start < 60.0


def _tuples(ranges):
    if not ranges:
        yield ()
        return
    for v in ranges[0]:
        for rest in _tuples(ranges[1:]):
            yield (v,) + rest


# -- 4: continuity classifier vs. one-sided approach oracle -------------------

def _left_limit_bracket(p, q, digits, s):
    """psi(x-) bracketed by psi of the truncated dual representation."""
    t = len(digits)
    dual = digits[:-1] + [digits[-1] - 1]
    dual += [p.q(j) - 1 for j in range(t + 1, s + 1)]
    lo = psimod.psi_terminating_value(p, q, dual)
    return lo, lo + Fraction(1, _prod(q, s))


def _check_point(p, q, digits):
    x = sum(Fraction(d, _prod(p, n)) for n, d in enumerate(digits, start=1))
    rep = psimod.classify_continuity(p, q, x)
    assert rep.decided, (digits,)
    assert rep.right_status == "continuous"
    lo, hi = _left_limit_bracket(p, q, digits, s=len(digits) + 60)
    px = psimod.psi_terminating_value(p, q, digits)
    assert px - hi <= rep.jump <= px - lo, (digits, rep.jump)
    if rep.status == "continuous":
        assert rep.jump == 0
        assert px - hi <= 0 <= px - lo
    else:
        assert rep.jump != 0


def test_c04_continuity_classifier_matches_limit_oracle():
    rng = random.Random(404)
    checked = 0
    for _ in range(20):
        period = rng.randint(1, 3)
        p = Periodic([rng.randint(2, 6) for _ in range(period)])
        q = Periodic([rng.randint(2, 6) for _ in range(period)])
        for _ in range(5):
            t = rng.randint(1, 8)
            digits = [rng.randrange(p.q(n)) for n in range(1, t + 1)]
            digits[-1] = rng.randint(1, p.q(t) - 1)
            _check_point(p, q, digits)
            checked += 1
    assert checked == 100
    # worked examples with exact jumps
    rep = psimod.classify_continuity(Constant(5), Constant(3), Fraction(3, 5))
    assert (rep.status, rep.jump, rep.set_tag) == ("jump", Fraction(-1, 3), "A")
    rep = psimod.classify_continuity(Constant(2), Constant(10), Fraction(1, 2))
    assert (rep.status, rep.jump, rep.set_tag) == ("jump", Fraction(4, 45), "B")


# -- 5: uniform convergence rate of the stage approximants --------------------

def test_c05_approximant_uniform_bound_on_grids():
    rng = random.Random(55)
    for _ in range(5):
        p = Explicit([rng.randint(2, 6) for _ in range(40)], Constant(3))
        q = Explicit([rng.randint(2, 6) for _ in range(40)], Constant(2))
        for t in (4, 8, 16):
            bound = Fraction(1, 2 ** (t - 1))
            assert psimod.approximant_bound(q, t) <= bound
            for i in range(1000):
                x = Fraction(i, 1000)
                gap = abs(psimod.approximant_eval(p, q, t, x)
                          - psimod.approximant_eval(p, q, t + 20, x))
                assert gap <= bound, (t, x)


# -- 6: dimension-ratio evaluator closed forms and cylinder measures ----------

def test_c06_dimension_ratio_closed_forms_and_cylinder_oracle():
    for a, b in ((2, 4), (3, 9), (2, 8), (5, 7)):
        rep = fracdim.wegmann_report(Constant(b), lambda j, a=a: a,
                                     horizon=10 ** 4)
        want = math.log(a) / math.log(b)
        assert abs(rep.estimate.values[-1] - want) < 1e-9, (a, b)
    # depth-8 cylinder measure: brute digit count equals the partial product
    rng = random.Random(66)
    for _ in range(10):
        ps = [rng.randint(2, 4) for _ in range(8)]
        qs = [rng.randint(2, 4) for _ in range(8)]
        p = Explicit(ps, Constant(2))
        q = Explicit(qs, Constant(2))
        w = [min(rng.randrange(ps[j]), qs[j] - 1) for j in range(8)]
        rep = fracdim.level_report(p, q, w, horizon=8)
        hits = sum(1 for digs in itertools.product(*[range(pj) for pj in ps])
                   if all(min(e, qj - 1) == wj
                          for e, qj, wj in zip(digs, qs, w)))
        brute = Fraction(hits, math.prod(ps))
        assert rep.measure_partial == brute, (ps, qs, w)


# -- 7: staged word identities, big-integer counts, cell landing --------------

def test_c07_construction_identities():
    # lengths as big integers
    for b in (2, 3, 8, 16, 32, 64):
        for w in (1, 2, 5, 64):
            assert foundry.vbw_length(b, w) == w * 2 ** (b * w)
    # rank/unrank round trip against materialization
    for b in range(2, 5):
        for w in range(1, 5):
            reps_before = 0
            for block, reps in foundry.vbw_blocks(b, w):
                assert foundry.vbw_rank(b, w, block) == reps_before
                assert foundry.vbw_unrank(b, w, reps_before) == block
                assert foundry.vbw_unrank(b, w, reps_before + reps - 1) == block
                reps_before += reps
            assert reps_before == 2 ** (b * w)
    # per-stage counting identity by formula
    for i in range(2, 13):
        rep = foundry.rdn_count_identities(i)
        for key in ("length", "count_small", "count_large"):
            assert rep["formula"][key] == rep["computed"][key], (i, key)
    # i = 2 by full enumeration of the 1024-digit stage word
    length = foundry.vbw_length(2, 4)
    assert length == 1024
    digits = list(foundry.vbw_digits_iter(2, 4, length))
    assert len(digits) == 1024
    assert digits.count(2) == 4 * 2 ** 8 - 8 * 2 ** 6
    assert digits.count(0) == digits.count(1) == 4 * 2 ** 6
    # divisibility of the top-digit count by the stage index
    for i in range(2, 65):
        large = i * i * 2 ** (i ** 3) - i ** 3 * 2 ** (i ** 3 - i)
        assert large % i == 0, i
        assert foundry.rdn_class_size(i) * i == large
    # exhaustive cell-landing check
    for i in range(2, 2001):
        for alpha in range(1, i):
            assert foundry.in_delta_check(i, alpha), (i, alpha)


# -- 8: paired-construction desk check ----------------------------------------

def test_c08_paired_digit_ratios_and_orbit_bound():
    i = 6  # every position below 10^5 sits in the first stage
    for (t, w, q, y) in foundry.rdn_walk(i, 10 ** 5):
        num = min(w, q - 1)
        # cell of num/q within the i-grid must be the recorded class index
        cell = min((num * i) // q, i - 1)
        assert cell == min((y * i) // i, i - 1) == y, (t, w, q, y)
    q_seq = Affine(3, 1)
    x = normstats.golden_ratio_stream(q_seq)
    p_seq, y = foundry.dnnotrn_pair(q_seq, x)
    ok, worst = foundry.orbit_closeness(x, y, 10 ** 4)
    assert ok
    assert worst <= 1


# -- 9: closed-form measure of the paired-construction image ------------------

def test_c09_image_measure_log_leading_coefficient():
    import mpmath
    start = time.time()
    v = foundry.rdn_measure_log10()
    lead = float(v / mpmath.mpf(10) ** 317)
    assert abs(lead - (-1.3095)) / 1.3095 < 0.01
    assert time.time() - start < 1.0


# -- 10: star discrepancy, exact and applied ----------------------------------

def test_c10_star_discrepancy_oracle_grid_and_golden():
    rng = random.Random(1010)
    for _ in range(100):
        n = rng.randint(1, 200)
        den = rng.randint(n, 4 * n + 7)
        pts = [Fraction(rng.randrange(den), den) for _ in range(n)]
        assert normstats.star_discrepancy(pts) == \
            normstats.star_discrepancy_oracle(pts)
    for n in (1, 7, 64, 200):
        grid = [Fraction(i, n) for i in range(n)]
        assert normstats.star_discrepancy(grid) == Fraction(1, n)
    g = normstats.golden_ratio_stream(Affine(2, 1))
    rep = normstats.ud_report(g, "digit-ratio", 10 ** 4)
    assert float(rep.discrepancy[-1]) < 0.02


# -- 11: multifractal witness hits its target dimensions ----------------------

def test_c11_multifractal_witness_dimensions():
    p = Formula(lambda n: 2 ** n, label="2^n")
    q = Formula(lambda n: n + 1, label="n+1")
    rep = fracdim.multifractal_witness(p, q, Fraction(1, 2), Fraction(1),
                                       horizon=10 ** 4)
    assert abs(rep.dim_level[-1] - 0.5) < 0.05
    assert abs(rep.dim_range[-1] - 0.5) < 0.05
    zero = fracdim.multifractal_witness(p, q, 0, 1, horizon=10 ** 4)
    assert zero.exact_zero
    assert all(v == 0 for v in zero.dim_level[1:])


# -- 12: telescoping level-measure series --------------------------------------

def test_c12_level_measure_series_telescopes():
    for p in (Formula(lambda n: 2 ** n, label="2^n"),
              Formula(lambda n: 4 ** n, label="4^n")):
        rep = fracdim.level_measure_sum(p, Constant(2), 60)
        assert rep.series == rep.telescoped
        assert abs(rep.series - rep.telescoped) <= rep.tail_term_bound


# -- 13: seeded statistical proxies --------------------------------------------

def test_c13_statistical_proxies():
    n = 10 ** 5
    rep = ck.birkhoff_report(IID(2, 10, 1), IID(2, 10, 2), n)
    # uniform support {2,...,10}: exact mean and variance of log q
    logs = [math.log(k) for k in range(2, 11)]
    mu = sum(logs) / 9
    var = sum((v - mu) ** 2 for v in logs) / 9
    sigma = math.sqrt(var / n)
    assert abs(rep.mean_log_q[-1] - mu) <= 3 * sigma
    assert abs(rep.mean_log_p[-1] - mu) <= 3 * sigma
    assert rep.log_ratio_running_min[-1] < -10
    assert rep.pos_count >= 10 ** 3
    assert rep.neg_count >= 10 ** 3
