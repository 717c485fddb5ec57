"""Tests for the digit-clamping map, its approximants, and variation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import cantorkit as ck
from cantorkit.digitstream import expand_rational, from_digits, stream_value
from cantorkit.psi import (
    _clamp_tail_sum,
    approximant_bound,
    approximant_eval,
    approximant_integral,
    approximant_integral_oracle,
    approximant_left_limit_at_one,
    bv_check,
    classify_continuity,
    compose_chain,
    ed_transform,
    monotonicity_witness,
    psi_map,
    psi_terminating_value,
    psi_value,
    sample_approximant,
    variation_formula,
    variation_oracle,
)
from cantorkit.seqcore import Affine, Constant, Explicit, Formula, IID, Periodic


short_base = st.lists(st.integers(2, 6), min_size=2, max_size=6).map(
    lambda es: Explicit(es, Constant(es[-1]))
)


@given(p=short_base, q=short_base, data=st.data())
@settings(max_examples=80)
def test_psi_map_clamps_digits(p, q, data):
    digits = [data.draw(st.integers(0, p.q(n) - 1)) for n in range(1, 9)]
    x = from_digits(p, digits)
    y = psi_map(x, q)
    for n in range(1, 9):
        assert y.digit(n) == min(digits[n - 1], q.q(n) - 1)


@given(p=short_base, q=short_base, num=st.integers(0, 200),
       den=st.integers(1, 200), cuts=st.lists(st.integers(1, 40), max_size=4))
@settings(max_examples=80)
def test_psi_map_image_of_rational_matches_fraction_clamp(p, q, num, den, cuts):
    x = Fraction(num, den)
    r, digits = x - x.numerator // x.denominator, []
    for j in range(1, 41):       # multiply-and-floor, one Fraction per digit
        t = r * p.q(j)
        digits.append(t.numerator // t.denominator)
        r = t - digits[-1]
    image = psi_map(expand_rational(x, p), q)
    for c in cuts:               # partial fills first, in the drawn order
        assert image.digits(c) == [min(d, q.q(j) - 1)
                                   for j, d in enumerate(digits[:c], 1)]
    assert image.digits(40) == [min(d, q.q(j) - 1) for j, d in enumerate(digits, 1)]


def test_psi_map_identity_when_q_dominates():
    p, q = Constant(3), Constant(5)
    x = expand_rational(Fraction(5, 9), p)
    y = psi_map(x, q)
    assert y.digits(20) == x.digits(20)


@given(p=short_base, q=short_base, data=st.data())
@settings(max_examples=60)
def test_psi_value_matches_terminating_sum(p, q, data):
    digits = [data.draw(st.integers(0, p.q(n) - 1)) for n in range(1, 7)]
    x = sum(Fraction(d, 1) / _prod(p, n) for n, d in enumerate(digits, start=1))
    got = psi_value(p, q, x)
    want = psi_terminating_value(p, q, digits)
    assert got.lo == got.hi == want


def _prod(seq, n):
    out = 1
    for j in range(1, n + 1):
        out *= seq.q(j)
    return out


def test_psi_value_periodic_closed_form():
    # 1/3 over constant base 2 has digits (0,1) repeating; the image digits
    # over constant base 3 are unchanged, so psi(x) = sum 1/3^(2k) = 1/8
    got = psi_value(Constant(2), Constant(3), Fraction(1, 3))
    assert got.lo == got.hi == Fraction(1, 8)


@given(p=short_base, q=short_base, t=st.integers(1, 4), i=st.integers(0, 63))
@settings(max_examples=80)
def test_approximant_uniform_bound(p, q, t, i):
    x = Fraction(i, 64)
    a = approximant_eval(p, q, t, x)
    b = approximant_eval(p, q, t + 10, x)
    assert abs(a - b) <= approximant_bound(q, t)
    assert approximant_bound(q, t) <= Fraction(2, 2 ** t)


def test_approximant_at_stage_gridpoints():
    # at cell endpoints the stage-t approximant agrees with psi of the
    # terminating point
    p, q = Constant(5), Constant(3)
    t = 3
    for k in range(5 ** t):
        x = Fraction(k, 5 ** t)
        digs = []
        r = k
        for j in range(t):
            digs.append(r // 5 ** (t - 1 - j))
            r %= 5 ** (t - 1 - j)
        assert approximant_eval(p, q, t, x) == psi_terminating_value(
            Explicit([5] * t, Constant(5)), q, digs
        )


def test_approximant_wraps_mod_one():
    p, q = Constant(3), Constant(2)
    assert approximant_eval(p, q, 2, Fraction(5, 4)) == approximant_eval(
        p, q, 2, Fraction(1, 4)
    )


@given(p=short_base, q=short_base, t=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_integral_formula_matches_oracle(p, q, t):
    assert approximant_integral(p, q, t) == approximant_integral_oracle(p, q, t)


def test_integral_identity_base():
    # p == q makes the approximant the sawtooth x - floor(x); integral 1/2
    assert approximant_integral(Constant(4), Constant(4), 3) == Fraction(1, 2)


def test_continuity_worked_example_jump_negative():
    rep = classify_continuity(Constant(5), Constant(3), Fraction(3, 5))
    assert rep.status == "jump"
    assert rep.jump == Fraction(-1, 3)
    assert rep.set_tag == "A"
    assert rep.right_status == "continuous"


def test_continuity_worked_example_jump_positive():
    rep = classify_continuity(Constant(2), Constant(10), Fraction(1, 2))
    assert rep.status == "jump"
    assert rep.jump == Fraction(4, 45)
    assert rep.set_tag == "B"


def test_continuity_when_p_dominates_everywhere():
    # p_j >= q_j for all j makes the tail sum telescope to 1 and every
    # terminating point with E_t < q_t continuous
    rep = classify_continuity(Constant(5), Constant(3), Fraction(1, 5))
    assert rep.status == "continuous"
    assert rep.jump == 0


@given(data=st.data(), t=st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_variation_formula_matches_oracle(data, t):
    ps = [data.draw(st.integers(2, 5)) for _ in range(t)]
    qs = [data.draw(st.integers(2, 5)) for _ in range(t)]
    p = Explicit(ps, Constant(2))
    q = Explicit(qs, Constant(2))
    rep = variation_formula(p, q, t)
    assert rep.value == variation_oracle(p, q, t)
    if rep.upper_bound is not None:
        assert rep.value <= rep.upper_bound


@given(data=st.data(), t=st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_variation_formula_at_short_stages_and_equal_last_entries(data, t):
    # the stages with t < 2 or p_t = q_t, where no upper bound is reported
    ps = [data.draw(st.integers(2, 6)) for _ in range(t)]
    qs = [data.draw(st.integers(2, 6)) for _ in range(t)]
    if t:
        qs[-1] = ps[-1]
    p, q = Explicit(ps + [2], Constant(2)), Explicit(qs + [2], Constant(2))
    rep = variation_formula(p, q, t)
    assert rep.method == "formula"
    assert rep.upper_bound is None
    assert rep.value == variation_oracle(p, q, t)


def test_variation_formula_over_equal_constants_at_deep_stage():
    # the sawtooth x - floor(x): rise 1 and drop 1 at every stage
    for t in (0, 1, 2, 30, 200):
        assert variation_formula(Constant(3), Constant(3), t).value == 2


def test_variation_rejects_a_negative_stage():
    for fn in (variation_formula, variation_oracle):
        with pytest.raises(ck.SpecError):
            fn(Constant(3), Constant(2), -1)
    assert variation_formula(Constant(3), Constant(2), 0).value == \
        variation_oracle(Constant(3), Constant(2), 0)


def test_variation_oracle_stops_past_its_cell_cap():
    with pytest.raises(ck.UndecidedError):
        variation_oracle(Constant(2), Constant(3), 21)    # 2^21 cells
    assert variation_oracle(Constant(2), Constant(3), 12) == \
        variation_formula(Constant(2), Constant(3), 12).value


def test_variation_of_sawtooth():
    # p == q: the approximant is x - floor(x) on [0,1) with a unit drop at 1
    assert variation_oracle(Constant(3), Constant(3), 2) == 2


def test_bv_verdict_when_q_dominates():
    rep = bv_check(Constant(2), Constant(3), horizon=2000)
    assert rep.verdict == "bounded_variation"


def test_monotonicity_witness_orders():
    w = monotonicity_witness(Constant(5), Constant(3))
    assert w.x < w.y
    assert w.psi_x > w.psi_y


def test_monotonicity_witness_worked_points():
    w = monotonicity_witness(Constant(5), Constant(3))
    assert (w.x, w.y) == (Fraction(11, 25), Fraction(3, 5))
    assert (w.psi_x, w.psi_y) == (Fraction(7, 9), Fraction(2, 3))


def test_compose_chain_is_iterated_clamp():
    p = Constant(6)
    x = from_digits(p, [5, 4, 3, 2, 1])
    y = compose_chain(x, [Constant(4), Constant(3)])
    assert y.digits(5) == [min(d, 3, 2) for d in [5, 4, 3, 2, 1]]


def test_ed_transform_identity_and_gap_sum():
    q = Formula(lambda n: n + 4, label="n+4")
    x = expand_rational(Fraction(1, 3), Formula(lambda n: n + 3, label="n+3"))
    p_seq, image, rep = ed_transform(q, lambda n: 1, x, horizon=500,
                                     identity_window=100)
    assert rep.identity_ok
    assert rep.min_p >= 3
    assert p_seq.q(1) == 4
    assert rep.gap_sum_partial == sum(Fraction(1, n + 4) for n in range(1, 501))


# -- the integer stage kernel, against a term-by-term Fraction route ---------

_entry = st.integers(2, 9)
stage_base = st.one_of(
    _entry.map(Constant),
    st.lists(_entry, min_size=1, max_size=4).map(Periodic),
    st.tuples(st.lists(_entry, max_size=5), _entry).map(
        lambda t: Explicit(t[0], Constant(t[1]))),
    st.tuples(st.integers(2, 5), st.integers(0, 2)).map(lambda t: Affine(*t)),
    st.tuples(st.integers(2, 3), st.integers(3, 9), st.integers(0, 99)).map(
        lambda t: IID(*t)),
)


def _stage_route(p, q, t, x):
    """Stage-t approximant at x: the first t P-digits of frac(x) by Fraction
    multiply-and-floor, the clamped sum term by term, plus
    (p_1..p_t / q_1..q_t) * (frac - alpha)."""
    frac = x - math.floor(x)
    r, alpha, beta, pprod, qprod = frac, Fraction(0), Fraction(0), 1, 1
    for n in range(1, t + 1):
        y = r * p.q(n)
        e = math.floor(y)
        r = y - e
        pprod *= p.q(n)
        qprod *= q.q(n)
        alpha += Fraction(e, pprod)
        beta += Fraction(min(e, q.q(n) - 1), qprod)
    return Fraction(pprod, qprod) * (frac - alpha) + beta


@given(p=stage_base, q=stage_base, t=st.integers(0, 30),
       grid=st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_sample_approximant_equals_fraction_route(p, q, t, grid):
    samples = sample_approximant(p, q, t, grid)
    assert samples == [(Fraction(i, grid), _stage_route(p, q, t, Fraction(i, grid)))
                       for i in range(grid)]


@given(p=stage_base, q=stage_base, t=st.integers(0, 30),
       num=st.integers(-2000, 2000), den=st.integers(1, 300))
@settings(max_examples=120, deadline=None)
def test_approximant_eval_equals_fraction_route_off_unit_interval(p, q, t, num, den):
    # x >= 1 and x < 0 wrap mod 1 through the remainder num mod den
    x = Fraction(num, den)
    assert approximant_eval(p, q, t, x) == _stage_route(p, q, t, x)


@given(p=stage_base, q=stage_base, t=st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_left_limit_at_one_extends_the_last_cell(p, q, t):
    # the last level-t cell [1 - 1/pprod, 1) has the digits p_n - 1; the
    # approximant rises there with slope pprod/qprod up to its left limit
    pprod = math.prod(p.prefix(t))
    qprod = math.prod(q.prefix(t))
    mid = 1 - Fraction(1, 2 * pprod)
    want = _stage_route(p, q, t, mid) + Fraction(1, 2 * qprod)
    assert approximant_left_limit_at_one(p, q, t) == want
    terms = sum(Fraction(min(p.q(n), q.q(n)) - 1, math.prod(q.prefix(n)))
                for n in range(1, t + 1))
    assert want == terms + Fraction(1, qprod)


@given(p=stage_base, q=stage_base, t=st.integers(0, 400))
@settings(max_examples=30, deadline=None)
def test_integral_equals_term_by_term_mean_clamp(p, q, t):
    total, qq = Fraction(1, 2 * math.prod(q.prefix(t))), 1
    for n in range(1, t + 1):
        qq *= q.q(n)
        clamps = [min(e, q.q(n) - 1) for e in range(p.q(n))]
        total += Fraction(sum(clamps), len(clamps) * qq)
    assert approximant_integral(p, q, t) == total


@given(p=stage_base, q=stage_base, t=st.integers(2, 60))
@settings(max_examples=60, deadline=None)
def test_variation_upper_bound_equals_double_sum(p, q, t):
    assume(p.q(t) != q.q(t))    # else no bound is reported
    ps, qs = p.prefix(t), q.prefix(t)
    rep = variation_formula(p, q, t)
    double = sum(Fraction(ps[k] * (ps[j] + qs[j]), math.prod(qs[:j + 1]))
                 for j in range(1, t) for k in range(j))
    assert rep.method == "formula"
    assert rep.upper_bound == 2 * double + 2 * Fraction(math.prod(ps),
                                                        math.prod(qs)) + 1


@given(data=st.data(), t=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_variation_formula_matches_oracle_wide_digits(data, t):
    # entries up to 9 on both sides, so boundaries where the clamp stops
    # rising (E >= q) and where it rises with every digit both occur
    ps = [data.draw(st.integers(2, 9)) for _ in range(t)]
    qs = [data.draw(st.integers(2, 9)) for _ in range(t)]
    p, q = Explicit(ps, Constant(2)), Explicit(qs, Constant(2))
    rep = variation_formula(p, q, t)
    assert rep.value == variation_oracle(p, q, t)


# _clamp_tail_sum, route by route, against term-by-term Fraction sums

def _clamp_terms(p, q, t, m):
    """sum_{t<j<=m} (min(p_j, q_j) - 1)/(q_{t+1}..q_j), term by term, and
    the product q_{t+1}..q_m."""
    s, rel = Fraction(0), 1
    for j in range(t + 1, m + 1):
        rel *= q.q(j)
        s += Fraction(min(p.q(j), q.q(j)) - 1, rel)
    return s, rel


short_head = st.lists(st.integers(2, 7), max_size=6)


@given(hp=short_head, hq=short_head, a=st.integers(2, 7), data=st.data(),
       t=st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_clamp_tail_sum_certified_route(hp, hq, a, data, t):
    # eventually p_j >= q_j: past M every clamped digit is q_j - 1, and
    # those digits sum to 1/(q_{t+1}..q_M)
    b = data.draw(st.integers(2, a))
    p, q = Explicit(hp, Constant(a)), Explicit(hq, Constant(b))
    exact, (lo, hi) = _clamp_tail_sum(p, q, t, t + 50)
    s, rel = _clamp_terms(p, q, t, max(len(hp), len(hq), t) + 10)
    assert exact == lo == hi == s + Fraction(1, rel)


@given(a=st.integers(2, 5), d=st.integers(1, 3), hq=short_head,
       vq=st.lists(st.integers(2, 9), min_size=1, max_size=4),
       t=st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_clamp_tail_sum_certified_route_monotone_over_bounded(a, d, hq, vq, t):
    p, q = Affine(a, d), Explicit(hq, Periodic(vq))
    qmax = max(hq + vq)
    first = next(j for j in range(1, 100) if p.q(j) >= qmax)
    exact, (lo, hi) = _clamp_tail_sum(p, q, t, t + 60)
    s, rel = _clamp_terms(p, q, t, max(first, t) + 10)
    assert exact == lo == hi == s + Fraction(1, rel)


@given(hp=short_head, hq=short_head,
       vp=st.lists(st.integers(2, 7), min_size=1, max_size=4),
       vq=st.lists(st.integers(2, 7), min_size=1, max_size=4),
       t=st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_clamp_tail_sum_periodic_route(hp, hq, vp, vq, t):
    p, q = Explicit(hp, Periodic(vp)), Explicit(hq, Periodic(vq))
    L = math.lcm(len(vp), len(vq))
    M = max(len(hp), len(hq), t) + 2 * L
    assume(any(p.q(j) < q.q(j) for j in range(M + 1, M + L + 1)))
    exact, (lo, hi) = _clamp_tail_sum(p, q, t, t + 50)
    s, rel = _clamp_terms(p, q, t, M)
    # past M the clamped digits repeat every L positions: the tail is the
    # block B over one period, scaled by the geometric series in 1/brel
    block, brel = _clamp_terms(p, q, M, M + L)
    assert exact == lo == hi == s + block * Fraction(brel, brel - 1) / rel
    assert s <= exact <= s + Fraction(1, rel)


@given(kind=st.sampled_from(["iid-formula", "formula-iid", "iid-iid"]),
       seed=st.integers(0, 99), t=st.integers(0, 8), extra=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_clamp_tail_sum_bracket_route(kind, seed, t, extra):
    # neither base periodic, and no p >= q certificate: a bracket at the
    # horizon, which must hold every deeper sum
    formula = Formula(lambda n: 2 + (n * n + seed) % 6, label="wiggle")
    p = IID(2, 7, seed) if kind.startswith("iid") else formula
    q = IID(2, 7, seed + 1) if kind.endswith("iid") else formula
    horizon = t + extra
    exact, (lo, hi) = _clamp_tail_sum(p, q, t, horizon)
    s, rel = _clamp_terms(p, q, t, horizon)
    deeper, _ = _clamp_terms(p, q, t, horizon + 40)
    assert exact is None
    assert (lo, hi) == (s, s + Fraction(1, rel))
    assert lo <= deeper <= hi
