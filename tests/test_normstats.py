"""Tests for block counting, normality weights, and discrepancy."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorkit.digitstream import expand_rational, from_digits, from_rule
from cantorkit.foundry import qnex_pair
from cantorkit.normstats import (
    accumulation_estimate,
    block_weight,
    count_blocks,
    cumulative_block_counts,
    golden_ratio_stream,
    normality_report,
    star_discrepancy,
    star_discrepancy_oracle,
    ud_report,
)
from cantorkit.seqcore import (Affine, Constant, Explicit, Geometric, Periodic,
                               SpecError, prefix_products)


def test_count_blocks_by_hand():
    s = from_digits(Constant(3), [1, 0, 1, 1, 2, 1])
    assert count_blocks(s, [1], 6) == 4
    assert count_blocks(s, [1, 1], 6) == 1
    assert count_blocks(s, [0, 1], 6) == 1
    assert count_blocks(s, [2, 1], 6) == 1


def test_cumulative_block_counts_monotone_and_final():
    s = from_digits(Constant(2), [1, 0, 1, 1, 0])
    cum = cumulative_block_counts(s, [1], 5)
    assert cum == [1, 1, 2, 3, 3]


def test_block_weight_constant_base():
    # constant base b: the weight of any length-k block after n digits is
    # (n - k + 1) / b^k in the exact regime
    w, exact = block_weight(Constant(3), 2, 100)
    assert exact
    assert w == sum(Fraction(1, 9) for _ in range(99)) or w == Fraction(100, 9)


def test_block_weight_periodic_closed_form_matches_recurrence():
    q = Periodic([3, 2])
    w1, e1 = block_weight(q, 1, 500)
    # direct sum of 1/q_j
    direct = sum(Fraction(1, q.q(j)) for j in range(1, 501))
    assert e1 and w1 == direct


@pytest.mark.parametrize("q", [Explicit([], Periodic([3, 7, 4])),
                               Explicit([], Explicit([], Constant(4)))])
def test_block_weight_closed_form_for_any_base_periodic_from_the_start(q):
    # past exact_limit such bases still get the exact closed form
    w, exact = block_weight(q, 2, 300, exact_limit=100)
    direct = sum(Fraction(1, q.q(j) * q.q(j + 1)) for j in range(1, 301))
    assert exact and w == direct


def test_block_weight_head_before_the_period_is_summed():
    # periodic only after a head: no closed form, so past exact_limit the
    # float accumulation answers
    w, exact = block_weight(Explicit([5], Constant(3)), 1, 300, exact_limit=100)
    assert not exact
    assert w == pytest.approx(float(Fraction(1, 5) + Fraction(299, 3)))


def test_normality_report_counts_and_ratios():
    rng = random.Random(3)
    digs = [rng.randrange(2) for _ in range(2000)]
    s = from_digits(Constant(2), digs)
    rep = normality_report(s, 1, 2, 2000)
    assert rep.counts[(1,)][-1] == sum(digs)
    # uniform digits over base 2: ratio near 1
    assert rep.ratios[(1,)][-1] == pytest.approx(1.0, abs=0.1)


@st.composite
def point_set(draw):
    n = draw(st.integers(1, 40))
    den = draw(st.integers(41, 200))
    return [Fraction(draw(st.integers(0, den - 1)), den) for _ in range(n)]


@given(pts=point_set())
@settings(max_examples=100, deadline=None)
def test_star_discrepancy_matches_oracle(pts):
    assert star_discrepancy(pts) == star_discrepancy_oracle(pts)


def test_star_discrepancy_uniform_grid():
    for n in (1, 2, 7, 50):
        pts = [Fraction(i, n) for i in range(n)]
        assert star_discrepancy(pts) == Fraction(1, n)


def test_star_discrepancy_single_point():
    assert star_discrepancy([Fraction(0)]) == 1
    assert star_discrepancy([Fraction(1, 2)]) == Fraction(1, 2)


def test_star_discrepancy_rejects_out_of_range():
    with pytest.raises(SpecError):
        star_discrepancy([Fraction(3, 2)])


def test_golden_stream_digits_valid():
    q = Affine(2, 1)
    g = golden_ratio_stream(q)
    for n in range(1, 300):
        assert 0 <= g.digit(n) < q.q(n)


def test_golden_stream_digit_ratio_discrepancy_small():
    g = golden_ratio_stream(Affine(2, 1))
    rep = ud_report(g, "digit-ratio", 2000)
    assert float(rep.discrepancy[-1]) < 0.05


def test_ud_report_orbit_mode_has_enclosures():
    x = expand_rational(Fraction(5, 7), Constant(3))
    rep = ud_report(x, "orbit", 200)
    assert rep.mode == "orbit"
    assert rep.max_enclosure_width is not None
    assert all(0 <= d <= 1 for d in rep.discrepancy)


@pytest.mark.parametrize("q, bits", [(Affine(2, 1), 256), (Periodic([3, 10, 7]), 64)])
def test_golden_stream_matches_fraction_rule(q, bits):
    g = Fraction(math.isqrt(5 << (2 * bits)) - (1 << bits), 1 << bits)

    def fraction_rule(n):
        theta = n * g
        theta -= theta.numerator // theta.denominator
        return int(theta * q.q(n))

    assert golden_ratio_stream(q, bits).digits(2000) == \
        [fraction_rule(n) for n in range(1, 2001)]


@st.composite
def digit_source(draw):
    """A base, digits valid for it, and a stream of those digits built as a
    terminating stream or through a rule."""
    base = Periodic(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
    digits = [draw(st.integers(0, base.q(j) - 1)) for j in range(1, 61)]
    if draw(st.booleans()):
        return base, digits, from_digits(base, digits)
    return base, digits, from_rule(base, lambda j: digits[j - 1] if j <= 60 else 0)


@given(src=digit_source(), block=st.lists(st.integers(0, 2), min_size=1, max_size=3),
       n=st.integers(0, 50), start=st.integers(1, 8))
@settings(max_examples=100)
def test_count_blocks_matches_position_by_position(src, block, n, start):
    _, digits, stream = src
    padded = digits + [0] * 10
    want = sum(all(padded[j + i - 1] == b for i, b in enumerate(block))
               for j in range(start, start + n))
    assert count_blocks(stream, block, n, start) == want


@given(src=digit_source(), n=st.integers(1, 60), grid=st.integers(1, 120))
@settings(max_examples=100)
def test_accumulation_estimate_matches_fraction_cells(src, n, grid):
    base, digits, stream = src
    cells = {min(int(Fraction(digits[m - 1], base.q(m)) * grid), grid - 1)
             for m in range(n // 2 + 1, n + 1)}
    rep = accumulation_estimate(stream, n, grid)
    assert rep.hit_cells == sorted(cells)
    assert rep.coverage == len(cells) / grid


@st.composite
def mixed_points(draw):
    """Points in [0, 1) over mixed denominators, with 0, ties between equal
    values written differently, and repeated points."""
    pts = [Fraction(0)]
    for _ in range(draw(st.integers(0, 40))):
        den = draw(st.sampled_from([2, 3, 4, 6, 7, 12, 97, 210]))
        pts.append(Fraction(draw(st.integers(0, den - 1)), den))
    pts += draw(st.lists(st.sampled_from(pts), max_size=10))
    return draw(st.permutations(pts))


@given(pts=mixed_points())
@settings(max_examples=150, deadline=None)
def test_star_discrepancy_of_mixed_points_matches_oracle(pts):
    assert star_discrepancy(pts) == star_discrepancy_oracle(pts)


def _checkpoints(draw, n, top=None):
    """None (the default grid) or an unsorted list with repeats of
    checkpoints in [1, top]; top defaults to n + 5, so some lie past n."""
    if draw(st.booleans()):
        return None
    top = n + 5 if top is None else top
    cps = draw(st.lists(st.integers(1, top), min_size=1, max_size=8))
    return cps + draw(st.lists(st.sampled_from(cps), max_size=3))


def _ud_source(draw):
    """(stream, base) over an Affine base (a rational x) or qnex."""
    if draw(st.booleans()):
        base = Affine(draw(st.integers(2, 5)), draw(st.integers(1, 3)))
        den = draw(st.integers(2, 10 ** 6))
        return expand_rational(Fraction(draw(st.integers(1, den - 1)), den),
                               base), base
    base, stream = qnex_pair(draw(st.sampled_from([1, 2, 6])))
    return stream, base


@given(data=st.data(), n=st.integers(1, 320))
@settings(max_examples=60, deadline=None)
def test_digit_ratio_report_matches_oracle_at_every_checkpoint(data, n):
    stream, base = _ud_source(data.draw)
    cps = _checkpoints(data.draw, n)
    rep = ud_report(stream, "digit-ratio", n, cps)
    pts = [Fraction(stream.digit(m), base.q(m)) for m in range(1, n + 1)]
    assert rep.checkpoints == sorted(set(cps or rep.checkpoints))
    assert rep.discrepancy == [star_discrepancy_oracle(pts[:c])
                               for c in rep.checkpoints]


@given(data=st.data(), n=st.integers(1, 120), depth=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_orbit_report_matches_oracle_at_every_checkpoint(data, n, depth):
    stream, base = _ud_source(data.draw)
    cps = _checkpoints(data.draw, n)
    rep = ud_report(stream, "orbit", n, cps, orbit_depth=depth)
    pts = []
    for m in range(1, n + 1):
        if isinstance(base, Affine):      # a rational x: the exact tail
            prod = math.prod(base.q(j) for j in range(1, m + 1))
            v = stream.value * prod
            pts.append(v - v.numerator // v.denominator)
            continue
        lo, scale = Fraction(0), Fraction(1)
        for j in range(m + 1, m + depth + 1):
            scale /= base.q(j)
            lo += stream.digit(j) * scale
        mid = lo + scale / 2
        pts.append(mid if mid < 1 else Fraction(0))
    assert rep.discrepancy == [star_discrepancy_oracle(pts[:c])
                               for c in rep.checkpoints]


@pytest.mark.parametrize("label", ["affine", "geometric", "qnex",
                                   "explicit-head", "periodic"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_normality_report_against_term_sums_and_slice_counts(label, data):
    k = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(1, 60 if label == "geometric" else 400))
    x = Fraction(data.draw(st.integers(1, 10 ** 6 - 1)), 10 ** 6)
    if label == "qnex":
        base, stream = qnex_pair(data.draw(st.sampled_from([1, 2, 6])))
    else:
        base = {"affine": Affine(3, 2), "geometric": Geometric(3, 2),
                "explicit-head": Explicit([7, 2, 5], Periodic([3, 4])),
                "periodic": Periodic([3, 5, 2])}[label]
        stream = expand_rational(x, base)
    cps = _checkpoints(data.draw, n, top=n)
    rep = normality_report(stream, k, 2, n, cps)
    cps = sorted(set(cps or rep.checkpoints))
    assert rep.checkpoints == cps
    terms = [Fraction(1, math.prod(base.q(j + i) for i in range(k)))
             for j in range(1, cps[-1] + 1)]
    assert rep.weights == [sum(terms[:c]) for c in cps]
    assert rep.weights_exact
    if k:
        assert prefix_products(base, cps[-1], [k]).block_weights[k] == sum(terms)
    digs = stream.digits(n + k - 1)
    for b in rep.blocks:
        assert rep.counts[b] == [sum(tuple(digs[j:j + k]) == b for j in range(c))
                                 for c in cps]


def test_normality_report_at_block_length_0_counts_every_position():
    rep = normality_report(expand_rational(Fraction(2, 7), Constant(3)), 0, 2,
                           30, [30, 4, 4])
    assert rep.blocks == [()]
    assert rep.counts == {(): [4, 30]}
    assert rep.weights == [4, 30]


@pytest.mark.parametrize("base", [Affine(2, 1), Geometric(3, 2),
                                  Explicit([7], Periodic([3, 4])),
                                  qnex_pair(1)[0]], ids=repr)
def test_block_weight_at_length_0_is_the_horizon_on_every_route(base):
    # the empty block's product is 1: Q_c^(0) = c, exact or past exact_limit
    assert block_weight(base, 0, 10) == (10, True)
    assert block_weight(base, 0, 400, exact_limit=100) == (400.0, False)
    assert prefix_products(base, 12, [0]).block_weights == {0: 12}
    rep = normality_report(from_rule(base, lambda j: 1), 0, 2, 50)
    assert rep.weights == rep.counts[()] == rep.checkpoints


@pytest.mark.parametrize("cps", [[5, 20], [0, 5], [-3], [11]])
def test_normality_report_rejects_checkpoints_outside_1_to_n(cps):
    stream = expand_rational(Fraction(2, 7), Constant(3))
    with pytest.raises(SpecError, match=r"checkpoints must lie in \[1, n\]"):
        normality_report(stream, 1, 2, 10, cps)


def test_normality_report_rejects_a_negative_block_length():
    with pytest.raises(SpecError):
        normality_report(expand_rational(Fraction(2, 7), Constant(3)), -1, 2, 30)


# -- the mask kernel over every memo kind ------------------------------------

# digits are min(palette value, q_j - 1): byte memos over Constant(3),
# 'I' and 8-byte memos over wide constants, lists past 2^64, and affine
# bases (no declared bound) whose byte memo widens mid-stream
_PALETTE = [0, 1, 2, 255, 256, 300, 2 ** 32 + 5, 2 ** 64 + 3]
_mask_base = st.sampled_from([Constant(3), Constant(1000), Constant(2 ** 33),
                              Constant(2 ** 70), Affine(2, 1), Affine(250, 7)])
_block_digit = st.sampled_from(_PALETTE + [-1, -256, 2 ** 70])
_mask_block = st.one_of(st.lists(_block_digit, max_size=3),
                        st.sampled_from([[1, 1], [0, 0, 0], [2, 2]]))


def _naive_counts(digits, block, lo, n):
    """Occurrences of block at 0-based positions lo..lo+i, i < n, by
    comparing each window."""
    k, out, c = len(block), [], 0
    for j in range(lo, lo + n):
        c += tuple(digits[j:j + k]) == tuple(block)
        out.append(c)
    return out


@given(base=_mask_base, data=st.data(), block=_mask_block,
       n=st.integers(0, 120), start=st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_mask_counts_match_window_counts_on_every_memo_kind(base, data, block,
                                                            n, start):
    picks = data.draw(st.lists(st.integers(0, 3), min_size=140, max_size=140))
    palette = data.draw(st.permutations(_PALETTE))
    digits = [min(palette[p], base.q(j) - 1) for j, p in enumerate(picks, 1)]
    stream = from_rule(base, lambda j: digits[j - 1])
    want = _naive_counts(digits, block, start - 1, n)
    assert cumulative_block_counts(stream, block, n, start) == want
    if block:
        assert count_blocks(stream, block, n, start) == (want[-1] if n else 0)
    else:
        with pytest.raises(SpecError):
            count_blocks(stream, block, n, start)
    k = data.draw(st.integers(0, 3))
    alphabet = data.draw(st.integers(0, 3))
    cps = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=4)))) \
        if n else []
    rep = normality_report(stream, k, alphabet, n, cps or None)
    for b in rep.blocks:
        counts = _naive_counts(digits, b, 0, n)
        assert rep.counts[b] == [counts[c - 1] for c in rep.checkpoints]
