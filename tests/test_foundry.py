"""Tests for the staged word constructions and counterexample transforms."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorkit.digitstream import expand_rational, from_digits, stream_value
from cantorkit.foundry import (
    block_repeats,
    delta_cell,
    dnnotrn_pair,
    in_delta_check,
    nnotdn_base,
    nnotdn_pair,
    nu_mass,
    orbit_closeness,
    qnex_pair,
    RdnSeq,
    rdn_class_size,
    rdn_count_identities,
    rdn_entry,
    rdn_kappa,
    rdn_measure_log10,
    rdn_walk,
    rnnotn_base,
    rnnotn_pair,
    vbw_blocks,
    vbw_count,
    vbw_digit,
    vbw_digits_iter,
    vbw_length,
    vbw_locate,
    vbw_rank,
    vbw_unrank,
)
from cantorkit.normstats import golden_ratio_stream
from cantorkit.seqcore import (Affine, Constant, Explicit, Formula, Geometric,
                               SpecError)


def test_nu_mass_sums_to_one_over_length_w_blocks():
    for b in (2, 3, 4):
        total = sum(nu_mass(b, [d]) for d in range(b + 1))
        assert total == 1


def test_block_repeats_scales_with_top_digits():
    assert block_repeats(2, [0, 1]) == 1
    assert block_repeats(2, [2]) == 2 ** 2 - 2
    assert block_repeats(2, [2, 2]) == (2 ** 2 - 2) ** 2


def test_small_word_materialization():
    # b=2, w=1: blocks [0],[1],[2] with the last repeated twice
    digits = list(vbw_digits_iter(2, 1, vbw_length(2, 1)))
    assert digits == [0, 1, 2, 2]
    assert vbw_length(2, 1) == 1 * 2 ** 2


@given(b=st.integers(2, 4), w=st.integers(1, 4))
@settings(max_examples=16, deadline=None)
def test_blocks_enumeration_consistent(b, w):
    total = 0
    reps_before = 0
    for block, reps in vbw_blocks(b, w):
        assert len(block) == w
        assert all(0 <= d <= b for d in block)
        assert reps == block_repeats(b, block)
        # rank counts repetitions of earlier blocks; every repetition index
        # inside this block's run unranks back to the same digits
        assert vbw_rank(b, w, block) == reps_before
        assert vbw_unrank(b, w, reps_before) == block
        assert vbw_unrank(b, w, reps_before + reps - 1) == block
        reps_before += reps
        total += w * reps
    assert total == vbw_length(b, w)
    assert reps_before == 2 ** (b * w)


@given(b=st.integers(2, 3), w=st.integers(1, 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_locate_and_digit_agree_with_materialization(b, w, data):
    length = vbw_length(b, w)
    digits = list(vbw_digits_iter(b, w, length))
    idx = data.draw(st.integers(1, length))
    assert vbw_digit(b, w, idx) == digits[idx - 1]
    for v in range(b + 1):
        assert vbw_count(b, w, v, idx) == digits[:idx].count(v)


@given(b=st.integers(5, 8), data=st.data())
@settings(max_examples=24, deadline=None)
def test_closed_form_descent_at_stage_sizes(b, data):
    # w = b^2 as on stage b: the indices have b^3 bits
    w = b * b
    for _ in range(4):
        r = data.draw(st.integers(0, 2 ** (b * w) - 1))
        block = vbw_unrank(b, w, r)
        rank = vbw_rank(b, w, block)
        assert rank <= r < rank + block_repeats(b, block)
    idx = data.draw(st.integers(0, vbw_length(b, w)))
    assert sum(vbw_count(b, w, v, idx) for v in range(b + 1)) == idx
    small = data.draw(st.integers(1, 2000))
    digits = list(vbw_digits_iter(b, w, small))
    for v in range(b + 1):
        assert vbw_count(b, w, v, small) == digits.count(v)


def test_count_of_a_value_outside_the_alphabet_is_zero():
    assert vbw_count(2, 2, 3, 16) == vbw_count(2, 2, -1, 16) == 0


def test_rdn_count_identities_small():
    for i in (2, 3, 4):
        rep = rdn_count_identities(i)
        for key in ("length", "count_small", "count_large"):
            assert rep["formula"][key] == rep["computed"][key]
        assert rep["computed"]["divisible"]
        assert rep["computed"]["classes_cover"]


def test_rdn_class_size_divides_large_count():
    for i in range(2, 33):
        large = i * i * 2 ** (i ** 3) - i ** 3 * 2 ** (i ** 3 - i)
        assert large % i == 0
        assert rdn_class_size(i) * i == large


def test_rdn_walk_matches_entry_lookup():
    # stage 2 over its whole word, all four classes of the top digit
    for i, count in ((6, 500), (2, vbw_length(2, 4))):
        for (t, w, q, y) in rdn_walk(i, count):
            assert rdn_entry(i, t) == (w, q, y)


def test_rdn_walk_classes_in_order():
    # digits below the top value pass through; top-value hits are split into
    # classes in order of occurrence
    seen = [w for (t, w, q, y) in rdn_walk(3, 200)]
    assert all(0 <= w <= 3 for w in seen)
    tops = [(q, y) for (t, w, q, y) in rdn_walk(3, 200) if w == 3]
    if tops:
        assert tops[0] == (27, 0)


def test_delta_cell_basics():
    assert delta_cell(Fraction(0), 5) == 0
    assert delta_cell(Fraction(1, 5), 5) == 1
    assert delta_cell(Fraction(99, 100), 5) == 4
    assert delta_cell(Fraction(1), 5) == 4  # clamped to the top cell


def test_in_delta_small_cases():
    for i in range(2, 50):
        for a in range(1, i):
            assert in_delta_check(i, a)


def test_qnex_pair_digits_valid():
    q, x = qnex_pair()
    for n in range(1, 2000):
        assert 0 <= x.digit(n) < q.q(n)
    assert q.q(1) == 2 ** 6


def test_rdn_kappa_digits_valid():
    q, k = rdn_kappa()
    for n in range(1, 2000):
        assert 0 <= k.digit(n) < q.q(n)


def _stage_end(s):
    # L_s: 2^(4 s^2) copies of V(s, s^2), each s^2 * 2^(s^3) digits long
    return 2 ** (4 * s * s) * s * s * 2 ** (s ** 3)


def test_qnex_crosses_its_first_stage_end():
    # V(1, 1) is [0, 1]: both digits weigh 2^1 - 1 = 1 (vbw_digits_iter
    # takes b >= 2); stage 2 repeats V(2, 4), of 4 * 2^8 = 1024 digits
    q, x = qnex_pair(first_stage=1)
    assert _stage_end(1) == 32
    n = 32 + 1024 + 100
    v24 = list(vbw_digits_iter(2, 4, 1024))
    assert x.digits(n) == [0, 1] * 16 + v24 + v24[:100]
    assert q.prefix(n) == [2] * 32 + [4] * (n - 32)


def _qnex_reference(first_stage: int, n: int) -> list[int]:
    """The first n qnex digits, stage by stage: V(1, 1) by vbw_digit (its
    digits weigh 2^1 - 1 = 1, so vbw_digits_iter does not take it), later
    words by vbw_digits_iter."""
    out, i = [], first_stage
    while len(out) < n:
        word = ([vbw_digit(1, 1, t) for t in (1, 2)] if i == 1
                else list(vbw_digits_iter(i, i * i, min(n, vbw_length(i, i * i)))))
        for _ in range(2 ** (4 * i * i)):
            if len(out) >= n:
                break
            out += word
        i += 1
    return out[:n]


@pytest.mark.parametrize("first_stage", [1, 2])
@given(reads=st.lists(st.tuples(st.booleans(), st.integers(1, 2600)),
                      min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_qnex_stream_in_any_order_of_reads(first_stage, reads):
    # partial fills (digits) and per-digit reads (digit) share the run the
    # last fill located; stage 1 ends at 32, and stage 2's copies of
    # V(2, 4) end every 1024 digits
    _, x = qnex_pair(first_stage)
    ref = _qnex_reference(first_stage, 2640)
    for bulk, m in reads:
        assert (x.digits(m) == ref[:m]) if bulk else x.digit(m) == ref[m - 1]
    for m in range(len(x._memo) + 1, len(x._memo) + 40):
        assert x.digit(m) == ref[m - 1]


def test_qnex_stream_crosses_the_end_of_stage_2():
    # L_2 = 2^16 * 1024 digits is past any memo, so the run reader is
    # called directly, across the end and back
    _, x = qnex_pair(2)
    end = _stage_end(2)
    v24 = list(vbw_digits_iter(2, 4, 1024))
    v39 = list(vbw_digits_iter(3, 9, 300))
    assert x._digits_from(end - 99, end + 300) == v24[-100:] + v39
    assert x._digits_from(end - 1, end) == v24[-2:]
    assert x._digits_from(1, 50) == v24[:50]


def test_vbw_digits_iter_yields_nothing_below_limit_1():
    assert list(vbw_digits_iter(2, 4, 0)) == []
    assert list(vbw_digits_iter(2, 4, -2)) == []
    assert list(vbw_digits_iter(2, 4, 1)) == [0]


@pytest.mark.parametrize("s", [2, 3, 6])
def test_rdn_stages_match_the_walk(s):
    rdn, (kbase, kappa) = RdnSeq(s), rdn_kappa(s)
    walk = list(rdn_walk(s, 300))
    word = s * s * 2 ** (s ** 3)     # |V(s, s^2)|; the next copy restarts it
    for start in (0, word):
        assert [rdn.q(start + t) for t in range(1, 301)] == [q for *_, q, _ in walk]
    assert kbase.prefix(300) == [s] * 300
    assert kappa.digits(300) == [y for *_, y in walk]
    end = _stage_end(s)
    assert rdn.locate(end) == (s, word) and rdn.locate(end + 1) == (s + 1, 1)
    nxt = list(rdn_walk(s + 1, 100))
    at = range(end + 1, end + 101)
    assert [rdn.q(n) for n in at] == [q for *_, q, _ in nxt]
    assert [kbase.q(n) for n in range(end - 1, end + 3)] == [s, s, s + 1, s + 1]
    # the stream's memo cannot reach L_s, so its rule is read directly
    assert [kappa._rule(n) for n in at] == [y for *_, y in nxt]


def test_rdn_measure_log10_value():
    import mpmath
    v = rdn_measure_log10()
    assert v < 0
    lead = float(v / mpmath.mpf(10) ** 317)
    assert abs(lead - (-1.3095)) < 0.01


def test_nnotdn_base_is_log_floor():
    q = Geometric(2, 2)  # 4, 8, 16, ...
    p = nnotdn_base(q)
    for n in range(1, 30):
        assert p.q(n) == max(int(math.log(q.q(n))), 2)


def test_nnotdn_pair_round_trip_digits():
    q = Geometric(2, 2)
    x = golden_ratio_stream(q)
    p, y = nnotdn_pair(q, x)
    for n in range(1, 200):
        assert 0 <= y.digit(n) < p.q(n)


def test_rnnotn_base_half():
    q = Formula(lambda n: 2 ** (n + 1), label="2^(n+1)")
    p = rnnotn_base(q)
    for n in range(1, 20):
        assert p.q(n) == 2 ** n


def test_rnnotn_pair_preserves_digits():
    q = Formula(lambda n: 2 ** (n + 1), label="2^(n+1)")
    p = rnnotn_base(q)
    x = golden_ratio_stream(p)
    q2, y = rnnotn_pair(q, x)
    for n in range(1, 100):
        assert y.digit(n) == x.digit(n)


def test_dnnotrn_pair_digit_shift():
    q = Affine(3, 1)
    x = golden_ratio_stream(q)
    p, y = dnnotrn_pair(q, x)
    for n in range(1, 100):
        assert p.q(n) == q.q(n) - 1
        assert y.digit(n) == min(x.digit(n), q.q(n) - 2) + 1


def test_orbit_closeness_small():
    q = Affine(3, 1)
    x = golden_ratio_stream(q)
    p, y = dnnotrn_pair(q, x)
    ok, worst = orbit_closeness(x, y, 200)
    assert ok
    assert worst <= 1


def _orbit_route(q, xd, yd, n_max, depth):
    """Term-by-term Fraction brackets of T_n(y) - T_n(x), refined once at
    double depth where q_n times the bracket straddles 1."""
    def bracket(n, m):
        lo, prod = Fraction(0), 1
        for j in range(n + 1, n + m + 1):
            prod *= q.q(j)
            lo += Fraction(yd[j - 1] - xd[j - 1], prod)
        return lo, lo + Fraction(2, prod)

    ok, worst = True, Fraction(0)
    for n in range(1, n_max + 1):
        qn = q.q(n)
        lo, hi = bracket(n, depth)
        worst = max(worst, qn * hi)
        if hi * qn > 1 and lo * qn <= 1:
            _, hi = bracket(n, 2 * depth)
            worst = max(worst, qn * hi)
        if hi * qn > 1:
            ok = False
    return ok, worst


@given(head=st.lists(st.integers(2, 6), min_size=1, max_size=8),
       data=st.data(), n_max=st.integers(0, 25), depth=st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_orbit_closeness_equals_fraction_route(head, data, n_max, depth):
    q = Explicit(head, Constant(head[-1]))
    m = n_max + 2 * depth + 1
    xd = [data.draw(st.integers(0, q.q(j) - 2)) for j in range(1, m + 1)]
    yd = [e + data.draw(st.integers(0, 1)) for e in xd]
    got = orbit_closeness(from_digits(q, xd), from_digits(q, yd), n_max, depth)
    assert got == _orbit_route(q, xd, yd, n_max, depth)


def test_orbit_closeness_rejects_wide_gaps():
    q = Constant(5)
    with pytest.raises(SpecError, match="digit gaps"):
        orbit_closeness(from_digits(q, [0, 0, 0]), from_digits(q, [0, 0, 2]), 3)


def test_orbit_closeness_refines_a_straddling_bracket():
    # over base 2 with gaps at positions 3 and 4, q_1 = 2 times the depth-2
    # bracket [1/4, 3/4] straddles 1; the depth-4 bracket [3/8, 1/2] gives
    # 2 * 1/2 = 1, so the bound holds
    q = Constant(2)
    x, y = from_digits(q, []), from_digits(q, [0, 0, 1, 1])
    assert orbit_closeness(x, y, 1, depth=2) == (True, Fraction(3, 2))
