"""Tests for digit streams, rational expansion, and canonicalization."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cantorkit as ck
from cantorkit.digitstream import (
    CANONICAL,
    Enclosure,
    TERMINATING,
    canonicalize,
    detect_max_tail,
    enclose_prefix,
    expand_rational,
    from_digits,
    from_rule,
    shift_T,
    stream_value,
)
from cantorkit.normstats import golden_ratio_stream
from cantorkit.psi import compose_chain, psi_map
from cantorkit.seqcore import (IID, Affine, Concatenated, Constant, Explicit,
                               Formula, Geometric, Periodic, SpecError)


@st.composite
def unit_fraction(draw):
    den = draw(st.integers(2, 500))
    num = draw(st.integers(0, den - 1))
    return Fraction(num, den)


@given(x=unit_fraction(), b=st.integers(2, 7))
@settings(max_examples=100)
def test_expand_rational_digits_valid_and_enclose(x, b):
    base = Constant(b)
    s = expand_rational(x, base)
    ds = s.digits(30)
    assert all(0 <= d < b for d in ds)
    enc = enclose_prefix(s, 30)
    assert enc.lo <= x <= enc.hi
    assert enc.width == Fraction(1, b ** 30)


@given(num=st.integers(0, 255))
def test_expand_rational_dyadic_terminates(num):
    s = expand_rational(Fraction(num, 256), Constant(2))
    # value reconstructs exactly from the first 8 digits, then all zeros
    v = sum(Fraction(d, 2 ** (n + 1)) for n, d in enumerate(s.digits(8)))
    assert v == Fraction(num, 256)
    assert s.remainder(8) == 0
    assert s.digits(12)[8:] == [0, 0, 0, 0]


def test_expand_rational_mixed_base():
    # 7/8 over constant base 3: digits repeat (2,1)
    s = expand_rational(Fraction(7, 8), Constant(3))
    assert s.digits(8) == [2, 1, 2, 1, 2, 1, 2, 1]


def test_expand_rational_integer_part():
    s = expand_rational(Fraction(3, 2), Constant(2))
    assert s.e0 == 1
    assert s.digits(3) == [1, 0, 0]


def test_from_digits_is_terminating():
    s = from_digits(Constant(3), [2, 0, 1])
    assert s.canonicity == TERMINATING
    assert s.digits(5) == [2, 0, 1, 0, 0]


def test_from_digits_validates_against_base():
    with pytest.raises(SpecError):
        from_digits(Constant(3), [3])


def test_stream_value_exact_for_terminating():
    s = from_digits(Constant(5), [4, 3])
    enc = stream_value(s)
    assert enc.lo == enc.hi == Fraction(4, 5) + Fraction(3, 25)


def test_shift_T_rational_exact():
    x = Fraction(7, 8)
    s = expand_rational(x, Constant(2))
    enc = shift_T(s, 1)
    # T x = {2x} = 3/4
    assert enc.lo == enc.hi == Fraction(3, 4)


def test_detect_max_tail_on_all_max_stream():
    base = Periodic([3, 2])
    s = from_rule(base, lambda n: base.q(n) - 1)
    assert detect_max_tail(s) == 1


def test_canonicalize_max_tail_to_terminating():
    base = Constant(3)
    # 0.1222... base 3 == 0.2
    s = from_rule(base, lambda n: 1 if n == 1 else 2)
    c = canonicalize(s)
    assert c.canonicity == TERMINATING
    assert c.digits(4) == [2, 0, 0, 0]
    assert stream_value(c).lo == Fraction(2, 3)


def test_canonicalize_all_max_gives_next_integer():
    base = Constant(2)
    s = from_rule(base, lambda n: 1)
    c = canonicalize(s)
    assert c.e0 == 1
    assert all(d == 0 for d in c.digits(20))


def test_canonicalize_leaves_canonical_alone():
    s = expand_rational(Fraction(1, 3), Constant(2))
    c = canonicalize(s)
    assert c.digits(20) == s.digits(20)


def test_remainder_tracks_expansion():
    s = expand_rational(Fraction(5, 7), Constant(3))
    # remainder after n digits is the unexpanded part scaled into [0,1)
    r = s.remainder(4)
    v = sum(Fraction(d, 3 ** (n + 1)) for n, d in enumerate(s.digits(4)))
    assert v + r / 3 ** 4 == Fraction(5, 7)


# -- the integer kernel and the bulk fill, against plain Fraction routes -----

_small = st.integers(2, 7)
every_base_kind = st.one_of(
    _small.map(Constant),
    st.lists(_small, min_size=1, max_size=4).map(Periodic),
    st.tuples(st.lists(_small, max_size=4), _small).map(
        lambda t: Explicit(t[0], Constant(t[1]))),
    st.tuples(st.integers(2, 5), st.integers(0, 2)).map(lambda t: Affine(*t)),
    st.tuples(st.integers(1, 3), st.integers(2, 3)).map(
        lambda t: Geometric(*t)),
    st.tuples(st.integers(2, 3), st.integers(3, 9), st.integers(0, 99)).map(
        lambda t: IID(*t)),
    st.lists(_small, min_size=1, max_size=3).map(
        lambda v: Concatenated([(Periodic(v), 2, len(v)),
                                (Constant(v[0]), None, 1)])),
    _small.map(lambda c: Formula(lambda n: n % 3 + c)),
)


def _multiply_and_floor(x, base, n):
    """Digits and remainders of x, one Fraction step per digit."""
    r = x - math.floor(x)
    digits, rems = [], [r]
    for j in range(1, n + 1):
        t = r * base.q(j)
        digits.append(math.floor(t))
        r = t - math.floor(t)
        rems.append(r)
    return digits, rems


@given(num=st.integers(-60, 400), den=st.integers(1, 300),
       base=every_base_kind, n=st.integers(0, 40))
@settings(max_examples=200)
def test_integer_kernel_matches_fraction_multiply_and_floor(num, den, base, n):
    x = Fraction(num, den)
    s = expand_rational(x, base)
    digits, rems = _multiply_and_floor(x, base, n)
    assert s.e0 == math.floor(x)
    assert s.digits(n) == digits
    assert [s.remainder(k) for k in range(n + 1)] == rems
    if 0 in rems:
        assert s.canonicity == TERMINATING
        assert s.last_nonzero == rems.index(0)
    else:
        assert s.canonicity == CANONICAL and s.last_nonzero is None


STREAM_KINDS = {
    "rational": lambda base, x: expand_rational(x, base),
    "rule": lambda base, x: from_rule(base, lambda n: (3 * n + 1) % base.q(n)),
    "digits": lambda base, x: from_digits(base, expand_rational(x, base).digits(5)),
    "dual": lambda base, x: canonicalize(
        from_digits(base, expand_rational(x, base).digits(5))),
    "image": lambda base, x: psi_map(expand_rational(x, base), Constant(3)),
}


@given(x=unit_fraction(), base=every_base_kind,
       kind=st.sampled_from(sorted(STREAM_KINDS)),
       reads=st.lists(st.tuples(st.sampled_from(["digit", "digits", "shift"]),
                                st.integers(1, 60)), max_size=8))
@settings(max_examples=150)
def test_partial_fills_in_any_order_match_one_fill(x, base, kind, reads):
    make = STREAM_KINDS[kind]
    whole = make(base, x)
    one = whole.digits(120)
    s = make(base, x)
    for how, k in reads:
        if how == "digit":
            assert s.digit(k) == one[k - 1]
        elif how == "digits":
            assert s.digits(k) == one[:k]
        else:
            assert shift_T(s, k) == shift_T(whole, k)
    assert s.digits(120) == one
    assert (s.canonicity, s.last_nonzero) == (whole.canonicity, whole.last_nonzero)


PIECE_KINDS = {
    "rational": lambda base, x: expand_rational(x, base),
    "rule": lambda base, x: from_rule(base, lambda n: (3 * n + 1) % base.q(n)),
    "golden": lambda base, x: golden_ratio_stream(base, 64),
    "dual": lambda base, x: canonicalize(
        from_digits(base, expand_rational(x, base).digits(5))),
    "image": lambda base, x: psi_map(expand_rational(x, Constant(7)), base),
    "chain": lambda base, x: compose_chain(expand_rational(x, base),
                                           [Periodic([3, 5]), base, Affine(2, 1)]),
}


@given(x=unit_fraction(), base=every_base_kind,
       kind=st.sampled_from(sorted(PIECE_KINDS)), a=st.integers(0, 50),
       j=st.integers(1, 80), lo=st.integers(0, 60), width=st.integers(0, 40),
       b=st.integers(0, 120))
@settings(max_examples=200, deadline=None)
def test_fills_done_in_pieces_match_one_fill(x, base, kind, a, j, lo, width, b):
    # each fill starts its run of base entries where the memo ends
    n = 120
    one = PIECE_KINDS[kind](base, x).digits(n)
    s = PIECE_KINDS[kind](base, x)
    assert s.digits(a) == one[:a]
    assert s.digit(j) == one[j - 1]
    assert s._span(lo, lo + width) == one[lo:lo + width]
    assert s.digits(b) == one[:b]
    assert s.digits(n) == one
    qs = [base.q(m) for m in range(1, n + 1)]
    if kind == "rational":
        assert one == _multiply_and_floor(x, base, n)[0]
    elif kind == "image":
        src, _ = _multiply_and_floor(x, Constant(7), n)
        assert one == [min(d, q - 1) for d, q in zip(src, qs)]
    elif kind == "dual":
        assert one[5:] == [q - 1 for q in qs[5:]]


def test_reading_images_over_iid_bases_one_digit_at_a_time_is_linear():
    # each one-digit fill reads the source memo and the iid memo in place
    # from where it starts; stepping from index 0 each time is O(n^2),
    # about 100 times slower at this n
    def chain():
        src = expand_rational(Fraction(5, 7), IID(2, 9, seed=1))
        return compose_chain(src, [IID(2, 5, seed=2), IID(2, 4, seed=3)])

    n = 10 ** 5
    image = chain()
    start = time.perf_counter()
    digs = [image.digit(m) for m in range(1, n + 1)]
    assert time.perf_counter() - start < 5.0
    assert digs == chain().digits(n)


def _prefix_sum(stream, lo, hi):
    """sum_{lo<j<=hi} E_j/(q_{lo+1}..q_j) term by term, and q_{lo+1}..q_hi."""
    total, prod = Fraction(0), 1
    for j in range(lo + 1, hi + 1):
        prod *= stream.base.q(j)
        total += Fraction(stream.digit(j), prod)
    return total, prod


@given(base=every_base_kind, n=st.integers(0, 30), depth=st.integers(1, 30),
       head=st.lists(st.integers(0, 1), max_size=12))
@settings(max_examples=100)
def test_enclose_prefix_and_shift_T_match_term_by_term_sums(base, n, depth, head):
    open_tail = from_rule(base, lambda j: (5 * j + 2) % base.q(j))
    total, prod = _prefix_sum(open_tail, 0, n)
    enc = enclose_prefix(open_tail, n)
    assert (enc.lo, enc.hi) == (total, total + Fraction(1, prod))
    total, prod = _prefix_sum(open_tail, n, n + depth)
    enc = shift_T(open_tail, n, depth=depth)
    assert (enc.lo, enc.hi) == (total, total + Fraction(1, prod))
    terminating = from_digits(base, head, e0=2)
    total, _ = _prefix_sum(terminating, n, max(n, terminating.last_nonzero))
    enc = shift_T(terminating, n, depth=depth)
    assert enc.lo == enc.hi == total


@given(base=every_base_kind, head=st.lists(st.integers(0, 1), max_size=8),
       e0=st.integers(0, 2))
@settings(max_examples=100)
def test_dual_form_has_max_tail_and_same_value(base, head, e0):
    s = from_digits(base, head, e0=e0)
    t = s.last_nonzero
    dual = canonicalize(s)
    assert dual.max_tail_start == t + 1
    assert dual.digits(t + 20)[t:] == [base.q(j) - 1 for j in range(t + 1, t + 21)]
    value = e0 + _prefix_sum(s, 0, len(head))[0]
    assert stream_value(dual) == stream_value(s) == Enclosure(value, value)
