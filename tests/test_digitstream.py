"""Tests for digit streams, rational expansion, and canonicalization."""

import gc
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cantorkit as ck
from cantorkit.digitstream import (
    CANONICAL,
    CHUNK,
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


# -- memo type codes: widening, bulk fills and the byte clamp ----------------

def _int_expand(num, den, qs):
    """Digits and remainder numerators of num/den over the entries qs, one
    integer multiply-and-floor step per digit."""
    r = num % den
    digits, rems = [], [r]
    for q in qs:
        digits.append(r * q // den)
        r = r * q % den
        rems.append(r)
    return digits, rems


def _itemsize(top):
    """Bytes a memo needs per int in [0, top]; None for a list."""
    for size in (1, 4, 8):
        if top < 1 << 8 * size:
            return size
    return None


def _memo_size(memo):
    return memo.itemsize if hasattr(memo, "itemsize") else None


_EDGES = [2, 255, 256, 257, 65535, 65536, 65537, 2 ** 32 - 1, 2 ** 32,
          2 ** 32 + 1, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1]
_edge = st.sampled_from(_EDGES)
wide_base = st.one_of(
    _edge.map(Constant),
    st.lists(_edge, min_size=1, max_size=4).map(Periodic),
    st.tuples(st.lists(_edge, max_size=3), _edge).map(
        lambda t: Explicit(t[0], Constant(t[1]))),
    # no declared bound: the memo starts at 'B' and widens mid-stream
    st.tuples(st.sampled_from([2, 240, 65520, 2 ** 32 - 20, 2 ** 64 - 20]),
              st.sampled_from([1, 3, 2 ** 20])).map(lambda t: Affine(*t)),
    st.lists(_edge, min_size=1, max_size=4).map(
        lambda v: Formula(lambda n: v[n % len(v)])),
)
_den = st.one_of(st.integers(1, 300), st.sampled_from(_EDGES),
                 st.integers(2 ** 63, 2 ** 65))


@given(base=wide_base, den=_den, data=st.data(),
       reads=st.lists(st.integers(1, 60), max_size=6))
@settings(max_examples=200)
def test_wide_digits_and_remainders_match_integer_multiply_and_floor(
        base, den, data, reads):
    num = data.draw(st.integers(0, 3 * den))
    n = 60
    digits, rems = _int_expand(num, den, [base.q(j) for j in range(1, n + 1)])
    s = expand_rational(Fraction(num, den), base)
    for k in reads:                      # fills in random order
        assert s.digit(k) == digits[k - 1]
    assert s.digits(n) == digits
    assert [s.remainder(k) for k in range(n + 1)] == \
        [Fraction(r, den) for r in rems]
    # the narrowest code for the declared bound, or for the digits seen
    assert _memo_size(s._rems) == _itemsize(Fraction(num, den).denominator - 1)
    top = base.upper_bound()
    assert _memo_size(s._memo) == _itemsize(max(digits) if top is None else top - 1)


@pytest.mark.parametrize("a, sizes", [
    (250, [1, 4, 4]),                  # crosses 255/256 at E_6
    (65530, [4, 4, 4]),                # crosses 65535/65536 at E_6
    (2 ** 32 - 6, [4, 8, 8]),          # crosses 2^32 at E_6
    (2 ** 64 - 6, [8, None, None]),    # crosses 2^64 at E_6: a list
])
def test_memo_widens_at_the_first_run_that_does_not_fit(a, sizes):
    base = Affine(a, 1)                # no declared bound: starts at 'B'
    s = from_rule(base, lambda j: a + j - 1)
    for n, size in zip([4, 9, 30], sizes):
        assert s.digits(n) == [a + j - 1 for j in range(1, n + 1)]
        assert _memo_size(s._memo) == size


@given(base=wide_base, bad=st.integers(1, 50), raises=st.booleans(),
       reads=st.lists(st.integers(1, 60), max_size=4))
@settings(max_examples=100)
def test_a_bad_digit_mid_fill_leaves_the_digits_before_it(base, bad, raises, reads):
    def rule(j):
        if j == bad:
            if raises:
                raise SpecError(f"no digit at {j}")
            return base.q(j)             # one past the largest digit
        return base.q(j) - 1 - j % 2

    want = [base.q(j) - 1 - j % 2 for j in range(1, bad)]
    s = from_rule(base, rule)
    for k in reads:
        if k < bad:
            assert s.digit(k) == want[k - 1]
    with pytest.raises(SpecError):
        s.digits(60)
    assert list(s._memo) == want
    assert s.digits(bad - 1) == want


def _translate_routes(image):
    src = image._source._memo
    return (image._period is not None and src.typecode == "B"
            and image._memo.typecode == "B")


_clamp_target = st.one_of(
    st.integers(2, 12).map(Constant),
    st.lists(st.integers(2, 12), min_size=1, max_size=7).map(Periodic),
)


@given(num=st.integers(0, 10 ** 6), den=st.integers(1, 10 ** 6),
       p=st.integers(2, 12), target=_clamp_target, first=st.integers(0, 40))
@settings(max_examples=150)
def test_byte_clamp_matches_min_of_digit_and_top(num, den, p, target, first):
    n = 200
    src, _ = _int_expand(num, den, [p] * n)
    want = [min(d, target.q(j) - 1) for j, d in enumerate(src, 1)]
    image = psi_map(expand_rational(Fraction(num, den), Constant(p)), target)
    assert _translate_routes(image)
    assert image.digits(first) == want[:first]   # later fills start at `first`
    assert image.digit(first + 7) == want[first + 6]
    assert image.digits(n) == want


@given(num=st.integers(0, 10 ** 6), den=st.integers(1, 10 ** 6),
       p=st.sampled_from([7, 300, 70000]),
       target=st.one_of(st.tuples(st.integers(2, 4), st.integers(1, 3)).map(
                            lambda t: Affine(*t)),
                        st.lists(st.sampled_from([3, 5, 260, 2 ** 33]),
                                 min_size=1, max_size=3).map(Periodic)),
       first=st.integers(0, 40))
@settings(max_examples=100)
def test_clamp_fallback_for_affine_targets_and_wide_memos(num, den, p, target,
                                                          first):
    n = 200
    src, _ = _int_expand(num, den, [p] * n)
    want = [min(d, target.q(j) - 1) for j, d in enumerate(src, 1)]
    image = psi_map(expand_rational(Fraction(num, den), Constant(p)), target)
    assert image.digits(first) == want[:first]
    assert image.digits(n) == want
    if p > 256 or isinstance(target, Affine) or target.upper_bound() > 256:
        assert not _translate_routes(image)


def test_c01_memos_hold_under_8_mb():
    # 7/8 over base 3, its psi image over (3, 2) and canonical form at 10^6
    # digits: four byte memos of about 1 MB each (as lists they held 31 MB)
    gc.collect()
    tracemalloc.start()
    try:
        n = 10 ** 6
        stream = expand_rational(Fraction(7, 8), Constant(3))
        stream.digit(n)
        image = psi_map(stream, Periodic([3, 2]), canonicity_window=64)
        image.digit(n)
        canon = canonicalize(image)
        canon.digit(n)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert canon is not image and canon.e0 == 1
    assert held < 8 * 10 ** 6


# -- cycle copying: rational fills past CHUNK over eventually periodic bases --

_repeating_base = st.one_of(
    _small.map(Constant),
    st.lists(_small, min_size=1, max_size=4).map(Periodic),
    st.tuples(st.lists(_small, min_size=1, max_size=5),
              st.lists(_small, min_size=1, max_size=3)).map(
        lambda t: Explicit(t[0], Periodic(t[1]))),
)
# primes shared with the bases give remainder cycles a pre-period (and
# terminating expansions at c = 1); every state cycle is shorter than CHUNK
_cycle_den = st.builds(lambda c, e2, e3: c * 2 ** e2 * 3 ** e3,
                       st.integers(1, 60), st.integers(0, 3), st.integers(0, 2))


@given(base=_repeating_base, den=_cycle_den, data=st.data(),
       reads=st.lists(st.integers(1, 2 * CHUNK + 300), max_size=4),
       singles=st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_copied_cycles_match_integer_multiply_and_floor(base, den, data, reads,
                                                        singles):
    num = data.draw(st.integers(0, 2 * den))
    n = 2 * CHUNK + 300          # past the first copied period (p <= CHUNK)
    # one-digit fills may run past n after a read near it
    digits, rems = _int_expand(num, den, list(base.entries(0, n + singles)))
    s = expand_rational(Fraction(num, den), base)
    for k in reads:              # partial fills, in random order
        assert s.digit(k) == digits[k - 1]
    for k in range(len(s._memo) + 1, len(s._memo) + 1 + singles):
        assert s.digit(k) == digits[k - 1]       # one-digit fills
    assert s.digits(n) == digits[:n]
    assert s._cycle is not None
    for k in list(range(0, 40)) + list(range(2 * CHUNK - 40, n + 1)):
        r = Fraction(rems[k], den)
        assert s.remainder(k) == r
        assert shift_T(s, k) == Enclosure(r, r)
    if 0 in rems:
        assert (s.canonicity, s.last_nonzero) == (TERMINATING, rems.index(0))
    else:
        assert (s.canonicity, s.last_nonzero) == (CANONICAL, None)


@pytest.mark.parametrize("base", [Constant(3), Explicit([2, 5], Periodic([3]))])
def test_cycles_longer_than_chunk_are_stepped(base):
    # 3 is a primitive root mod the prime 65537: remainders repeat only
    # after 65536 > CHUNK digits, so the one scan finds no copy
    n = 2 * CHUNK + 100
    digits, rems = _int_expand(1, 65537, list(base.entries(0, n)))
    s = expand_rational(Fraction(1, 65537), base)
    assert s.digits(n) == digits
    assert s._cycle is None
    assert [s.remainder(k) for k in range(CHUNK, n + 1, 97)] == \
        [Fraction(r, 65537) for r in rems[CHUNK:n + 1:97]]
