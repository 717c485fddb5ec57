"""Tests for base-sequence specs and shared numeric helpers."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import cantorkit as ck
from cantorkit.seqcore import (
    Affine,
    Constant,
    Concatenated,
    Explicit,
    Formula,
    Geometric,
    IID,
    Periodic,
    SpecError,
    birkhoff_report,
    default_checkpoints,
    from_spec,
    prefix_products,
    sample_iid,
    truncate_tail,
)


def test_constant_and_affine_values():
    assert [Constant(3).q(n) for n in (1, 2, 10)] == [3, 3, 3]
    a = Affine(4, 1)
    assert [a.q(n) for n in (1, 2, 3)] == [5, 6, 7]


def test_geometric_and_periodic_values():
    g = Geometric(2, 2)
    assert [g.q(n) for n in (1, 2, 3)] == [4, 8, 16]
    p = Periodic([3, 2])
    assert [p.q(n) for n in range(1, 7)] == [3, 2, 3, 2, 3, 2]


def test_explicit_head_then_tail():
    e = Explicit([7, 5], Constant(2))
    assert [e.q(n) for n in (1, 2, 3, 4)] == [7, 5, 2, 2]


def test_concatenated_segments():
    c = Concatenated([(Constant(9), 2, 1), (Constant(3), None, 1)])
    assert [c.q(n) for n in (1, 2, 3, 4)] == [9, 9, 3, 3]


def test_entries_below_two_rejected():
    with pytest.raises(SpecError):
        Constant(1)
    with pytest.raises(SpecError):
        Explicit([2, 1], Constant(2))


def test_iid_deterministic_and_in_range():
    a = IID(2, 10, seed=5)
    b = IID(2, 10, seed=5)
    xs = [a.q(n) for n in range(1, 500)]
    assert xs == [b.q(n) for n in range(1, 500)]
    assert all(2 <= x <= 10 for x in xs)
    assert xs != [IID(2, 10, seed=6).q(n) for n in range(1, 500)]


def test_sample_iid_matches_iid_prefix():
    assert sample_iid(2, 6, 9, 50) == [IID(2, 6, 9).q(n) for n in range(1, 51)]


def test_from_spec_roundtrip():
    s = from_spec({"kind": "periodic", "values": [4, 2, 3]})
    assert [s.q(n) for n in (1, 2, 3, 4)] == [4, 2, 3, 4]
    s = from_spec({"kind": "affine", "a": 3, "d": 2})
    assert s.q(2) == 7
    with pytest.raises(SpecError):
        from_spec({"kind": "nope"})


def test_truncate_tail_pads_with_twos():
    s = truncate_tail(Periodic([5, 3]), 2)
    assert [s.q(n) for n in (1, 2, 3, 4)] == [5, 3, 2, 2]


@given(entries=st.lists(st.integers(2, 9), min_size=1, max_size=12))
def test_prefix_products_match_math_prod(entries):
    seq = Explicit(entries, Constant(2))
    n = len(entries)
    pp = prefix_products(seq, n)
    assert pp.product == math.prod(entries)


def test_prefix_products_block_weights():
    pp = prefix_products(Constant(3), 5, ks=(1, 2))
    # sum over j<=n of 1/(q_{j} .. q_{j+k-1}) for each block length k
    from fractions import Fraction
    assert pp.block_weights[1] == sum(Fraction(1, 3) for _ in range(5))
    assert pp.block_weights[2] == sum(Fraction(1, 9) for _ in range(5))


def test_default_checkpoints_sorted_and_end_at_n():
    cps = default_checkpoints(10000)
    assert cps == sorted(set(cps))
    assert cps[-1] == 10000
    assert cps[0] >= 1


def test_birkhoff_report_constant_sequences():
    rep = birkhoff_report(Constant(4), Constant(2), 1000)
    assert rep.pos_count == 1000 and rep.neg_count == 0
    assert rep.mean_log_p[-1] == pytest.approx(math.log(4))
    assert rep.mean_log_q[-1] == pytest.approx(math.log(2))
    assert rep.log_ratio[-1] == pytest.approx(1000 * math.log(2))
    assert rep.log_ratio_running_min == sorted(rep.log_ratio_running_min, reverse=True) or all(
        m <= v for m, v in zip(rep.log_ratio_running_min, rep.log_ratio)
    )


def test_birkhoff_running_min_is_running_min():
    # the running min is taken over every index, not just the checkpoints,
    # so it is nonincreasing and never above the checkpoint trajectory
    rep = birkhoff_report(IID(2, 5, 1), IID(2, 5, 2), 2000)
    mins = rep.log_ratio_running_min
    assert all(a >= b for a, b in zip(mins, mins[1:]))
    assert all(m <= v + 1e-12 for m, v in zip(mins, rep.log_ratio))


# Declared properties: what each kind promises, checked on a window of its
# values.  A kind that promises nothing says None (or False).
DECLARED = [
    # (sequence, eventual_period(), upper_bound(), nondecreasing)
    (Constant(3), (0, 1), 3, True),
    (Affine(2, 1), None, None, True),
    (Affine(3, 0), None, None, True),
    (Geometric(2, 3), None, None, True),
    (Geometric(3, 1), None, None, True),
    (Periodic([3, 5, 2]), (0, 3), 5, False),
    (Explicit([7, 2], Periodic([4, 3])), (2, 2), 7, False),
    (Explicit([], Constant(2)), (0, 1), 2, False),
    (Explicit([3], Explicit([9, 2], Constant(4))), (3, 1), 9, False),
    (Explicit([5], Affine(2, 1)), None, None, False),
    (Explicit([4, 11], IID(2, 5, 1)), None, 11, False),
    (IID(2, 6, 7), None, 6, False),
    (Formula(lambda n: 2 + n % 3), None, None, False),
    (Concatenated([(Constant(9), 2, 1), (Periodic([3, 4]), None, 2)]),
     None, None, False),
    (from_spec({"kind": "rdn"}), None, None, False),
    (from_spec({"kind": "qnex"}), None, None, False),
]


def _check_declared_on_window(seq):
    qs = seq.prefix(500)
    per = seq.eventual_period()
    if per is not None:
        start, period = per
        assert start >= 0 and period >= 1
        assert all(seq.q(n) == seq.q(n + period)
                   for n in range(start + 1, start + 201))
    bound = seq.upper_bound()
    if bound is not None:
        assert all(v <= bound for v in qs)
    if seq.nondecreasing:
        assert all(a <= b for a, b in zip(qs, qs[1:]))


@pytest.mark.parametrize("seq, period, bound, nondecreasing", DECLARED,
                         ids=[repr(d[0]) for d in DECLARED])
def test_declared_properties(seq, period, bound, nondecreasing):
    assert seq.eventual_period() == period
    assert seq.upper_bound() == bound
    assert seq.nondecreasing is nondecreasing
    _check_declared_on_window(seq)
    spec = seq.describe()
    if seq.kind in ("formula", "concatenated"):     # no JSON spec kind
        with pytest.raises(SpecError):
            from_spec(spec)
    else:
        again = from_spec(spec)
        assert again.describe() == spec and again.prefix(500) == seq.prefix(500)


def _spec_strategy():
    leaf = st.one_of(
        st.builds(lambda v: {"kind": "constant", "value": v}, st.integers(2, 9)),
        st.builds(lambda a, d: {"kind": "affine", "a": a, "d": d},
                  st.integers(2, 6), st.integers(0, 3)),
        st.builds(lambda a, r: {"kind": "geometric", "a": a, "r": r},
                  st.integers(2, 4), st.integers(1, 2)),
        st.builds(lambda vs: {"kind": "periodic", "values": vs},
                  st.lists(st.integers(2, 9), min_size=1, max_size=5)),
        st.builds(lambda lo, w, s: {"kind": "iid", "lo": lo, "hi": lo + w,
                                    "seed": s},
                  st.integers(2, 6), st.integers(0, 5), st.integers(0, 50)),
    )
    return st.recursive(leaf, lambda inner: st.builds(
        lambda head, tail: {"kind": "explicit", "head": head, "tail": tail},
        st.lists(st.integers(2, 12), max_size=5), inner), max_leaves=3)


@given(spec=_spec_strategy())
@settings(max_examples=60, deadline=None)
def test_declared_properties_hold_for_every_spec(spec):
    _check_declared_on_window(from_spec(spec))


# entries(lo, hi): each kind's run of q_{lo+1}..q_hi against q(j) per index

def _entry_seqs():
    small = st.integers(2, 7)
    leaf = st.one_of(
        small.map(Constant),
        st.builds(Affine, st.integers(2, 5), st.integers(0, 3)),   # d = 0 too
        st.builds(Geometric, st.integers(2, 3), st.integers(1, 3)),
        st.lists(small, min_size=1, max_size=5).map(Periodic),
        st.builds(IID, st.integers(2, 4), st.integers(4, 9), st.integers(0, 99)),
        small.map(lambda c: Formula(lambda n: n % 5 + c)),
    )

    def concatenated(inner):
        segment = st.tuples(inner, st.integers(0, 3), st.integers(1, 4))
        return st.builds(lambda segs, last, seglen: Concatenated(
            segs + [(last, None, seglen)]),
            st.lists(segment, max_size=3), inner, st.integers(1, 4))

    return st.recursive(leaf, lambda inner: st.one_of(
        st.builds(Explicit, st.lists(small, max_size=4), inner),
        concatenated(inner)), max_leaves=4)


@given(seq=_entry_seqs(), lo=st.integers(0, 60), hi=st.integers(-3, 90),
       m=st.integers(1, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_entries_match_q_per_index(seq, lo, hi, m):
    run = seq.entries(lo, hi)
    assert iter(run) is run                  # an iterator, not a list
    assert list(run) == [seq.q(j) for j in range(lo + 1, hi + 1)]
    assert list(seq.residues(lo, hi, m)) == \
        [seq.q(j) % m for j in range(lo + 1, hi + 1)]
    assert seq.prefix(max(hi, 0)) == [seq.q(j) for j in range(1, hi + 1)]


@given(seq=_entry_seqs(), lo=st.integers(-5, -1), hi=st.integers(-8, 20))
@settings(max_examples=30, deadline=None)
def test_entries_reject_an_index_below_1(seq, lo, hi):
    with pytest.raises(SpecError):
        seq.entries(lo, hi)
    with pytest.raises(SpecError):
        seq.residues(lo, hi, 7)


def _staged(name):
    from cantorkit import foundry
    return {"qnex1": lambda: foundry.qnex_pair(1)[0],
            "qnex2": lambda: foundry.qnex_pair(2)[0],
            "rdn2": lambda: foundry.RdnSeq(2),
            "kappa2": lambda: foundry.rdn_kappa(2)[0]}[name]()


@pytest.mark.parametrize("name", ["qnex1", "qnex2", "rdn2", "kappa2"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_staged_entries_straddle_stage_and_copy_ends(name, data):
    seq = _staged(name)
    seq.locate(2 ** 27)          # lays out the stage ends below 2^27
    # a stage end, the end of a copy of V(i, i^2) inside a stage, or 0
    ends = seq._ends[:3] + [seq._ends[0] + 2 * seq._words[0]]
    e = data.draw(st.sampled_from(ends))
    lo = max(e - data.draw(st.integers(0, 40)), 0)
    hi = e + data.draw(st.integers(0, 40))
    fresh = _staged(name)        # entries must lay out the stages by itself
    assert list(fresh.entries(lo, hi)) == [seq.q(j) for j in range(lo + 1, hi + 1)]


@given(a=st.integers(1, 5), r=st.integers(1, 9), lo=st.integers(0, 80),
       width=st.integers(1, 80))
@settings(max_examples=100, deadline=None)
def test_geometric_runs_step_by_one_multiplication(a, r, lo, width):
    assume(a * r >= 2)
    g = Geometric(a, r)
    calls = []
    q = g.q
    g.q = lambda n: calls.append(n) or q(n)     # counts the lookups a run makes
    run = list(g.entries(lo, lo + width))
    assert len(calls) <= 1
    assert run == [Geometric(a, r).q(n) for n in range(lo + 1, lo + width + 1)]


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9])
@given(lo=st.integers(2, 2 ** 70), seed=st.integers(0, 10 ** 6),
       reads=st.lists(st.integers(1, 400), max_size=8))
@settings(max_examples=30, deadline=None)
def test_iid_draws_equal_randint_draw_for_draw(width, lo, seed, reads):
    rng = random.Random(seed)
    want = [rng.randint(lo, lo + width - 1) for _ in range(500)]
    one = IID(lo, lo + width - 1, seed)
    for n in reads:                  # single reads draw runs past the memo
        before = len(one._memo)
        assert one.q(n) == want[n - 1]
        assert len(one._memo) <= max(n, 2 * before)
    assert [one.q(n) for n in range(1, 501)] == want
    bulk = IID(lo, lo + width - 1, seed)
    assert list(bulk.entries(0, 500)) == want
