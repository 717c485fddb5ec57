"""Tests for dimension estimates, level sets, and rationality reports."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorkit.fracdim import (
    dim_ratio,
    level_measure_sum,
    level_report,
    level_weight,
    multifractal_schedule,
    multifractal_witness,
    range_report,
    rationality_report,
    wegmann_report,
    zpq_dim_bounds,
)
from cantorkit.seqcore import (IID, Affine, Constant, Explicit, Formula,
                               Geometric, Periodic)


def test_dim_ratio_constant():
    est = dim_ratio(lambda j: 2, lambda j: 8, 1000)
    assert est.values[-1] == pytest.approx(math.log(2) / math.log(8), abs=1e-12)
    assert est.running_min[-1] <= est.values[-1] + 1e-15


def test_dim_ratio_keeps_exact_products_while_small():
    est = dim_ratio(lambda j: 2, lambda j: 3, 100)
    cp = est.checkpoints[0]
    if cp in est.exact_at:
        num, den = est.exact_at[cp]
        assert num == 2 ** cp and den == 3 ** cp


def test_wegmann_constant_closed_form():
    rep = wegmann_report(Constant(9), lambda j: 3, horizon=5000)
    assert rep.estimate.values[-1] == pytest.approx(0.5, abs=1e-9)


def test_level_weight_cases():
    from cantorkit.seqcore import SpecError
    assert level_weight(5, 3, 1) == 1         # small digit passes through
    assert level_weight(5, 3, 2) == 3         # e = q-1 absorbs the clamp: p-q+1
    assert level_weight(3, 5, 2) == 1         # q dominates: plain digit
    assert level_weight(2, 5, 4) == 0         # target digit unreachable: e >= p
    with pytest.raises(SpecError):
        level_weight(5, 3, 4)                 # not a base-q digit at all


def test_level_report_empty_when_digit_impossible():
    rep = level_report(Constant(3), Constant(5), [4], horizon=50)
    assert rep.empty_at == 1


def test_level_report_partial_measure():
    rep = level_report(Constant(5), Constant(3), [2, 2], horizon=2)
    # each position has weight p-q+1 = 3 out of p = 5 digits
    assert rep.measure_partial == Fraction(9, 25)


@given(es_p=st.lists(st.integers(3, 9), min_size=3, max_size=10), q=st.integers(2, 3))
@settings(max_examples=60)
def test_level_measure_sum_telescopes(es_p, q):
    es_p = [max(p, q + 1) for p in es_p]
    p_seq = Explicit(es_p, Constant(es_p[-1]))
    rep = level_measure_sum(p_seq, Constant(q), len(es_p))
    assert rep.series == rep.telescoped


def test_level_measure_sum_power_base():
    p = Formula(lambda n: 2 ** n, label="2^n")
    rep = level_measure_sum(p, Constant(2), 60)
    assert rep.series == rep.telescoped
    assert float(rep.series) == pytest.approx(0.711212, abs=1e-5)


def test_multifractal_schedule_density():
    alpha, gamma = Fraction(1, 2), Fraction(1)
    forced = multifractal_schedule(alpha, gamma, 1000)
    count = sum(1 for n in range(1, 1001) if forced(n))
    assert abs(count / 1000 - 0.5) < 0.05


def test_multifractal_alpha_zero_exact():
    p = Formula(lambda n: 2 ** n, label="2^n")
    q = Formula(lambda n: n + 1, label="n+1")
    rep = multifractal_witness(p, q, 0, 1, horizon=500)
    assert rep.exact_zero
    assert all(v == 0 for v in rep.dim_level[1:])


def test_zpq_bounds_ordered():
    b = zpq_dim_bounds(Constant(5), Constant(3), horizon=2000)
    assert b.lower.values[-1] <= b.upper.values[-1] + 1e-12
    assert b.lower.values[-1] == pytest.approx(math.log(2) / math.log(5), abs=1e-9)
    assert b.upper.values[-1] == pytest.approx(math.log(3) / math.log(5), abs=1e-9)


def test_range_report_identity_pair():
    rep = range_report(Constant(3), Constant(3), horizon=200)
    assert rep.measure_partial == 1
    assert rep.dim.estimate.values[-1] == pytest.approx(1.0, abs=1e-12)


def test_rationality_sign_patterns():
    assert rationality_report(Constant(5), Constant(3), horizon=200).sign_pattern == "p_dominates"
    assert rationality_report(Constant(3), Constant(5), horizon=200).sign_pattern == "q_dominates"
    assert rationality_report(Constant(4), Constant(4), horizon=200).sign_pattern == "equal"
    rep = rationality_report(Periodic([2, 5]), Periodic([5, 2]), horizon=200)
    assert rep.sign_pattern == "mixed"


@given(q=st.one_of(st.integers(2, 60).map(Constant),
                   st.lists(st.integers(2, 60), min_size=1, max_size=4).map(Periodic),
                   st.builds(Affine, st.integers(2, 9), st.integers(0, 7)),
                   st.builds(Geometric, st.integers(2, 6), st.integers(1, 12)),
                   st.builds(IID, st.integers(2, 5), st.integers(5, 90),
                             st.integers(0, 99))),
       m_bound=st.integers(0, 60), div_horizon=st.integers(1, 150))
@settings(max_examples=100, deadline=None)
def test_rationality_divisibility_is_the_first_index_per_m(q, m_bound, div_horizon):
    rep = rationality_report(Constant(3), q, horizon=5, m_bound=m_bound,
                             div_horizon=div_horizon)
    period = q.eventual_period()
    scan = min(sum(period) if period else div_horizon, div_horizon)
    want = {m: next((n for n in range(1, scan + 1) if q.q(n) % m == 0), None)
            for m in range(2, m_bound + 1)}
    assert rep.divisibility == want
    assert list(rep.divisibility) == list(want)


def test_rationality_scan_over_a_geometric_base_is_quick():
    # 10^5 entries up to 3^100001: stepped residues take well under a second,
    # a power of r per index and m took minutes
    start = time.perf_counter()
    rep = rationality_report(Constant(3), Geometric(3, 3), horizon=24)
    assert time.perf_counter() - start < 5.0
    assert rep.divisibility[9] == 1 and rep.divisibility[2] is None
