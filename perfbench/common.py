"""Request plumbing shared by the workloads, and the independent routes
the checker uses.

A request is timed from the moment it parses its inputs until its report
is serialised.  Its `check` runs afterwards, outside the timed span, and
recomputes the answer by a route that does not go through the function
under test (plain integer expansions, naive counts, the library's own
oracles).  Where the library may legitimately answer more precisely than
it does now, a check tests containment of the truth rather than equality
with today's answer.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from cantorkit import cli


@dataclass
class Outcome:
    text: str        # the serialised report, as a CLI caller would receive it
    # zero-width enclosure or decided classification; None: exact when
    # exact_numbers(value) holds, decided by the checker after timing
    exact: Optional[bool]
    value: object    # the raw result, for the checker


@dataclass
class Request:
    kind: str
    call: Callable[..., Outcome]          # call(tracer), timed
    check: Optional[Callable[[Outcome], bool]] = None   # untimed
    expect_error: Optional[type] = None   # predicted by the generator
    key: Optional[object] = None          # repeated requests share a key


def emit_json(tr, data) -> str:
    """The CLI's JSON emitter, writing into memory instead of stdout."""
    buf = io.StringIO()
    with tr.span("cli.emit"), contextlib.redirect_stdout(buf):
        cli.emit_json(data, None)
    text = buf.getvalue()
    tr.count("cli.bytes_out", len(text))
    return text


def emit_csv(tr, rows, header) -> str:
    buf = io.StringIO()
    with tr.span("cli.emit"), contextlib.redirect_stdout(buf):
        cli.emit_csv(rows, header, None)
    text = buf.getvalue()
    tr.count("cli.bytes_out", len(text))
    return text


def parse_seqs(tr, *texts):
    with tr.span("cli.parse"):
        return [cli.parse_seq(t) for t in texts]


def spec_text(spec: dict) -> str:
    return json.dumps(spec, separators=(",", ":"))


def zipf_picks(rng: random.Random, ranked: list, count: int, s: float = 0.8) -> list:
    """`count` draws from `ranked`, most popular first, with Zipf(s) popularity."""
    weights = [1.0 / (r + 1) ** s for r in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


def exact_numbers(*values) -> bool:
    """True when every number in `values` is an int or a Fraction, looking
    inside lists, tuples, dicts and dataclasses; a float anywhere makes
    the answer inexact.  Other objects are skipped."""
    stack = list(values)
    while stack:
        v = stack.pop()
        if isinstance(v, float):
            return False
        if isinstance(v, (list, tuple, set)):
            if not all(type(e) is int for e in v):
                stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.keys())
            stack.extend(v.values())
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            stack.extend(getattr(v, f.name) for f in dataclasses.fields(v))
    return True


# ---------------------------------------------------------------------------
# independent routes

def expand_int(x: Fraction, q, n: int):
    """(e0, digits, remainder numerators over x.denominator) by integer
    multiply-and-floor; q is a callable n -> q_n."""
    a, b = x.numerator, x.denominator
    e0 = a // b
    r = a - e0 * b
    digits, rems = [], [r]
    for j in range(1, n + 1):
        t = r * q(j)
        d = t // b
        r = t - d * b
        digits.append(d)
        rems.append(r)
    return e0, digits, rems


def terminates_at(rems) -> Optional[int]:
    """Index n of the first zero remainder (after n digits), or None."""
    for n, r in enumerate(rems):
        if r == 0:
            return n
    return None


def clamp_value(q, digits, e0=0) -> Fraction:
    """Exact value of the finite clamped digit string min(E_j, q_j - 1)."""
    num, den = 0, 1
    for j, e in enumerate(digits, start=1):
        qj = q(j)
        num = num * qj + min(e, qj - 1)
        den *= qj
    return e0 + Fraction(num, den)


def digits_value(p, digits, e0=0) -> Fraction:
    num, den = 0, 1
    for j, e in enumerate(digits, start=1):
        pj = p(j)
        num = num * pj + e
        den *= pj
    return e0 + Fraction(num, den)


def prefix_product(q, n: int) -> int:
    return math.prod(q(j) for j in range(1, n + 1))


def star_discrepancy_counted(points) -> Fraction:
    """The oracle's definition (sup over t in points + {1} of the counting
    error) with counts from binary search, so it scales to large sets."""
    pts = sorted(Fraction(p) for p in points)
    n = len(pts)
    best = Fraction(0)
    for t in pts + [Fraction(1)]:
        below, upto = bisect.bisect_left(pts, t), bisect.bisect_right(pts, t)
        best = max(best, abs(Fraction(below, n) - t), abs(Fraction(upto, n) - t))
    return best
