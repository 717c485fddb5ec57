"""Command-line reports.

Sequences are given as JSON specs, e.g. '{"kind":"constant","value":3}' or
'{"kind":"periodic","values":[3,2]}'.  Outputs are CSV (digit dumps,
samples), JSON (reports), and plain PGM (P2, 8-bit) for plots.  All output
is deterministic: rerunning a command reproduces it byte for byte.

Exit codes: 0 success, 2 malformed spec/arguments, 3 hypothesis violation,
4 undecided at the requested horizon.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import foundry, fracdim, normstats, psi, seqcore
from .digitstream import DigitStream, expand_rational
from .seqcore import (BasicSeq, HypothesisError, IID, SpecError,
                      UndecidedError, from_spec)

EXIT_OK, EXIT_SPEC, EXIT_HYPOTHESIS, EXIT_UNDECIDED = 0, 2, 3, 4


def parse_seq(text: str) -> BasicSeq:
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"sequence spec is not valid JSON: {e}") from None
    return from_spec(spec)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise SpecError(f"bad rational {text!r}: {e}") from None


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "-inf" if obj < 0 else "inf"
    return obj


@contextlib.contextmanager
def _long_int_str():
    """Lift the interpreter's int-to-str digit limit inside the block only:
    exact rationals from deep products can exceed the default 4300 digits."""
    old = sys.get_int_max_str_digits()
    if old:   # 0 already means no limit
        sys.set_int_max_str_digits(max(old, 2_000_000))
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _write(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def emit_json(data, out: Optional[str]):
    with _long_int_str():
        text = json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n"
    _write(text, out)


def emit_csv(rows, header, out: Optional[str]):
    """CSV of rows; cells are stringified here, under the lifted limit."""
    with _long_int_str():
        lines = [",".join(header)] + [",".join(str(c) for c in r) for r in rows]
    _write("\n".join(lines) + "\n", out)


def render_pgm(samples, width: int, height: int, out: str):
    """Plain PGM (P2) plot of (x, y) samples with x, y in [0, 1]."""
    grid = [[255] * width for _ in range(height)]
    for x, y in samples:
        col = min(int(Fraction(x) * width), width - 1)
        yf = Fraction(y)
        yf = yf - (yf.numerator // yf.denominator) if yf >= 1 else yf
        if yf < 0:
            yf = Fraction(0)
        row = height - 1 - min(int(yf * height), height - 1)
        grid[row][col] = 0
    lines = ["P2", f"{width} {height}", "255"]
    lines += [" ".join(str(v) for v in row) for row in grid]
    with open(out, "w") as f:
        f.write("\n".join(lines) + "\n")


def _stream_from_args(base: BasicSeq, args) -> DigitStream:
    if args.x is not None:
        return expand_rational(parse_rational(args.x), base)
    if args.source == "golden":
        return normstats.golden_ratio_stream(base)
    if args.source.startswith("iid:"):
        lo, hi, seed = (int(v) for v in args.source[4:].split(","))
        draws = IID(max(lo + 2, 2), hi + 2, seed)   # reuse the seeded sampler
        return DigitStream(base, lambda n: min(draws.q(n) - 2, base.q(n) - 1),
                           canonicity="unknown", label="iid-digits")
    if args.source == "qnex":
        if base.kind != "qnex":
            raise SpecError("qnex digits require the qnex base")
        return foundry.qnex_pair(base.first_stage)[1]
    raise SpecError(f"unknown digit source {args.source!r}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_digits(args):
    base = parse_seq(args.base)
    stream = _stream_from_args(base, args)
    rows = [(n, base.q(n), stream.digit(n)) for n in range(1, args.n + 1)]
    emit_csv(rows, ["n", "q_n", "E_n"], args.out)


def cmd_psi_eval(args):
    p, q = parse_seq(args.p), parse_seq(args.q)
    enc = psi.psi_value(p, q, parse_rational(args.x), horizon=args.horizon)
    exact = enc.lo == enc.hi
    emit_json({"x": args.x, "lo": enc.lo, "hi": enc.hi, "exact": exact},
              args.out)
    if not exact and args.require_exact:
        return EXIT_UNDECIDED
    return EXIT_OK


def cmd_psi_plot(args):
    p, q = parse_seq(args.p), parse_seq(args.q)
    samples = psi.sample_approximant(p, q, args.t, args.grid)
    if args.csv:
        emit_csv(samples, ["x", "psi_t"], args.csv)
    render_pgm(samples, args.width, args.width, args.out)


def cmd_normality(args):
    base = parse_seq(args.base)
    stream = _stream_from_args(base, args)
    rep = normstats.normality_report(stream, args.k, args.alphabet, args.n)
    emit_json({"k": rep.k, "n": rep.n, "checkpoints": rep.checkpoints,
               "weights": rep.weights, "weights_exact": rep.weights_exact,
               "blocks": {"".join(map(str, b)): {"counts": rep.counts[b],
                                                 "ratios": rep.ratios[b]}
                          for b in rep.blocks}}, args.out)


def cmd_discrepancy(args):
    base = parse_seq(args.base)
    stream = _stream_from_args(base, args)
    rep = normstats.ud_report(stream, args.mode, args.n,
                              orbit_depth=args.orbit_depth)
    emit_json(rep, args.out)


def cmd_construct(args):
    if args.what in ("qnex", "mff"):
        seq, stream = foundry.qnex_pair(first_stage=args.stage)
        rows = [(n, seq.q(n), stream.digit(n)) for n in range(1, args.n + 1)]
        emit_csv(rows, ["n", "q_n", "E_n"], args.out)
        return EXIT_OK
    if args.what == "rdn":
        seq = foundry.RdnSeq(args.stage)
        rows = [(n,) + foundry.rdn_entry(*seq.locate(n))
                for n in range(1, args.n + 1)]
        emit_csv(rows, ["n", "w_n", "q_n", "y_n"], args.out)
        if args.meta:
            emit_json({"stage": args.stage,
                       "measure_log10": float(foundry.rdn_measure_log10()),
                       "identities": foundry.rdn_count_identities(
                           min(args.stage, 6))}, args.meta)
        return EXIT_OK
    if args.base is None:
        raise SpecError(f"construct {args.what} needs --base")
    base = parse_seq(args.base)
    stream = _stream_from_args(base, args)
    if args.what == "nnotdn":
        p_seq, y = foundry.nnotdn_pair(base, stream)
    elif args.what == "rnnotn":
        p_seq, y = foundry.rnnotn_pair(base, stream)
    elif args.what == "dnnotrn":
        p_seq, y = foundry.dnnotrn_pair(base, stream)
    else:
        raise SpecError(f"unknown construction {args.what!r}")
    rows = [(n, base.q(n), p_seq.q(n), stream.digit(n), y.digit(n))
            for n in range(1, args.n + 1)]
    emit_csv(rows, ["n", "q_n", "p_n", "E_n", "y_n"], args.out)
    return EXIT_OK


def cmd_dimension(args):
    for name in ("q",) if args.what == "wegmann" else ("p", "q"):
        if getattr(args, name) is None:
            raise SpecError(f"dimension {args.what} needs --{name}")
    p = parse_seq(args.p) if args.p else None
    q = parse_seq(args.q) if args.q else None
    if args.what == "wegmann":
        if args.sizes is None:
            raise SpecError("wegmann needs --sizes (JSON spec of a sequence "
                            "of cell counts; entries >= 2)")
        sizes = parse_seq(args.sizes)
        rep = fracdim.wegmann_report(q, sizes.q, horizon=args.horizon)
    elif args.what == "range":
        rep = fracdim.range_report(p, q, horizon=args.horizon)
    elif args.what == "level":
        digits = [int(v) for v in args.w.split(",")] if args.w else []
        rep = fracdim.level_report(p, q, digits, horizon=args.horizon)
    elif args.what == "levelsum":
        rep = fracdim.level_measure_sum(p, q, args.k)
    elif args.what == "multifractal":
        rep = fracdim.multifractal_witness(p, q, Fraction(args.alpha),
                                           Fraction(args.gamma),
                                           horizon=args.horizon)
    elif args.what == "zpq":
        rep = fracdim.zpq_dim_bounds(p, q, horizon=args.horizon)
    else:
        raise SpecError(f"unknown dimension report {args.what!r}")
    emit_json(rep, args.out)


def cmd_rationality(args):
    rep = fracdim.rationality_report(parse_seq(args.p), parse_seq(args.q),
                                     horizon=args.horizon)
    emit_json(rep, args.out)
    return EXIT_OK if rep.full_measure_verdict != "unknown" else EXIT_UNDECIDED


def cmd_variation(args):
    p, q = parse_seq(args.p), parse_seq(args.q)
    rep = psi.variation_formula(p, q, args.t)
    data = {"t": rep.t, "value": rep.value, "method": rep.method,
            "upper_bound": rep.upper_bound}
    if args.oracle:
        data["oracle"] = psi.variation_oracle(p, q, args.t)
        data["oracle_agrees"] = data["oracle"] == rep.value
    emit_json(data, args.out)


def cmd_bv(args):
    rep = psi.bv_check(parse_seq(args.p), parse_seq(args.q), horizon=args.horizon)
    emit_json(rep, args.out)
    return EXIT_OK if rep.verdict == "bounded_variation" else EXIT_UNDECIDED


def cmd_holder(args):
    rep = psi.holder_report(parse_seq(args.p), parse_seq(args.q),
                            Fraction(args.alpha), horizon=args.horizon)
    data = dataclasses.asdict(rep)
    emit_json(data, args.out)


def cmd_monotone_witness(args):
    prefix = [int(v) for v in args.prefix.split(",")] if args.prefix else []
    rep = psi.monotonicity_witness(parse_seq(args.p), parse_seq(args.q),
                                   prefix, horizon=args.horizon)
    emit_json(rep, args.out)


def cmd_continuity(args):
    rep = psi.classify_continuity(parse_seq(args.p), parse_seq(args.q),
                                  parse_rational(args.x),
                                  tail_horizon=args.horizon)
    emit_json(rep, args.out)
    return EXIT_OK if rep.decided else EXIT_UNDECIDED


def cmd_sample(args):
    vals = seqcore.sample_iid(args.lo, args.hi, args.seed, args.n)
    emit_csv(list(enumerate(vals, start=1)), ["n", "value"], args.out)


def cmd_birkhoff(args):
    rep = seqcore.birkhoff_report(parse_seq(args.p), parse_seq(args.q), args.n)
    emit_json(rep, args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cantorkit", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    def stream_opts(p):
        p.add_argument("--x", help="rational point, e.g. 7/8")
        p.add_argument("--source", default="golden",
                       help="digit source when no --x: golden | iid:lo,hi,seed | qnex")

    p = add("digits", cmd_digits, help="digit dump as CSV n,q_n,E_n")
    p.add_argument("--base", required=True)
    stream_opts(p)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out")

    p = add("psi-eval", cmd_psi_eval, help="transform value at a rational")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--horizon", type=int, default=512)
    p.add_argument("--require-exact", action="store_true")
    p.add_argument("--out")

    p = add("psi-plot", cmd_psi_plot, help="stage-t approximant plot (PGM + CSV)")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--t", type=int, default=64)
    p.add_argument("--grid", type=int, default=500)
    p.add_argument("--width", type=int, default=500)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")

    p = add("normality", cmd_normality, help="block-count ratios report")
    p.add_argument("--base", required=True)
    stream_opts(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--out")

    p = add("discrepancy", cmd_discrepancy, help="star discrepancy report")
    p.add_argument("--base", required=True)
    stream_opts(p)
    p.add_argument("--mode", choices=["digit-ratio", "orbit"],
                   default="digit-ratio")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--orbit-depth", type=int, default=40)
    p.add_argument("--out")

    p = add("construct", cmd_construct, help="normality constructions")
    p.add_argument("what", choices=["qnex", "rdn", "mff", "nnotdn", "rnnotn",
                                    "dnnotrn"])
    p.add_argument("--base")
    stream_opts(p)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--stage", type=int, default=6)
    p.add_argument("--out")
    p.add_argument("--meta")

    p = add("dimension", cmd_dimension, help="dimension and measure reports")
    p.add_argument("what", choices=["wegmann", "range", "level", "levelsum",
                                    "multifractal", "zpq"])
    p.add_argument("--p")
    p.add_argument("--q")
    p.add_argument("--sizes")
    p.add_argument("--w", help="level-set target digits, comma separated")
    p.add_argument("--alpha", default="0")
    p.add_argument("--gamma", default="1")
    p.add_argument("--k", type=int, default=1,
                   help="series length (levelsum)")
    p.add_argument("--horizon", type=int, default=10000)
    p.add_argument("--out")

    p = add("rationality", cmd_rationality, help="rational-image structure report")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--out")

    p = add("variation", cmd_variation, help="stage-t total variation")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--out")

    p = add("bv", cmd_bv, help="bounded-variation certificate")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--horizon", type=int, default=5000)
    p.add_argument("--out")

    p = add("holder", cmd_holder, help="Hölder exponent diagnostics")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--alpha", default="1/2")
    p.add_argument("--horizon", type=int, default=2000)
    p.add_argument("--out")

    p = add("monotone-witness", cmd_monotone_witness,
            help="x < y with transform values reversed")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--prefix", default="")
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--out")

    p = add("continuity", cmd_continuity,
            help="one-sided continuity at a terminating point")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--horizon", type=int, default=256)
    p.add_argument("--out")

    p = add("sample", cmd_sample, help="seeded iid sequence sample")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out")

    p = add("birkhoff", cmd_birkhoff, help="running log averages and ratio mins")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--out")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        rc = args.fn(args)
        return EXIT_OK if rc is None else rc
    except SpecError as e:
        print(f"spec error: {e}", file=sys.stderr)
        return EXIT_SPEC
    except HypothesisError as e:
        print(f"hypothesis violation: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except UndecidedError as e:
        print(f"undecided at horizon: {e}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
