"""End-to-end tests of the command line interface."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cantorkit import cli, foundry, psi

C2 = '{"kind":"constant","value":2}'
C3 = '{"kind":"constant","value":3}'
C5 = '{"kind":"constant","value":5}'
C10 = '{"kind":"constant","value":10}'
P32 = '{"kind":"periodic","values":[3,2]}'


def run(capsys, args):
    rc = cli.main(args)
    return rc, capsys.readouterr().out


def _subprocess(code_or_args, timeout):
    """Run the CLI (a list of args) or a Python snippet in a fresh
    interpreter, where an uncaught exception shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    cmd = (["-c", code_or_args] if isinstance(code_or_args, str)
           else ["-m", "cantorkit.cli", *code_or_args])
    return subprocess.run([sys.executable, *cmd], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_digits_csv(capsys):
    rc, out = run(capsys, ["digits", "--base", P32, "--x", "7/8", "--n", "4"])
    assert rc == 0
    assert out.splitlines() == ["n,q_n,E_n", "1,3,2", "2,2,1", "3,3,0", "4,2,1"]


def test_psi_eval_exact(capsys):
    rc, out = run(capsys, ["psi-eval", "--p", C5, "--q", C3, "--x", "3/5"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["exact"] is True
    assert doc["lo"] == doc["hi"] == "2/3"


def test_psi_eval_require_exact_failure_exit_code(capsys):
    # an irregular base pair gives an enclosure, not an exact value
    rc, out = run(capsys, ["psi-eval", "--p", '{"kind":"iid","lo":2,"hi":9,"seed":3}',
                           "--q", C3, "--x", "1/7", "--require-exact"])
    assert rc in (0, 4)


def test_continuity_json(capsys):
    rc, out = run(capsys, ["continuity", "--p", C2, "--q", C10, "--x", "1/2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["status"] == "jump"
    assert doc["jump"] == "4/45"
    assert doc["set_tag"] == "B"


def test_variation_formula_and_oracle_agree(capsys):
    rc1, out1 = run(capsys, ["variation", "--p", C3, "--q", C2, "--t", "3"])
    rc2, out2 = run(capsys, ["variation", "--p", C3, "--q", C2, "--t", "3",
                             "--oracle"])
    assert rc1 == rc2 == 0
    assert json.loads(out1)["value"] == json.loads(out2)["value"] == "27/4"


def test_psi_plot_writes_pgm(tmp_path, capsys):
    out_pgm = tmp_path / "plot.pgm"
    out_csv = tmp_path / "plot.csv"
    rc, _ = run(capsys, ["psi-plot", "--p", C5, "--q", C3, "--t", "3",
                         "--grid", "40", "--width", "40",
                         "--out", str(out_pgm), "--csv", str(out_csv)])
    assert rc == 0
    lines = out_pgm.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "40 40"
    assert lines[2] == "255"
    assert out_csv.exists()


def test_discrepancy_json(capsys):
    rc, out = run(capsys, ["discrepancy", "--base",
                           '{"kind":"affine","a":2,"d":1}',
                           "--mode", "digit-ratio", "--n", "200"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["mode"] == "digit-ratio"
    assert len(doc["discrepancy"]) == len(doc["checkpoints"])


def test_qnex_source_digits_follow_the_base_stage(capsys):
    # the first 1 of a stage-6 copy of V(6, 36) is digit 72; at stage 7 it is 98
    rc, out = run(capsys, ["digits", "--base", '{"kind":"qnex","first_stage":7}',
                           "--source", "qnex", "--n", "100"])
    assert rc == 0
    _, stream = foundry.qnex_pair(7)
    assert out.splitlines()[1:] == [f"{n},128,{stream.digit(n)}"
                                    for n in range(1, 101)]


def test_construct_rdn_csv_and_meta(tmp_path, capsys):
    meta = tmp_path / "meta.json"
    rc, out = run(capsys, ["construct", "rdn", "--n", "5",
                           "--meta", str(meta)])
    assert rc == 0
    assert out.splitlines()[0] == "n,w_n,q_n,y_n"
    doc = json.loads(meta.read_text())
    assert "measure_log10" in doc or "measure" in str(doc)


def test_dimension_levelsum_exact(capsys):
    rc, out = run(capsys, ["dimension", "levelsum", "--p", C5, "--q", C3,
                           "--k", "10"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["series"] == doc["telescoped"]


def test_dimension_wegmann(capsys):
    rc, out = run(capsys, ["dimension", "wegmann", "--q",
                           '{"kind":"constant","value":9}',
                           "--sizes", C3, "--horizon", "500"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["estimate"]["values"][-1] == pytest.approx(0.5, abs=1e-9)


def test_monotone_witness(capsys):
    rc, out = run(capsys, ["monotone-witness", "--p", C5, "--q", C3])
    assert rc == 0
    doc = json.loads(out)
    assert Fraction(doc["x"]) < Fraction(doc["y"])
    assert Fraction(doc["psi_x"]) > Fraction(doc["psi_y"])


def test_sample_deterministic(capsys):
    rc1, out1 = run(capsys, ["sample", "--lo", "2", "--hi", "9", "--seed", "4",
                             "--n", "5"])
    rc2, out2 = run(capsys, ["sample", "--lo", "2", "--hi", "9", "--seed", "4",
                             "--n", "5"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "n,value"


def test_bad_spec_exit_code(capsys):
    rc = cli.main(["digits", "--base", '{"kind":"nope"}', "--x", "1/2"])
    assert rc == 2


def test_bad_entry_exit_code(capsys):
    rc = cli.main(["digits", "--base", '{"kind":"constant","value":1}',
                   "--x", "1/2"])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["digits", "--base", '{"kind":"constant","value":"x"}', "--x", "1/2"],
    ["digits", "--base", '{"kind":"periodic","values":3}', "--x", "1/2"],
    ["dimension", "range", "--q", C3],
    ["construct", "nnotdn"],
    ["digits", "--base", '{"kind":"qnex","b_of":3}', "--x", "1/2"],
    ["digits", "--base", '{"kind":"qnex","w_of":3}', "--x", "1/2"],
    ["digits", "--base", '{"kind":"rdn","l_of":3}', "--x", "1/2"],
    ["digits", "--base", '{"kind":"qnex","first_stage":"6"}', "--x", "1/2"],
    ["digits", "--base", '{"kind":"qnex","first_stage":-1}', "--x", "1/2"],
    ["digits", "--base", '{"kind":"qnex","first_stage":0}', "--x", "1/2"],
    ["digits", "--base", '{"kind":"qnex","first_stage":33}', "--x", "1/2"],
    ["digits", "--base", '{"kind":"qnex","first_stage":1000000}', "--x", "1/2"],
    ["digits", "--base", '{"kind":"rdn","first_stage":1}', "--x", "1/2"],
    ["construct", "rdn", "--stage", "-1", "--n", "3"],
    ["construct", "mff", "--stage", "0", "--n", "3"],
    ["variation", "--p", C3, "--q", C2, "--t", "-1"],
    ["normality", "--base", C3, "--x", "1/2", "--k", "-1"],
    ["digits", "--base", C3, "--source", "iid:x"],
    ["digits", "--base", C3, "--source", "iid:1,2"],
    ["holder", "--p", C3, "--q", C2, "--alpha", "x"],
    ["monotone-witness", "--p", C3, "--q", C2, "--prefix", "1,a"],
    ["bv", "--p", C3, "--q", C2, "--horizon", "0"],
    ["dimension", "level", "--p", C3, "--q", C2, "--w", "0,x"],
], ids=["constant-value-not-int", "periodic-values-not-list",
        "dimension-range-without-p", "construct-nnotdn-without-base",
        "qnex-b_of", "qnex-w_of", "rdn-l_of", "qnex-first-stage-str",
        "qnex-first-stage-negative", "qnex-first-stage-0",
        "qnex-first-stage-33", "qnex-first-stage-1e6", "rdn-first-stage-1",
        "construct-rdn-stage-negative", "construct-mff-stage-0",
        "variation-t-negative", "normality-k-negative", "iid-source-not-int",
        "iid-source-two-fields", "holder-alpha-not-rational",
        "witness-prefix-not-int", "bv-horizon-0", "dimension-level-w-not-int"])
def test_malformed_input_exits_2_without_traceback(args):
    proc = _subprocess(args, 60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_psi_plot_csv_at_deep_stage_exits_0(tmp_path):
    # stage 4400 over Q = 10 gives values with more than 4300 digits, the
    # interpreter's default limit for int-to-str conversion
    csv, pgm = tmp_path / "o.csv", tmp_path / "o.pgm"
    proc = _subprocess(["psi-plot", "--p", C3, "--q", C10, "--t", "4400",
                        "--grid", "2", "--csv", str(csv), "--out", str(pgm)], 60)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,psi_t"
    want = psi.sample_approximant(cli.parse_seq(C3), cli.parse_seq(C10), 4400, 2)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)    # parsing the rows back needs no limit
    try:
        rows = [tuple(map(Fraction, line.split(","))) for line in lines[1:]]
    finally:
        sys.set_int_max_str_digits(limit)
    assert rows == want


def test_emitters_leave_int_str_limit_unchanged(capsys):
    # start from the interpreter's default, whatever earlier tests left
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        cli.emit_json({"v": Fraction(10 ** 5000, 3)}, None)
        assert sys.get_int_max_str_digits() == 4300
        cli.emit_csv([(Fraction(1, 10 ** 5000),)], ["v"], None)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(old)
    out = capsys.readouterr().out
    assert f'"1{"0" * 5000}/3"' in out and f"1/1{'0' * 5000}" in out


def test_variation_over_equal_bases_at_deep_stage_exits_0():
    # p_t = q_t at every stage: 3^30 cells, so only the formula can finish
    proc = _subprocess(["variation", "--p", C3, "--q", C3, "--t", "30"], 10)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["value"], doc["method"], doc["upper_bound"]) == \
        ("2/1", "formula", None)


def test_variation_oracle_past_its_cap_exits_4_without_traceback():
    proc = _subprocess(["variation", "--p", C3, "--q", C2, "--t", "30",
                        "--oracle"], 10)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr


def test_variation_oracle_runs_without_numpy():
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from cantorkit.cli import main\n"
            f"sys.exit(main(['variation', '--p', '{C3}', '--q', '{C2}', "
            "'--t', '3', '--oracle']))")
    proc = _subprocess(code, 30)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["oracle"] == doc["value"] == "27/4"
    assert doc["oracle_agrees"] is True


def test_construct_qnex_and_mff_honour_the_stage(capsys):
    for what, stage in (("qnex", None), ("qnex", 3), ("mff", 3), ("mff", None)):
        args = ["construct", what, "--n", "300"]
        if stage is not None:
            args += ["--stage", str(stage)]
        rc, out = run(capsys, args)
        assert rc == 0
        seq, stream = foundry.qnex_pair(stage or 6)
        assert out.splitlines() == ["n,q_n,E_n"] + [
            f"{n},{seq.q(n)},{stream.digit(n)}" for n in range(1, 301)]


def test_construct_rdn_continues_into_the_next_copy(capsys):
    # V(2, 4) has 1,024 positions; row 1025 starts its second copy
    rc, out = run(capsys, ["construct", "rdn", "--stage", "2", "--n", "2000"])
    assert rc == 0
    rows = out.splitlines()
    assert rows[0] == "n,w_n,q_n,y_n" and len(rows) == 2001
    for n, row in enumerate(rows[1:], start=1):
        entry = foundry.rdn_entry(2, (n - 1) % 1024 + 1)
        assert row == ",".join(map(str, (n,) + entry))


def test_normality_at_block_length_0_over_an_affine_base(capsys):
    rc, out = run(capsys, ["normality", "--base", '{"kind":"affine","a":2,"d":1}',
                           "--x", "1/3", "--k", "0", "--n", "10"])
    rep = json.loads(out)
    assert rc == 0
    assert rep["weights"] == [f"{c}/1" for c in rep["checkpoints"]]
    assert rep["blocks"][""]["counts"] == rep["checkpoints"]


def test_dimension_zpq_has_no_k(capsys):
    outs = []
    for k in ("1", "7"):
        rc, out = run(capsys, ["dimension", "zpq", "--p", C5, "--q", C3,
                               "--k", k, "--horizon", "100"])
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert "k" not in json.loads(outs[0])


def _holder_by_terms(p, q, a, horizon, k_max=8):
    """(sup1, at1, sup2, at2, hypothesis) from logs summed term by term."""
    P = [p.q(n) for n in range(1, horizon + 1)]
    Q = [q.q(n) for n in range(1, horizon + 1)]
    e1 = {n: a * math.fsum(math.log(v) for v in P[:n])
          - math.fsum(math.log(v) for v in Q[:n])
          + (1 - a) * math.log(min(P[n - 1], Q[n - 1]))
          for n in range(1, horizon + 1)}
    e2 = {(n, k): a * math.fsum(math.log(v) for v in P[:n + k])
          - math.fsum(math.log(v) for v in Q[:n])
          + a * (math.log(P[n + k]) - math.log(max(1, P[n + k] - Q[n + k])))
          for n in range(1, horizon + 1) for k in range(k_max + 1)
          if n + k + 1 <= horizon}
    at1, at2 = max(e1, key=e1.get), max(e2, key=e2.get)
    hyp = all(min(u, v) >= 3 for u, v in zip(P, Q))
    return e1[at1], at1, e2[at2], at2, hyp


@pytest.mark.parametrize("p, q, alpha, verdict", [
    ('{"kind":"periodic","values":[5,2,7]}', '{"kind":"periodic","values":[3,4]}',
     "1", "diverging"),
    ('{"kind":"periodic","values":[3,4]}', '{"kind":"periodic","values":[7,5,6]}',
     "1/2", "bounded_so_far"),
])
def test_holder_report_against_term_by_term_logs(capsys, p, q, alpha, verdict):
    horizon = 60
    rc, out = run(capsys, ["holder", "--p", p, "--q", q, "--alpha", alpha,
                           "--horizon", str(horizon)])
    assert rc == 0
    doc = json.loads(out)
    sup1, at1, sup2, at2, hyp = _holder_by_terms(
        cli.parse_seq(p), cli.parse_seq(q), float(Fraction(alpha)), horizon)
    assert doc["sup1_log"] == pytest.approx(sup1, rel=1e-12, abs=1e-12)
    assert doc["sup2_log"] == pytest.approx(sup2, rel=1e-12, abs=1e-12)
    assert (doc["sup1_at"], tuple(doc["sup2_at"])) == (at1, at2)
    assert doc["hypothesis_ok"] is hyp
    assert doc["verdict"] == verdict


# -- fuzz: drawn specs, subcommands and small sizes, in process --------------

_entry = st.one_of(st.integers(-1, 9), st.sampled_from([300, 2 ** 33, "3", 2.5, None]))
_spec = st.one_of(
    st.builds(lambda v: {"kind": "constant", "value": v}, _entry),
    st.builds(lambda vs: {"kind": "periodic", "values": vs},
              st.one_of(st.lists(_entry, max_size=3), _entry)),
    st.builds(lambda a, d: {"kind": "affine", "a": a, "d": d},
              _entry, st.integers(-1, 3)),
    st.builds(lambda a, r: {"kind": "geometric", "a": a, "r": r},
              st.integers(-1, 3), st.integers(-1, 3)),
    st.builds(lambda h, v: {"kind": "explicit", "head": h,
                            "tail": {"kind": "constant", "value": v}},
              st.lists(_entry, max_size=3), _entry),
    st.builds(lambda lo, hi, seed: {"kind": "iid", "lo": lo, "hi": hi, "seed": seed},
              st.integers(0, 5), st.integers(0, 9), st.integers(0, 9)),
    st.sampled_from([{"kind": "qnex"}, {"kind": "qnex", "first_stage": 2},
                     {"kind": "rdn", "first_stage": 2}, {"kind": "nonsense"},
                     {"value": 3}, [3]]),
).map(json.dumps) | st.just("{not json")
_x = st.sampled_from(["0", "1", "1/2", "7/8", "3/7", "5/3", "-1/3", "abc", "1/0"])
_source = st.one_of(
    _x.map(lambda x: [f"--x={x}"]),
    st.sampled_from(["golden", "iid:0,3,1", "iid:3,0,1", "iid:x", "qnex",
                     "bogus"]).map(lambda s: [f"--source={s}"]),
)


def _opt(name, strategy):
    # one token, so that a value such as -1/3 is never read as an option
    return strategy.map(lambda v: [f"--{name}={v}"])


def _cmd(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


_pq = (_opt("p", _spec), _opt("q", _spec))
_small = st.integers(-1, 40)
_horizon = st.integers(0, 64)
_command = st.one_of(
    _cmd("digits", _opt("base", _spec), _source, _opt("n", _small)),
    _cmd("psi-eval", *_pq, _opt("x", _x), _opt("horizon", _horizon)),
    _cmd("normality", _opt("base", _spec), _source, _opt("k", st.integers(-1, 2)),
         _opt("alphabet", st.integers(0, 3)), _opt("n", _small)),
    _cmd("discrepancy", _opt("base", _spec), _source,
         _opt("mode", st.sampled_from(["digit-ratio", "orbit"])),
         _opt("n", _small), _opt("orbit-depth", st.integers(0, 12))),
    st.tuples(st.sampled_from(["qnex", "rdn", "mff", "nnotdn", "rnnotn",
                               "dnnotrn"]),
              st.one_of(st.just([]), _opt("base", _spec)), _source,
              _opt("n", st.integers(-1, 30)), _opt("stage", st.integers(-1, 5))
              ).map(lambda t: ["construct", t[0], *t[1], *t[2], *t[3], *t[4]]),
    st.tuples(st.sampled_from(["wegmann", "range", "level", "levelsum",
                               "multifractal", "zpq"]),
              *_pq, _opt("sizes", _spec), _opt("w", st.sampled_from(["", "0,1", "x"])),
              _opt("k", st.integers(-1, 3)), _opt("horizon", _horizon)
              ).map(lambda t: ["dimension", t[0]] + [a for p in t[1:] for a in p]),
    _cmd("rationality", *_pq, _opt("horizon", _horizon)),
    _cmd("variation", *_pq, _opt("t", st.integers(-1, 8))),
    _cmd("bv", *_pq, _opt("horizon", _horizon)),
    _cmd("holder", *_pq, _opt("alpha", st.sampled_from(["1/2", "0", "2", "x"])),
         _opt("horizon", _horizon)),
    _cmd("monotone-witness", *_pq, _opt("prefix", st.sampled_from(["", "1", "0,2"])),
         _opt("horizon", _horizon)),
    _cmd("continuity", *_pq, _opt("x", _x), _opt("horizon", _horizon)),
    _cmd("sample", _opt("lo", st.integers(-1, 4)), _opt("hi", st.integers(-1, 9)),
         _opt("seed", st.integers(0, 9)), _opt("n", _small)),
    _cmd("birkhoff", *_pq, _opt("n", _small)),
)


@given(args=_command)
@settings(max_examples=120, deadline=5000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_commands_exit_with_a_documented_code(capsys, args):
    rc, _ = run(capsys, args)
    assert rc in (cli.EXIT_OK, cli.EXIT_SPEC, cli.EXIT_HYPOTHESIS,
                  cli.EXIT_UNDECIDED)
