#!/usr/bin/env python3
"""cantorkit benchmark: one seeded, single-process, single-thread,
closed-loop workload (one client; each request is sent when the previous
one returns).

    python3 perfbench/run.py --workload point-queries --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ./src.
Rounds of requests run until --seconds have passed; a started round is
always finished, so every run covers whole rounds.  A round is made of
batches of requests.  After a batch has run, its answers are checked in
a forked child process, so the checker's memory stays out of this
process's peak RSS; then the batch is dropped and garbage is collected,
untimed.  The last line
of stdout is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics of perfbench/layers.py with --trace 1.  A traced
run runs each round twice, traced and then untraced, reports the gap
between their request rates as the tracing overhead, and writes its
spans to perfbench/out/.

Times are reported for a reference host on which a fixed pure-Python loop
takes CALIB_REF_MS: the loop is re-timed every RECALIBRATE_S and each
measured time is scaled by CALIB_REF_MS over the mean of the two loop
times around it (see HostClock).  The unscaled
figures are printed as a comment line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("point-queries", "long-streams", "stage-sweeps")
SETUP_PROBES = 4        # fresh interpreters timed besides this process
CALIB_REF_MS = 1.5      # reference host: the calibration loop takes 1.5 ms
RECALIBRATE_S = 0.2     # wall time between calibrations during a run
SETUP_PROBE = ("import sys; sys.dont_write_bytecode = True; sys.path.insert(0, '.'); "
               "from perfbench.run import calibrated_cold_setup; "
               "print(*calibrated_cold_setup({workload!r}, {seed})[1:])")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import mpmath
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__}


def calibration_ms(reps: int = 2) -> float:
    """Fastest of `reps` timings of a fixed loop that builds and reads
    1499 standard-library Fractions; it does not touch the library."""
    best = math.inf
    for _ in range(reps):
        t = time.perf_counter()
        fracs = [Fraction(i, i + 1) for i in range(1, 1500)]
        sum(f.numerator for f in fracs)
        best = min(best, (time.perf_counter() - t) * 1e3)
    return best


class HostClock:
    """Converts measured times to a reference host.

    The speed of a shared host drifts between regimes, by up to 1.5x, over
    seconds to minutes, and library code slows down with it.  So the loop
    is re-timed every RECALIBRATE_S between requests, and once more at the
    end.  A time measured between two loop timings is multiplied by
    CALIB_REF_MS / their mean, so a long request that spans a change of
    regime is scaled by both sides of it.  With the scale of the earlier
    timing alone, the spread of long-streams' ops_per_s over five seeds
    was 0.17.  On a
    2-core Xeon, over eighteen 30 s windows of fixed slices of the three
    workloads, this scaling cut the spread of the windows' median times
    from 0.13/0.15/0.26 (point-queries/long-streams/stage-sweeps) to
    0.06/0.04/0.02; a plain integer loop left 0.04/0.08/0.08.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._at = -math.inf

    def refresh(self, force=False) -> int:
        """Re-time the loop when due; returns the index of the interval
        that starts at the latest timing."""
        if force or time.perf_counter() - self._at >= RECALIBRATE_S:
            self.samples.append(calibration_ms())
            self._at = time.perf_counter()
        return len(self.samples) - 1

    def scales(self) -> list[float]:
        """Scale of each interval: CALIB_REF_MS over the mean of the loop
        times that bound it."""
        c = self.samples
        return [2 * CALIB_REF_MS / (a + b) for a, b in zip(c, c[1:])] + \
            [CALIB_REF_MS / c[-1]]


def cold_setup(workload: str, seed: int):
    """What a fresh process does before its first timed request: import
    the library, generate the seeded inputs and warm up on small ones.
    Returns the workload and the seconds this took."""
    t = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from perfbench.trace import NullTracer
    from perfbench.workloads import MODULES
    wl = MODULES[workload].build(seed)
    null = NullTracer()
    for req in wl.warm:
        try:
            req.call(null)
        except Exception:
            if req.expect_error is None:
                raise
    return wl, time.perf_counter() - t


def calibrated_cold_setup(workload: str, seed: int):
    """(workload, cold_setup seconds, mean of the calibration loop's times
    just before and just after it in the same process)."""
    before = calibration_ms()
    wl, seconds = cold_setup(workload, seed)
    return wl, seconds, (before + calibration_ms()) / 2


def probe_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    """calibrated_cold_setup (seconds, ms) of SETUP_PROBES fresh
    interpreters, one after another."""
    code = SETUP_PROBE.format(workload=workload, seed=seed)
    out = []
    for _ in range(SETUP_PROBES):
        last = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                              text=True, timeout=120, check=True).stdout.split("\n")[-2]
        out.append(tuple(map(float, last.split())))
    return out


def percentile(sorted_vals, pct):
    """Nearest-rank percentile and the number of samples above it."""
    k = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[k - 1], len(sorted_vals) - k


def judge(req, out) -> int:
    """One answer's verdict: bit 0 correct, bit 1 answered exactly."""
    from perfbench.common import exact_numbers
    try:
        ok = bool(req.check(out))
        exact = out.exact if out.exact is not None else exact_numbers(out.value)
    except Exception as e:          # a checker crash is a failed answer
        print(f"perfbench: check of {req.kind} raised {e!r}", file=sys.stderr)
        return 0
    return ok | (ok and exact) << 1


def judge_in_child(pairs) -> list[tuple[bool, bool]]:
    """judge() each (request, outcome) in a forked child that sends back
    one byte per answer.  RUSAGE_SELF does not count children, so the
    independent routes' memory stays out of peak_rss_mb."""
    if not pairs:
        return []
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as f:
                f.write(bytes(judge(req, out) for req, out in pairs))
            status = 0
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or len(data) != len(pairs):
        print("perfbench: checker process failed", file=sys.stderr)
        return [(False, False)] * len(pairs)
    return [(bool(b & 1), bool(b & 2)) for b in data]


def settle(answers, verified: dict) -> list[tuple[bool, bool]]:
    """(correct, exact) for each (request, outcome, error) of a batch.
    A predicted error is checked here; a repeated request is compared with
    the first verified report byte for byte; the rest go to judge_in_child."""
    results = [None] * len(answers)
    todo = []
    for i, (req, out, err) in enumerate(answers):
        if req.expect_error is not None:
            results[i] = (out is None and isinstance(err, req.expect_error), False)
        elif err is not None:
            results[i] = (False, False)
        elif req.key is not None and req.key in verified:
            text, exact = verified[req.key]
            results[i] = (out.text == text, exact)
        else:
            todo.append(i)
    for i, res in zip(todo, judge_in_child([answers[i][:2] for i in todo])):
        req, out, _ = answers[i]
        results[i] = res
        if res[0] and req.key is not None:
            verified[req.key] = (out.text, res[1])
    return results


def hook_from_spec(cli, tracer):
    """Time seqcore.from_spec inside cli.parse_seq as its own span."""
    inner = cli.from_spec

    def from_spec(spec):
        with tracer.span("seqcore.from_spec"):
            return inner(spec)

    cli.from_spec = from_spec
    return inner


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cantorkit", "__init__.py")):
        fail("run from the root of a cantorkit checkout (no src/cantorkit here)")
    load_start = os.getloadavg()
    # numpy's BLAS would start a thread at import; the workloads are
    # single-threaded, and a single-threaded process is safe to fork for
    # checking (set-up probes inherit this)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    clock = HostClock()
    clock.refresh()

    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.dirname(HERE))
    wl, *own_setup = calibrated_cold_setup(args.workload, args.seed)
    import cantorkit
    from cantorkit import cli
    if not os.path.abspath(cantorkit.__file__).startswith(os.path.join(root, "src")):
        fail(f"imported cantorkit from {cantorkit.__file__}, not ./src")
    from perfbench import layers
    from perfbench.trace import NullTracer, Tracer
    setups = [tuple(own_setup)] + probe_setups(args.workload, args.seed)
    setup_times = [s for s, _ in setups]
    setup_raw = statistics.median(setup_times)
    setup_s = statistics.median(s * CALIB_REF_MS / c for s, c in setups)

    null = NullTracer()
    tracer = Tracer() if args.trace else None
    verified: dict = {}
    timed: list[tuple[int, int]] = []      # (ns, calibration interval)
    round_spans = []                       # (traced, first, end) in timed
    attempted = failed = exact = 0
    rounds = 0
    rid = 0
    start = time.perf_counter()
    # a traced run runs each round twice, traced and then untraced, so the
    # tracing overhead compares the same inputs
    modes = (True, False) if args.trace else (False,)
    for batches, traced in ((r, m) for r in wl.rounds() for m in modes):
        tr = tracer if traced else null
        restore = hook_from_spec(cli, tracer) if traced else None
        first_timed = len(timed)
        try:
            for batch in batches:
                answers = []
                for req in batch:
                    rid += 1
                    if traced:
                        tracer.request_id = rid
                    interval = clock.refresh()
                    out = err = None
                    t = time.perf_counter_ns()
                    with tr.span("request"):
                        try:
                            out = req.call(tr)
                        except Exception as e:
                            err = e
                    timed.append((time.perf_counter_ns() - t, interval))
                    answers.append((req, out, err))
                first = rid - len(batch) + 1
                for i, (ok, ex) in enumerate(settle(answers, verified)):
                    attempted += 1
                    exact += ok and ex
                    if not ok:
                        failed += 1
                        req, _, err = answers[i]
                        print(f"perfbench: wrong answer: request {first + i} "
                              f"({req.kind})" + (f" raised {err!r}" if err else ""),
                              file=sys.stderr)
                # drop the checked batch and collect its garbage before the
                # next one, so no batch's memory or collection carries over
                del batch, answers, req, out, err
                gc.collect()
        finally:
            if restore is not None:
                cli.from_spec = restore
        round_spans.append((traced, first_timed, len(timed)))
        rounds += 1
        if time.perf_counter() - start >= args.seconds and not traced:
            break
    wall = time.perf_counter() - start
    clock.refresh(force=True)
    scales = clock.scales()
    lat_ns = [ns * scales[k] for ns, k in timed]     # on the reference host
    round_rates = {True: [], False: []}
    for traced, a, b in round_spans:
        round_rates[traced].append((b - a) / (sum(lat_ns[a:b]) / 1e9))

    lat_ms = sorted(v / 1e6 for v in lat_ns)
    tail, beyond = percentile(lat_ms, wl.tail_pct)
    untraced = round_rates[False]
    e2e = {
        "ops_per_s": (statistics.median(untraced), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "exact_frac": (exact / attempted, "ratio"),
    }
    env = environment()
    env.update(load_start=load_start, load_end=os.getloadavg(),
               calib_ms=[min(clock.samples), statistics.median(clock.samples),
                         max(clock.samples)],
               setup_raw_s=setup_times)

    print(f"# workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{attempted} requests in {wall:.1f} s; unit of work: {wl.unit}")
    print(f"# env {json.dumps(env)}")
    print(f"# fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    raw_ms = sorted(ns / 1e6 for ns, _ in timed)
    print(f"# unscaled: latency p50 {statistics.median(raw_ms):.6g} ms, "
          f"p{wl.tail_pct:g} {percentile(raw_ms, wl.tail_pct)[0]:.6g} ms, "
          f"setup {setup_raw:.6g} s; times are scaled by {CALIB_REF_MS} ms / "
          f"calibration loop (min/median/max {env['calib_ms']})")
    print("# round rates (1/s): " + " ".join(
        f"{r:.4g}{'*' if t else ''}" for t in (False, True) for r in round_rates[t])
        + (" (* traced)" if args.trace else ""))
    print(f"# latency_tail_ms is p{wl.tail_pct:g} over {len(lat_ms)} samples, "
          f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than 10!)"))
    if args.trace:
        scale = CALIB_REF_MS / statistics.median(clock.samples)
        self_s = {k: v * scale for k, v in tracer.self_times().items()}
        calls, errors = tracer.calls_and_errors()
        n_traced = len(round_rates[True])
        metrics = layers.per_layer(self_s, calls, errors, tracer.counters, n_traced)
        traced_rate = statistics.median(round_rates[True])
        untraced_rate = statistics.median(untraced)
        metrics["trace.overhead_frac"] = {"value": 1 - traced_rate / untraced_rate,
                                          "unit": "ratio"}
        metrics["trace.ops_per_s_traced"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.ops_per_s_untraced"] = {"value": untraced_rate, "unit": "1/s"}
        metrics["trace.spans"] = {"value": len(tracer.spans) / n_traced,
                                  "unit": "count/round"}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path, root)}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
