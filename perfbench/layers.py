"""Per-layer metrics of the traced run, and the end-to-end metric each one
should move, on which workload.

Layers are the package's modules.  Spans are opened by the benchmark
around its calls into each layer (see the workload modules); a layer's
`_s` metrics are self times, summed over the spans of one traced round
(unit s/round).  Counts are per traced round too.
"""

from __future__ import annotations

LAYERS = ("cli", "seqcore", "digitstream", "psi", "normstats", "foundry",
          "fracdim")

PQ, LS, SS = "point-queries", "long-streams", "stage-sweeps"

# name, unit, better, (end-to-end metric, workload) it should move
PER_LAYER = [
    ("cli.parse_s", "s/round", "lower", ("latency_p50_ms", PQ)),
    ("cli.emit_s", "s/round", "lower", ("latency_p50_ms", PQ)),
    ("cli.bytes_out", "B/round", "lower", ("latency_p50_ms", SS)),
    ("seqcore.from_spec_s", "s/round", "lower", ("setup_s", PQ)),
    ("seqcore.prefix_products_s", "s/round", "lower", ("ops_per_s", SS)),
    ("seqcore.birkhoff_s", "s/round", "lower", ("ops_per_s", SS)),
    ("digitstream.expand_s", "s/round", "lower", ("ops_per_s", LS)),
    ("digitstream.digits", "count/round", "lower", ("peak_rss_mb", LS)),
    ("digitstream.ns_per_digit", "ns", "lower", ("ops_per_s", LS)),
    ("digitstream.reread_ratio", "ratio", "higher", ("ops_per_s", LS)),
    ("digitstream.canonicalize_s", "s/round", "lower", ("ops_per_s", LS)),
    ("digitstream.shift_s", "s/round", "lower", ("latency_p50_ms", PQ)),
    ("psi.value_s", "s/round", "lower", ("latency_p50_ms", PQ)),
    ("psi.value_exact_ratio", "ratio", "higher", ("exact_frac", PQ)),
    ("psi.continuity_s", "s/round", "lower", ("latency_p50_ms", PQ)),
    ("psi.continuity_decided_ratio", "ratio", "higher", ("exact_frac", PQ)),
    ("psi.approximant_s", "s/round", "lower", ("latency_p50_ms", PQ)),
    ("psi.witness_s", "s/round", "lower", ("latency_tail_ms", PQ)),
    ("psi.map_s", "s/round", "lower", ("ops_per_s", LS)),
    ("psi.variation_formula_s", "s/round", "lower", ("ops_per_s", SS)),
    ("psi.integral_s", "s/round", "lower", ("ops_per_s", SS)),
    ("psi.sample_s", "s/round", "lower", ("latency_tail_ms", SS)),
    ("normstats.block_count_s", "s/round", "lower", ("ops_per_s", LS)),
    ("normstats.positions", "count/round", "lower", ("ops_per_s", LS)),
    ("normstats.normality_s", "s/round", "lower", ("ops_per_s", LS)),
    ("normstats.discrepancy_s", "s/round", "lower", ("latency_tail_ms", LS)),
    ("normstats.points_sorted", "count/round", "lower", ("latency_tail_ms", LS)),
    ("normstats.orbit_s", "s/round", "lower", ("latency_tail_ms", LS)),
    ("normstats.accumulation_s", "s/round", "lower", ("ops_per_s", LS)),
    ("foundry.unrank_s", "s/round", "lower", ("ops_per_s", SS)),
    ("foundry.count_s", "s/round", "lower", ("ops_per_s", SS)),
    ("foundry.index_bits", "bits", "higher", ("ops_per_s", SS)),
    ("foundry.walk_s", "s/round", "lower", ("ops_per_s", SS)),
    ("foundry.stream_s", "s/round", "lower", ("ops_per_s", LS)),
    ("fracdim.dim_ratio_s", "s/round", "lower", ("ops_per_s", SS)),
    ("fracdim.terms", "count/round", "lower", ("ops_per_s", SS)),
    ("fracdim.level_sum_s", "s/round", "lower", ("ops_per_s", SS)),
    ("fracdim.report_s", "s/round", "lower", ("ops_per_s", SS)),
]
for _layer in LAYERS:
    PER_LAYER.append((f"{_layer}.calls", "count/round", "lower", None))
    PER_LAYER.append((f"{_layer}.errors", "count/round", "lower", None))
PER_LAYER += [
    ("trace.overhead_frac", "ratio", "lower", None),
    ("trace.ops_per_s_traced", "1/s", "higher", None),
    ("trace.ops_per_s_untraced", "1/s", "higher", None),
    ("trace.spans", "count/round", "lower", None),
]

# ratio metrics: name -> (numerator, denominator); a name ending in _s is
# a span self time, anything else a counter or a span call count
RATIOS = {
    "digitstream.ns_per_digit": ("digitstream.expand_s", "digitstream.digits"),
    "digitstream.reread_ratio": ("digitstream.digits_read", "digitstream.digits"),
    "psi.value_exact_ratio": ("psi.value_exact", "psi.value"),
    "psi.continuity_decided_ratio": ("psi.continuity_decided", "psi.continuity"),
    "foundry.index_bits": ("foundry.index_bits_sum", "foundry.indices"),
}


def per_layer(self_s: dict, calls: dict, errors: dict, counters: dict,
              rounds: int) -> dict:
    """Per-layer metric values from a traced run's spans and counters."""
    def value(key):
        if key.endswith("_s"):
            return self_s.get(key[:-2], 0.0)
        return counters.get(key, calls.get(key, 0))

    out = {}
    for name, unit, _, _ in PER_LAYER:
        layer, _, what = name.partition(".")
        if layer == "trace":
            continue
        if name in RATIOS:
            num, den = (value(k) for k in RATIOS[name])
            v = num / den if den else 0.0
            if name == "digitstream.ns_per_digit":
                v *= 1e9
        elif what in ("calls", "errors"):
            src = calls if what == "calls" else errors
            v = sum(n for k, n in src.items() if k.startswith(layer + ".")) / rounds
        else:
            v = value(name) / rounds
        out[name] = {"value": v, "unit": unit}
    return out
