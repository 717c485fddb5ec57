"""The benchmark's workloads, by name."""

from . import long_streams, point_queries, stage_sweeps

MODULES = {m.NAME: m for m in (point_queries, long_streams, stage_sweeps)}
