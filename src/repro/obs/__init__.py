"""Observability: run-time metrics, paper-aligned derived quantities,
span tracing (through the causal recorder), snapshot files and text
views (DESIGN.md §13).

The package splits telemetry along the repo's determinism boundary:

* deterministic metrics (pure functions of the seeded simulation) may
  enter byte-identity-checked snapshot files;
* wall-clock telemetry (span durations, pool/watchdog weather) lives in
  the live ``repro top`` view and the stitched Chrome traces only.
"""

from repro.obs.causal import (
    CausalRecorder,
    FlightRecorder,
    TraceContext,
    find_spills,
    flight_note,
    get_causal_recorder,
    get_flight_recorder,
    install_causal_recorder,
    install_flight_recorder,
    mint_trace_id,
    read_spills,
    span_id,
    stitch_records,
    stitch_spills,
    trace_span,
    write_stitched_trace,
)
from repro.obs.paper import (
    merge_paper_metrics,
    paper_metrics,
    publish_paper_metrics,
    tau_histogram_buckets,
)
from repro.obs.registry import (
    TAU_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.snapshot import (
    load_snapshot_jsonl,
    prometheus_exposition,
    write_snapshot_jsonl,
)
from repro.obs.top import TopView, render_metrics_block, render_snapshot_lines

__all__ = [
    "TAU_BUCKETS",
    "CausalRecorder",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TopView",
    "TraceContext",
    "find_spills",
    "flight_note",
    "get_causal_recorder",
    "get_flight_recorder",
    "install_causal_recorder",
    "install_flight_recorder",
    "mint_trace_id",
    "read_spills",
    "span_id",
    "stitch_records",
    "stitch_spills",
    "write_stitched_trace",
    "load_snapshot_jsonl",
    "merge_paper_metrics",
    "paper_metrics",
    "prometheus_exposition",
    "publish_paper_metrics",
    "render_metrics_block",
    "render_snapshot_lines",
    "tau_histogram_buckets",
    "trace_span",
    "write_snapshot_jsonl",
]
