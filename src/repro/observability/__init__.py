"""repro.observability — one pane of glass over compile, runtime, serving
and tuning.

Four primitives and four exporters:

* :class:`~repro.observability.tracer.Tracer` — thread-safe span collector
  (no-op when disabled) fed by the pass managers, the compiler driver's
  stage boundaries, the interpreter's microkernel/pack/parallel-loop
  statements, the serving layer and the autotuner; spans can carry flow
  events stitching one request across threads and processes;
* :class:`~repro.observability.context.RequestContext` — the request-scoped
  trace identity minted at the serving front end and propagated through
  batching queues and the shared-memory transport into workers;
* :class:`~repro.observability.metrics.MetricsRegistry` — counters, gauges
  and quantile-accurate histograms with labels, published by the same
  layers, mergeable across processes for fleet-wide aggregation;
* :class:`~repro.observability.flight.FlightRecorder` — an always-on
  bounded ring of recent spans dumped to disk on anomalies (worker death)
  when ``REPRO_FLIGHT_DIR`` is set;
* :mod:`~repro.observability.export` — Chrome trace-event JSON (open in
  ``chrome://tracing`` or Perfetto) plus a flat metrics dump, with schema
  and flow-chain validators CI reuses;
* :mod:`~repro.observability.prometheus` — Prometheus text exposition
  (``metrics_text``) with a minimal format checker;
* :mod:`~repro.observability.report` — "top passes / top ops" text reports
  and the modeled-vs-measured brgemm reconciliation table.

Enable via :func:`enable_tracing`, or set ``REPRO_TRACE=trace.json`` to
collect for a whole process and write the trace at exit.
"""

from .context import RequestContext
from .export import (
    chrome_trace,
    chrome_trace_events,
    flow_chains,
    metrics_json,
    validate_chrome_trace,
    validate_chrome_trace_file,
    validate_flow_chains,
    write_chrome_trace,
)
from .flight import (
    FLIGHT_DIR_ENV,
    FlightRecorder,
    dump_flight,
    flight_dir,
    get_flight_recorder,
    set_flight_recorder,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_metric_records,
    set_registry,
)
from .prometheus import (
    metrics_text,
    render_metric_records,
    validate_exposition_text,
)
from .quantile import QuantileHistogram
from .report import (
    format_brgemm_reconciliation,
    format_metrics,
    format_report,
    format_table,
    format_top_spans,
)
from .tracer import (
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "Counter",
    "FLIGHT_DIR_ENV",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QuantileHistogram",
    "RequestContext",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "chrome_trace_events",
    "disable_tracing",
    "dump_flight",
    "enable_tracing",
    "flight_dir",
    "flow_chains",
    "format_brgemm_reconciliation",
    "format_metrics",
    "format_report",
    "format_table",
    "format_top_spans",
    "get_flight_recorder",
    "get_registry",
    "get_tracer",
    "merge_metric_records",
    "metrics_json",
    "metrics_text",
    "render_metric_records",
    "set_flight_recorder",
    "set_registry",
    "set_tracer",
    "span",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "validate_exposition_text",
    "validate_flow_chains",
    "write_chrome_trace",
]
