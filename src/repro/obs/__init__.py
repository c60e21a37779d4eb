"""Unified observability layer: tracing, metrics, run logs and progress.

Four pieces, one import point:

* :mod:`repro.obs.trace` — hierarchical span tracer (:func:`trace_span`),
  ~ns no-op while disabled, spans cross process boundaries via a
  picklable :class:`TraceContext`.
* :mod:`repro.obs.metrics` — one :class:`MetricsRegistry`
  (counters/gauges/histograms with labels) absorbing the legacy
  ``SolverStats``/``CacheStats``/retry/degradation records behind a
  single ``snapshot()`` schema.
* :mod:`repro.obs.runlog` — fingerprint-stamped JSONL run logs plus the
  Chrome trace-event (Perfetto) exporter in :mod:`repro.obs.export`.
* :mod:`repro.obs.campaign` — runner observers: structured run-log
  recording and the live progress line.

:func:`configure_logging` / :func:`get_logger` put the whole tree's
diagnostics under the ``repro.`` logger namespace.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".campaign": ("CampaignObserver", "CompositeObserver", "ProgressReporter",
                  "RunLogRecorder"),
    ".export": ("export_chrome_trace", "runlog_to_chrome_trace",
                "spans_to_trace_events", "validate_trace_events"),
    ".logs": ("ROOT_LOGGER_NAME", "configure_logging", "get_logger"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                 "registry"),
    ".runlog": ("EVENT_KINDS", "RUNLOG_FORMAT_VERSION", "RunLogWriter",
                "read_run_log", "runlog_path_for", "validate_run_log"),
    ".trace": ("SpanRecord", "TraceContext", "Tracer", "collect_spans",
               "current_context", "span_aggregates", "trace_span", "tracer"),
})
