"""Zero-dependency observability for the RCoal simulator stack.

Four pieces, composable but independently usable:

* :mod:`repro.telemetry.metrics` — counters / gauges / fixed-bucket
  histograms in a :class:`MetricsRegistry` with dict/JSON snapshots;
* :mod:`repro.telemetry.tracer` — a ring-buffered event :class:`Tracer`
  exporting Chrome ``trace_event`` JSON (``chrome://tracing``, Perfetto)
  and JSONL;
* :mod:`repro.telemetry.log` — per-module structured loggers under the
  ``repro`` namespace plus the CLI ``-v`` wiring;
* :mod:`repro.telemetry.progress` — per-sample ETA reporting for
  experiment batches.

The :class:`Telemetry` facade bundles metrics + tracing and is threaded
through ``GPUSimulator`` / ``EncryptionServer`` / ``ExperimentContext``;
the :meth:`Telemetry.disabled` null object is the default everywhere, so
an uninstrumented run pays one boolean check per site and produces
bit-identical results. See ``docs/observability.md`` for the metric
catalogue and trace schema.
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.journal import (RunJournal, events_since,
                                     last_event, read_journal)
from repro.telemetry.log import configure_logging, get_logger
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    stable_json,
)
from repro.telemetry.progress import ProgressBoard, ProgressReporter
from repro.telemetry.profiler import PID_WALL, SpanProfiler
from repro.telemetry.serve import TelemetryServer
from repro.telemetry.tracer import (
    PID_DRAM,
    PID_ICNT,
    PID_SM,
    TraceEvent,
    Tracer,
)

__all__ = [
    "Telemetry",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "Tracer",
    "TraceEvent",
    "PID_SM",
    "PID_ICNT",
    "PID_DRAM",
    "PID_WALL",
    "SpanProfiler",
    "ProgressReporter",
    "ProgressBoard",
    "RunJournal",
    "events_since",
    "last_event",
    "read_journal",
    "TelemetryServer",
    "stable_json",
    "get_logger",
    "configure_logging",
]
