"""Telemetry: time series, the sampling loop, and SLA accounting.

The :class:`ClusterSampler` is the simulation's measurement heartbeat — it
re-samples every VM's demand each epoch, pushes utilization into the host
power machines, and accumulates the series and integrals every experiment
reads (power, capacity, shortfall, host counts).
"""

from repro.telemetry.timeseries import SampleFrame, TimeSeries
from repro.telemetry.sampler import ClusterSampler
from repro.telemetry.metrics import SimReport, build_report
from repro.telemetry.trace import (
    TRACE_SCHEMA_VERSION,
    TraceBuffer,
    TraceError,
    TraceLog,
    parse_trace,
    read_trace,
)
from repro.telemetry.validate import (
    TraceValidationReport,
    Violation,
    validate_trace,
)
from repro.telemetry.view import Channel, ClusterView, StalenessModel
from repro.trace_events import TraceEvent

__all__ = [
    "Channel",
    "ClusterSampler",
    "ClusterView",
    "SampleFrame",
    "SimReport",
    "StalenessModel",
    "TimeSeries",
    "TRACE_SCHEMA_VERSION",
    "TraceBuffer",
    "TraceError",
    "TraceEvent",
    "TraceLog",
    "TraceValidationReport",
    "Violation",
    "build_report",
    "parse_trace",
    "read_trace",
    "validate_trace",
]
