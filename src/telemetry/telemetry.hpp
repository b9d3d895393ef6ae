// telemetry.hpp — umbrella header for the telemetry subsystem: the
// metric registry (counters / gauges / histograms / time series), the
// one event path (emit() into the trace-export log and the always-on
// flight recorder), and the event-loop self-profiler. See
// docs/TELEMETRY.md for naming conventions, event categories, and how to
// view traces in Chrome.
#pragma once

#include "telemetry/event.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profile.hpp"
