#pragma once

// Span tracing in Chrome trace_event format. Collection is off by
// default; when enabled (CLI --trace-out), RAII ObsSpan records complete
// ("ph":"X") events that chrome://tracing and https://ui.perfetto.dev
// render as a flame graph. Spans on the same thread nest naturally
// because Perfetto stacks overlapping events per tid.
//
//     { obs::ObsSpan span("pipeline.periodicity"); ... }
//
// An optional Histogram target makes a span double as a latency sample
// even when tracing is disabled.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "netcore/obs/metrics.hpp"

namespace dynaddr::obs {

/// True when spans are being collected. One relaxed load.
[[nodiscard]] bool trace_enabled();

/// Turns collection on/off. Enabling resets the trace epoch so
/// timestamps start near zero.
void enable_trace();
void disable_trace();

/// Drops all collected events (does not change enabled state).
void clear_trace();

/// Number of events collected so far.
[[nodiscard]] std::size_t trace_event_count();

/// Writes {"traceEvents": [...], "displayTimeUnit": "ms"} — the Chrome
/// trace_event JSON object form, loadable in Perfetto.
void write_trace_json(std::ostream& out);

/// Records one complete event directly (used by ObsSpan; exposed for
/// instrumentation that cannot use RAII scoping).
void record_complete_event(std::string_view name, std::string_view category,
                           std::uint64_t start_us, std::uint64_t duration_us);

/// Microseconds since the trace epoch (process start or last enable).
[[nodiscard]] std::uint64_t trace_now_us();

/// Crash-path iteration: visits the most recent `max_events` collected
/// events WITHOUT taking the collector mutex and without allocating.
/// Only for the flight recorder's crash dump, where the process is
/// already dying and a torn read beats a deadlock.
void visit_trace_for_crash_dump(
    std::size_t max_events,
    void (*visit)(void* ctx, const char* name, const char* category,
                  std::uint64_t start_us, std::uint64_t duration_us),
    void* ctx);

/// RAII span: measures its scope and, on destruction, records a trace
/// event (when tracing is enabled) and observes the duration into the
/// optional histogram (always).
class ObsSpan {
public:
    explicit ObsSpan(std::string name, std::string category = "dynaddr",
                     Histogram* latency = nullptr)
        : name_(std::move(name)),
          category_(std::move(category)),
          latency_(latency),
          active_(latency != nullptr || trace_enabled()),
          start_us_(active_ ? trace_now_us() : 0) {}

    ObsSpan(const ObsSpan&) = delete;
    ObsSpan& operator=(const ObsSpan&) = delete;

    ~ObsSpan() {
        if (!active_) return;
        const std::uint64_t end_us = trace_now_us();
        const std::uint64_t duration = end_us - start_us_;
        if (latency_ != nullptr) latency_->observe(double(duration) * 1e-6);
        if (trace_enabled())
            record_complete_event(name_, category_, start_us_, duration);
    }

private:
    std::string name_;
    std::string category_;
    Histogram* latency_;
    bool active_;
    std::uint64_t start_us_;
};

}  // namespace dynaddr::obs
