#pragma once

// Per-layer self time of one traced benchmark iteration.
//
// Input: the Chrome trace events of the iteration (the benchmark's own
// `bench.*` spans, which share one category per iteration, plus the
// program's existing `scenario.*`, `pipeline.*` and `datasets.*` spans), and
// the time the benchmark measured inside its forwarding callbacks (the
// DAB2 sink and the bundle stream handler), which are too frequent to be
// spans. Output: seconds per layer metric whose sum plus `residual_s` is
// the iteration's wall time exactly.
//
// A span's self time is its duration minus the durations of its direct
// children. Program spans that cross a benchmark span boundary (the
// streaming pipeline's `pipeline.run`, open in open() and closed in
// finish()) are dropped; the benchmark spans around those calls carry
// that time instead.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One complete ("ph":"X") event as obs::write_trace_json writes it.
struct TraceEvent {
    std::string name;
    std::string category;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0;
    int tid = 0;
};

/// Parses obs::write_trace_json output. Throws std::runtime_error on
/// malformed input.
std::vector<TraceEvent> parse_trace(std::string_view json);

/// Nanoseconds spent inside forwarding callbacks during one iteration.
struct CallbackTime {
    /// Sink calls, bucketed by their start instant on the trace clock:
    /// bucket i covers [origin_us + i*bucket_us, origin_us + (i+1)*bucket_us).
    /// Each bucket's time is charged to the innermost span containing the
    /// bucket's midpoint (scenario.sim_run for the live tee, scenario.emit
    /// for the scrape-time records); boundary buckets misplace at most
    /// bucket_us of sink time.
    std::uint64_t origin_us = 0;
    std::uint64_t bucket_us = 100;
    std::vector<std::uint64_t> sink_ns;
    /// Total time inside BundleStreamHandler callbacks (pipeline feeding,
    /// including the finalize batches seal_through triggers).
    std::uint64_t handler_ns = 0;
};

struct LayerSplit {
    std::map<std::string, double> self_s;  ///< every layer_metric_names() key
    double e2e_s = 0;       ///< duration of the iteration's root span
    double residual_s = 0;  ///< e2e_s minus the sum of self_s
    /// Names of spans no layer claims; their self time is in residual_s.
    std::vector<std::string> unmapped;
};

/// The layer metrics split_layers fills, in report order.
const std::vector<std::string>& layer_metric_names();

/// Splits the iteration whose benchmark spans carry `iteration_category`.
/// Throws std::runtime_error when the root span `bench.iteration` is
/// missing.
LayerSplit split_layers(const std::vector<TraceEvent>& events,
                        const std::string& iteration_category,
                        const CallbackTime& callbacks);

}  // namespace perfbench
