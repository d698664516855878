#pragma once

// Process-wide metrics registry: lock-free counters, gauges and
// fixed-bucket latency histograms, registered by dotted name
// (`subsystem.name`). The hot path is a single relaxed atomic op on a
// cached reference; registration (a mutex + map lookup) happens once per
// call site, typically during static initialization:
//
//     namespace { struct M {
//         obs::Counter& granted = obs::counter("lease.granted");
//     } metrics; }
//     ...
//     metrics.granted.inc();
//
// Snapshots are value copies usable for before/after diffing; JSON
// export orders names lexicographically so output is deterministic.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dynaddr::obs {

/// Monotonic event counter. inc() is one relaxed fetch_add.
class Counter {
public:
    void inc(std::uint64_t n = 1) {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Signed instantaneous value (occupancy, free count, queue depth).
class Gauge {
public:
    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
    [[nodiscard]] std::int64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: `bounds` are ascending upper bounds, with an
/// implicit +inf bucket at the end. observe() is a linear bound scan (the
/// bucket count is small) plus one relaxed add.
class Histogram {
public:
    explicit Histogram(std::vector<double> bounds);

    void observe(double value);

    [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
    [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
        return buckets_[i].load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t count() const {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const;

private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1 slots
    std::atomic<std::uint64_t> count_{0};
    /// Sum as fixed-point nanounits so fetch_add stays integral (portable
    /// lock-free; atomic<double> RMW can fall back to locks).
    std::atomic<std::int64_t> sum_nano_{0};
};

/// Get-or-create registry accessors. References stay valid for the
/// process lifetime. For histogram(), `bounds` is honoured only on first
/// registration of a name.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name, std::vector<double> bounds);

/// Histogram with default latency buckets (1 µs .. 100 s, exponential) —
/// the stage-timing shape every ObsSpan consumer wants.
Histogram& latency_histogram(std::string_view name);

/// Registers a block prefix: counters named `<prefix>.x` are additionally
/// grouped into a top-level `"prefix": {"x": n, ...}` object in the JSON
/// export (e.g. the pipeline's `table2_funnel`).
void metrics_block(std::string_view prefix);

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
    struct HistogramSample {
        std::vector<double> bounds;
        std::vector<std::uint64_t> buckets;
        std::uint64_t count = 0;
        double sum = 0.0;
    };
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramSample> histograms;
};

[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// Name-sorted stable pointers to every registered counter and gauge.
/// Metric objects live for the process lifetime, so a cached index stays
/// valid; re-fetch when metrics_generation() changes. This is the cheap
/// read path the time-series recorder ticks on — no per-tick map copies.
struct MetricsIndex {
    std::vector<std::pair<std::string, const Counter*>> counters;
    std::vector<std::pair<std::string, const Gauge*>> gauges;
};

[[nodiscard]] MetricsIndex metrics_index();

/// Bumped on every counter/gauge/histogram registration.
[[nodiscard]] std::uint64_t metrics_generation();

/// Writes a JSON snapshot to `path` (--metrics-out). Throws Error when
/// the file cannot be opened.
void write_metrics_file(const std::string& path);

/// Crash-path iteration: visits every counter and gauge WITHOUT taking the
/// registry mutex and without allocating (kind is "counter" or "gauge").
/// Only safe when registration has quiesced or the process is already
/// dying — used by the flight recorder's signal-handler dump.
void visit_metrics_for_crash_dump(
    void (*visit)(void* ctx, const char* name, const char* kind,
                  std::int64_t value),
    void* ctx);

/// after − before, per name: counters and histogram counts subtract
/// (names only in `after` keep their value); gauges keep `after`'s value.
[[nodiscard]] MetricsSnapshot metrics_diff(const MetricsSnapshot& after,
                                           const MetricsSnapshot& before);

/// JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...},
/// "<block>": {...} per metrics_block prefix}. Keys sorted.
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot);

/// RAII wall-clock timer: observes elapsed seconds into a histogram.
class ScopedTimer {
public:
    explicit ScopedTimer(Histogram& target)
        : target_(&target), start_(std::chrono::steady_clock::now()) {}
    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;
    ~ScopedTimer() {
        const auto elapsed = std::chrono::steady_clock::now() - start_;
        target_->observe(std::chrono::duration<double>(elapsed).count());
    }

private:
    Histogram* target_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace dynaddr::obs
