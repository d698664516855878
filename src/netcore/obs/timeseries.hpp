#pragma once

// Time-series recorder: periodically snapshots the metrics registry so a
// run can be *watched*, not just summed up afterwards. The paper's
// phenomena (periodic renumbering modes, hour-of-day synchronization,
// outage bursts) are time-series phenomena, and — following Magnien et
// al.'s observation that sampling cadence changes what dynamics are
// visible — the cadence here is explicit and configurable, never implied.
//
// Cadence semantics:
//   - Inside a `sim::Simulation`, samples are taken every
//     `interval_seconds` of *simulated* time (the Simulation schedules a
//     periodic recorder tick via its event engine when the recorder is
//     enabled at construction time).
//   - Otherwise an optional wall-clock sampler thread ticks every
//     `interval_seconds` of real time. The wall sampler parks itself
//     while any simulation is attached so the two modes never interleave.
//
// Storage is delta-compressed: each sample records only the metrics that
// changed since the previous sample, as (metric-id, delta) for counters
// and (metric-id, value) for gauges. Samples live in a bounded ring; on
// overflow the two oldest samples are merged (counter deltas summed,
// gauges keep the later value) — drop-oldest with downsampling, so old
// history gets coarser but cumulative counts stay exact and memory never
// grows past `capacity` samples.
//
// The recorder is a pure observer: sampling reads relaxed atomics from
// the registry and touches no simulation state, so enabling it cannot
// perturb analysis output (LiveObsDeterminism asserts this).

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dynaddr::obs {

struct SeriesConfig {
    /// Sampling cadence in seconds — simulated seconds when a simulation
    /// is attached, wall-clock seconds otherwise.
    double interval_seconds = 60.0;
    /// Ring capacity in samples (>= 2). Memory bound: capacity samples,
    /// each holding only the metrics that changed in its interval.
    std::size_t capacity = 8192;
};

/// One exported row: a (timestamp, metric) observation. Counters carry
/// the per-interval delta, the cumulative count since the recorder was
/// enabled, and the per-second rate over the interval; gauges carry only
/// their value.
struct SeriesRow {
    double t = 0.0;  ///< unix seconds (simulated or wall, by mode)
    std::string metric;
    bool is_counter = false;
    std::int64_t value = 0;       ///< counter delta / gauge level
    std::int64_t cumulative = 0;  ///< counters only: sum since enable
    double rate = 0.0;            ///< counters only: value / interval
};

class SeriesRecorder {
public:
    /// Process-wide instance (the CLI and the Simulation hook share it).
    static SeriesRecorder& instance();

    /// Replaces the configuration and clears any recorded samples.
    void configure(const SeriesConfig& config);
    [[nodiscard]] SeriesConfig config() const;

    /// Enabled is the master switch: a disabled recorder schedules no
    /// simulation ticks, the wall sampler skips, and sample() is a no-op,
    /// so the disabled cost is zero.
    void enable();
    void disable();
    [[nodiscard]] bool enabled() const {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Takes one snapshot at `when_unix_seconds` (simulated or wall
    /// time). No-op when disabled. Thread-safe.
    void sample(double when_unix_seconds);

    /// Convenience: sample at current wall-clock time (used for the final
    /// flush before export so short runs still produce rows).
    void sample_now();

    /// Simulation attach bookkeeping (sim::Simulation ctor/dtor). While
    /// any simulation is attached the wall sampler stays parked.
    void sim_attached();
    void sim_detached();
    [[nodiscard]] bool sim_active() const;

    /// Starts/stops the wall-clock sampler thread. Idempotent.
    void start_wall_sampler();
    void stop_wall_sampler();

    /// Drops all samples and the delta baseline (config unchanged).
    void clear();

    [[nodiscard]] std::size_t sample_count() const;
    /// Total samples ever taken (survives ring downsampling merges).
    [[nodiscard]] std::uint64_t samples_taken() const;

    /// Expands the delta-compressed ring into rows, oldest first.
    [[nodiscard]] std::vector<SeriesRow> rows() const;

    /// {"interval_seconds": ..., "series": [{...}, ...]} — one object per
    /// (timestamp, metric) row.
    void write_json(std::ostream& out) const;

    /// write_json to `path` (--series-out).
    void write_file(const std::string& path) const;

private:
    SeriesRecorder() = default;
    struct Impl;
    [[nodiscard]] Impl& impl() const;

    std::atomic<bool> enabled_{false};
};

}  // namespace dynaddr::obs
