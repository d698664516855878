#include "netcore/obs/timeseries.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "netcore/error.hpp"
#include "netcore/obs/metrics.hpp"

namespace dynaddr::obs {

namespace {

/// Metric ids index the recorder's own tables; the sign of nothing is
/// overloaded — kind lives in a parallel vector.
enum class Kind : std::uint8_t { Counter, Gauge };

struct Change {
    std::uint32_t id;
    std::int64_t value;  ///< counter delta or gauge level
};

struct Sample {
    double t = 0.0;
    std::vector<Change> changes;
};

}  // namespace

struct SeriesRecorder::Impl {
    mutable std::mutex mutex;
    SeriesConfig config;

    // Metric table: names and kinds by recorder-local id, plus the cached
    // registry index used to read values without re-snapshotting maps.
    std::vector<std::string> names;
    std::vector<Kind> kinds;
    std::unordered_map<std::string, std::uint32_t> id_by_name;
    MetricsIndex index;
    std::uint64_t index_generation = ~std::uint64_t{0};

    // Last seen value per id (counters: last cumulative reading since the
    // delta baseline; gauges: last reported level).
    std::vector<std::int64_t> last_value;
    std::vector<bool> seen;

    // Ring of samples: `ring[(start + i) % ring.size()]` for i < size.
    std::vector<Sample> ring;
    std::size_t start = 0;
    std::size_t size = 0;
    std::uint64_t taken = 0;

    // Wall-clock sampler.
    std::thread wall_thread;
    bool wall_running = false;
    bool wall_stop = false;
    std::condition_variable wall_cv;
    std::mutex wall_mutex;
    std::atomic<int> attached_sims{0};

    std::uint32_t id_for(const std::string& name, Kind kind) {
        if (auto it = id_by_name.find(name); it != id_by_name.end())
            return it->second;
        const auto id = std::uint32_t(names.size());
        names.push_back(name);
        kinds.push_back(kind);
        id_by_name.emplace(name, id);
        last_value.push_back(0);
        seen.push_back(false);
        return id;
    }

    Sample& slot(std::size_t i) { return ring[(start + i) % ring.size()]; }
    const Sample& slot(std::size_t i) const {
        return ring[(start + i) % ring.size()];
    }

    /// Downsampling step: merges the two oldest samples into one so the
    /// ring never exceeds its capacity. Counter deltas sum; for gauges
    /// the later reading wins (earlier ids without a later entry are
    /// carried forward). Cumulative counts are exactly preserved.
    void merge_oldest_pair() {
        Sample& older = slot(0);
        Sample& newer = slot(1);
        std::vector<Change> merged;
        merged.reserve(older.changes.size() + newer.changes.size());
        // Both change lists are sorted by id (built by a sorted scan).
        std::size_t a = 0, b = 0;
        while (a < older.changes.size() || b < newer.changes.size()) {
            if (b >= newer.changes.size() ||
                (a < older.changes.size() &&
                 older.changes[a].id < newer.changes[b].id)) {
                merged.push_back(older.changes[a++]);
            } else if (a >= older.changes.size() ||
                       newer.changes[b].id < older.changes[a].id) {
                merged.push_back(newer.changes[b++]);
            } else {
                Change combined = newer.changes[b];
                if (kinds[combined.id] == Kind::Counter)
                    combined.value += older.changes[a].value;
                merged.push_back(combined);
                ++a;
                ++b;
            }
        }
        newer.changes = std::move(merged);
        older.changes.clear();
        start = (start + 1) % ring.size();
        --size;
    }

    void reset_samples() {
        ring.assign(config.capacity, Sample{});
        start = 0;
        size = 0;
        taken = 0;
        std::fill(seen.begin(), seen.end(), false);
        std::fill(last_value.begin(), last_value.end(), 0);
    }
};

SeriesRecorder& SeriesRecorder::instance() {
    static SeriesRecorder recorder;
    return recorder;
}

SeriesRecorder::Impl& SeriesRecorder::impl() const {
    // Leaked on purpose: destroying a joinable wall-sampler thread at
    // static destruction would call std::terminate, and the stats server
    // may still read samples while the process exits.
    static Impl* impl = new Impl;
    return *impl;
}

void SeriesRecorder::configure(const SeriesConfig& config) {
    Impl& state = impl();
    std::lock_guard lock(state.mutex);
    state.config = config;
    if (state.config.interval_seconds <= 0.0)
        state.config.interval_seconds = 1.0;
    if (state.config.capacity < 2) state.config.capacity = 2;
    state.reset_samples();
}

SeriesConfig SeriesRecorder::config() const {
    Impl& state = impl();
    std::lock_guard lock(state.mutex);
    return state.config;
}

void SeriesRecorder::enable() {
    Impl& state = impl();
    {
        std::lock_guard lock(state.mutex);
        if (state.ring.empty()) state.reset_samples();
        // Delta baseline: the next sample reports changes relative to the
        // registry's state *now*, so series start at zero even though the
        // registry is process-global.
        state.index = metrics_index();
        state.index_generation = metrics_generation();
        for (const auto& [name, metric] : state.index.counters) {
            const auto id = state.id_for(name, Kind::Counter);
            state.last_value[id] = std::int64_t(metric->value());
            state.seen[id] = true;
        }
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void SeriesRecorder::disable() {
    enabled_.store(false, std::memory_order_relaxed);
}

void SeriesRecorder::sample(double when_unix_seconds) {
    if (!enabled()) return;
    Impl& state = impl();
    std::lock_guard lock(state.mutex);
    if (state.ring.empty()) return;

    // Refresh the cached registry index only when a registration happened
    // since the last tick; the common tick touches no maps at all.
    const auto generation = metrics_generation();
    if (generation != state.index_generation) {
        state.index = metrics_index();
        state.index_generation = generation;
    }

    if (state.size == state.ring.size()) state.merge_oldest_pair();
    Sample& sample = state.slot(state.size);
    sample.t = when_unix_seconds;
    sample.changes.clear();

    // The index is name-sorted and ids are assigned in scan order, so a
    // fresh recorder produces id-sorted change lists; ids minted by later
    // registrations can interleave, so sort when needed below.
    // A metric's first observation after enable counts as "changed" only
    // when it is nonzero — metrics registered mid-run at zero would
    // otherwise emit a noise row saying nothing happened.
    for (const auto& [name, metric] : state.index.counters) {
        const auto id = state.id_for(name, Kind::Counter);
        const auto value = std::int64_t(metric->value());
        const auto baseline = state.seen[id] ? state.last_value[id] : 0;
        if (value != baseline) sample.changes.push_back({id, value - baseline});
        state.last_value[id] = value;
        state.seen[id] = true;
    }
    for (const auto& [name, metric] : state.index.gauges) {
        const auto id = state.id_for(name, Kind::Gauge);
        const auto value = metric->value();
        if (value != (state.seen[id] ? state.last_value[id] : 0))
            sample.changes.push_back({id, value});
        state.last_value[id] = value;
        state.seen[id] = true;
    }
    std::sort(sample.changes.begin(), sample.changes.end(),
              [](const Change& a, const Change& b) { return a.id < b.id; });
    ++state.size;
    ++state.taken;
}

void SeriesRecorder::sample_now() {
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    sample(std::chrono::duration<double>(now).count());
}

void SeriesRecorder::sim_attached() {
    impl().attached_sims.fetch_add(1, std::memory_order_relaxed);
}

void SeriesRecorder::sim_detached() {
    impl().attached_sims.fetch_sub(1, std::memory_order_relaxed);
}

bool SeriesRecorder::sim_active() const {
    return impl().attached_sims.load(std::memory_order_relaxed) > 0;
}

void SeriesRecorder::start_wall_sampler() {
    Impl& state = impl();
    std::lock_guard lock(state.wall_mutex);
    if (state.wall_running) return;
    state.wall_running = true;
    state.wall_stop = false;
    state.wall_thread = std::thread([this, &state] {
        std::unique_lock lock(state.wall_mutex);
        while (!state.wall_stop) {
            const double interval = config().interval_seconds;
            state.wall_cv.wait_for(
                lock, std::chrono::duration<double>(interval),
                [&state] { return state.wall_stop; });
            if (state.wall_stop) break;
            // Simulated time owns the cadence while a simulation runs.
            if (!sim_active()) sample_now();
        }
    });
}

void SeriesRecorder::stop_wall_sampler() {
    Impl& state = impl();
    std::thread finished;
    {
        std::lock_guard lock(state.wall_mutex);
        if (!state.wall_running) return;
        state.wall_stop = true;
        state.wall_cv.notify_all();
        finished = std::move(state.wall_thread);
        state.wall_running = false;
    }
    finished.join();
}

void SeriesRecorder::clear() {
    Impl& state = impl();
    std::lock_guard lock(state.mutex);
    state.reset_samples();
}

std::size_t SeriesRecorder::sample_count() const {
    Impl& state = impl();
    std::lock_guard lock(state.mutex);
    return state.size;
}

std::uint64_t SeriesRecorder::samples_taken() const {
    Impl& state = impl();
    std::lock_guard lock(state.mutex);
    return state.taken;
}

std::vector<SeriesRow> SeriesRecorder::rows() const {
    Impl& state = impl();
    std::lock_guard lock(state.mutex);
    std::vector<SeriesRow> rows;
    std::vector<std::int64_t> cumulative(state.names.size(), 0);
    double prev_t = 0.0;
    bool have_prev = false;
    for (std::size_t i = 0; i < state.size; ++i) {
        const Sample& sample = state.slot(i);
        const double interval = have_prev ? sample.t - prev_t
                                          : state.config.interval_seconds;
        for (const Change& change : sample.changes) {
            SeriesRow row;
            row.t = sample.t;
            row.metric = state.names[change.id];
            row.is_counter = state.kinds[change.id] == Kind::Counter;
            row.value = change.value;
            if (row.is_counter) {
                cumulative[change.id] += change.value;
                row.cumulative = cumulative[change.id];
                row.rate = interval > 0.0 ? double(change.value) / interval
                                          : 0.0;
            }
            rows.push_back(std::move(row));
        }
        prev_t = sample.t;
        have_prev = true;
    }
    return rows;
}

namespace {

void write_double(std::ostream& out, double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.6f", value);
    out << buffer;
}

}  // namespace

void SeriesRecorder::write_json(std::ostream& out) const {
    const auto all = rows();
    out << "{\n  \"interval_seconds\": ";
    write_double(out, config().interval_seconds);
    out << ",\n  \"series\": [";
    bool first = true;
    for (const SeriesRow& row : all) {
        out << (first ? "\n    " : ",\n    ");
        first = false;
        out << "{\"t\": ";
        write_double(out, row.t);
        out << ", \"metric\": \"" << row.metric << "\", \"kind\": \""
            << (row.is_counter ? "counter" : "gauge")
            << "\", \"value\": " << row.value;
        if (row.is_counter) {
            out << ", \"cumulative\": " << row.cumulative << ", \"rate\": ";
            write_double(out, row.rate);
        }
        out << "}";
    }
    out << (first ? "" : "\n  ") << "]\n}\n";
}

void SeriesRecorder::write_file(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw Error("cannot open " + path + " for writing");
    write_json(out);
}

}  // namespace dynaddr::obs
