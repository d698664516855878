#include "netcore/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <fstream>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <unordered_map>

#include "netcore/error.hpp"

namespace dynaddr::obs {

namespace {

/// Registry of all metrics. Deques give stable addresses; the maps index
/// them by name. Constructed on first use and deliberately leaked: crash
/// dumps, exit hooks, and the stats server thread may all read metrics
/// during static destruction, when a destroyed registry would be a
/// use-after-free.
struct MetricsRegistry {
    static MetricsRegistry& instance() {
        static MetricsRegistry* registry = new MetricsRegistry;
        return *registry;
    }

    std::mutex mutex;
    std::deque<Counter> counters;
    std::deque<Gauge> gauges;
    std::deque<Histogram> histograms;
    std::unordered_map<std::string, Counter*> counters_by_name;
    std::unordered_map<std::string, Gauge*> gauges_by_name;
    std::unordered_map<std::string, Histogram*> histograms_by_name;
    std::set<std::string> blocks;
    /// Bumped (relaxed) on every registration so index caches can detect
    /// staleness without taking the mutex.
    std::atomic<std::uint64_t> generation{0};
};

/// Numbers must round-trip and stay valid JSON (no inf/nan literals).
void write_json_number(std::ostream& out, double value) {
    if (!std::isfinite(value)) {
        out << (value > 0 ? "1e308" : (value < 0 ? "-1e308" : "0"));
        return;
    }
    std::ostringstream text;
    text.precision(17);
    text << value;
    out << std::move(text).str();
}

void write_json_string(std::ostream& out, std::string_view s) {
    out << '"';
    for (char c : s) {
        switch (c) {
            case '"': out << "\\\""; break;
            case '\\': out << "\\\\"; break;
            case '\n': out << "\\n"; break;
            case '\t': out << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out << buf;
                } else {
                    out << c;
                }
        }
    }
    out << '"';
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    std::sort(bounds_.begin(), bounds_.end());
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        buckets_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double value) {
    std::size_t i = 0;
    while (i < bounds_.size() && value > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_nano_.fetch_add(std::llround(value * 1e9), std::memory_order_relaxed);
}

double Histogram::sum() const {
    return double(sum_nano_.load(std::memory_order_relaxed)) * 1e-9;
}

Counter& counter(std::string_view name) {
    MetricsRegistry& registry = MetricsRegistry::instance();
    std::lock_guard lock(registry.mutex);
    std::string key(name);
    if (auto it = registry.counters_by_name.find(key);
        it != registry.counters_by_name.end())
        return *it->second;
    registry.counters.emplace_back();
    Counter& metric = registry.counters.back();
    registry.counters_by_name.emplace(std::move(key), &metric);
    registry.generation.fetch_add(1, std::memory_order_relaxed);
    return metric;
}

Gauge& gauge(std::string_view name) {
    MetricsRegistry& registry = MetricsRegistry::instance();
    std::lock_guard lock(registry.mutex);
    std::string key(name);
    if (auto it = registry.gauges_by_name.find(key);
        it != registry.gauges_by_name.end())
        return *it->second;
    registry.gauges.emplace_back();
    Gauge& metric = registry.gauges.back();
    registry.gauges_by_name.emplace(std::move(key), &metric);
    registry.generation.fetch_add(1, std::memory_order_relaxed);
    return metric;
}

Histogram& histogram(std::string_view name, std::vector<double> bounds) {
    MetricsRegistry& registry = MetricsRegistry::instance();
    std::lock_guard lock(registry.mutex);
    std::string key(name);
    if (auto it = registry.histograms_by_name.find(key);
        it != registry.histograms_by_name.end())
        return *it->second;
    registry.histograms.emplace_back(std::move(bounds));
    Histogram& metric = registry.histograms.back();
    registry.histograms_by_name.emplace(std::move(key), &metric);
    registry.generation.fetch_add(1, std::memory_order_relaxed);
    return metric;
}

Histogram& latency_histogram(std::string_view name) {
    // 1 µs .. 100 s in decades with a 1-3 split: enough resolution for
    // stage timings without per-histogram tuning.
    static const std::vector<double> kLatencyBounds = {
        1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
        1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,  10.0, 30.0, 100.0};
    return histogram(name, kLatencyBounds);
}

void metrics_block(std::string_view prefix) {
    MetricsRegistry& registry = MetricsRegistry::instance();
    std::lock_guard lock(registry.mutex);
    registry.blocks.emplace(prefix);
}

MetricsSnapshot metrics_snapshot() {
    MetricsRegistry& registry = MetricsRegistry::instance();
    std::lock_guard lock(registry.mutex);
    MetricsSnapshot snapshot;
    for (const auto& [name, metric] : registry.counters_by_name)
        snapshot.counters.emplace(name, metric->value());
    for (const auto& [name, metric] : registry.gauges_by_name)
        snapshot.gauges.emplace(name, metric->value());
    for (const auto& [name, metric] : registry.histograms_by_name) {
        MetricsSnapshot::HistogramSample sample;
        sample.bounds = metric->bounds();
        sample.buckets.resize(sample.bounds.size() + 1);
        for (std::size_t i = 0; i < sample.buckets.size(); ++i)
            sample.buckets[i] = metric->bucket_count(i);
        sample.count = metric->count();
        sample.sum = metric->sum();
        snapshot.histograms.emplace(name, std::move(sample));
    }
    return snapshot;
}

MetricsIndex metrics_index() {
    MetricsRegistry& registry = MetricsRegistry::instance();
    std::lock_guard lock(registry.mutex);
    MetricsIndex index;
    index.counters.reserve(registry.counters_by_name.size());
    for (const auto& [name, metric] : registry.counters_by_name)
        index.counters.emplace_back(name, metric);
    index.gauges.reserve(registry.gauges_by_name.size());
    for (const auto& [name, metric] : registry.gauges_by_name)
        index.gauges.emplace_back(name, metric);
    std::sort(index.counters.begin(), index.counters.end());
    std::sort(index.gauges.begin(), index.gauges.end());
    return index;
}

std::uint64_t metrics_generation() {
    return MetricsRegistry::instance().generation.load(
        std::memory_order_relaxed);
}

void visit_metrics_for_crash_dump(
    void (*visit)(void* ctx, const char* name, const char* kind,
                  std::int64_t value),
    void* ctx) {
    // Deliberately lock-free: a crashed thread may hold the registry
    // mutex. Registration is static-init-heavy and rare afterwards, so
    // walking the maps read-only is a tolerable risk on the way down.
    MetricsRegistry& registry = MetricsRegistry::instance();
    for (const auto& [name, metric] : registry.counters_by_name)
        visit(ctx, name.c_str(), "counter", std::int64_t(metric->value()));
    for (const auto& [name, metric] : registry.gauges_by_name)
        visit(ctx, name.c_str(), "gauge", metric->value());
}

MetricsSnapshot metrics_diff(const MetricsSnapshot& after,
                             const MetricsSnapshot& before) {
    MetricsSnapshot diff;
    for (const auto& [name, value] : after.counters) {
        auto it = before.counters.find(name);
        diff.counters.emplace(
            name, it == before.counters.end() ? value : value - it->second);
    }
    diff.gauges = after.gauges;
    for (const auto& [name, sample] : after.histograms) {
        auto it = before.histograms.find(name);
        if (it == before.histograms.end() ||
            it->second.bounds != sample.bounds) {
            diff.histograms.emplace(name, sample);
            continue;
        }
        MetricsSnapshot::HistogramSample delta = sample;
        delta.count -= it->second.count;
        delta.sum -= it->second.sum;
        for (std::size_t i = 0; i < delta.buckets.size(); ++i)
            delta.buckets[i] -= it->second.buckets[i];
        diff.histograms.emplace(name, std::move(delta));
    }
    return diff;
}

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot) {
    std::set<std::string> blocks;
    {
        MetricsRegistry& registry = MetricsRegistry::instance();
        std::lock_guard lock(registry.mutex);
        blocks = registry.blocks;
    }
    out << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : snapshot.counters) {
        out << (first ? "\n    " : ",\n    ");
        first = false;
        write_json_string(out, name);
        out << ": " << value;
    }
    out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto& [name, value] : snapshot.gauges) {
        out << (first ? "\n    " : ",\n    ");
        first = false;
        write_json_string(out, name);
        out << ": " << value;
    }
    out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto& [name, sample] : snapshot.histograms) {
        out << (first ? "\n    " : ",\n    ");
        first = false;
        write_json_string(out, name);
        out << ": {\"count\": " << sample.count << ", \"sum\": ";
        write_json_number(out, sample.sum);
        out << ", \"bounds\": [";
        for (std::size_t i = 0; i < sample.bounds.size(); ++i) {
            if (i) out << ", ";
            write_json_number(out, sample.bounds[i]);
        }
        out << "], \"buckets\": [";
        for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
            if (i) out << ", ";
            out << sample.buckets[i];
        }
        out << "]}";
    }
    out << (first ? "" : "\n  ") << "}";
    // Registered blocks re-export their counters as a named top-level
    // object, e.g. table2_funnel.analyzable -> "table2_funnel": {...}.
    for (const auto& block : blocks) {
        const std::string prefix = block + '.';
        out << ",\n  ";
        write_json_string(out, block);
        out << ": {";
        first = true;
        for (const auto& [name, value] : snapshot.counters) {
            if (name.rfind(prefix, 0) != 0) continue;
            out << (first ? "\n    " : ",\n    ");
            first = false;
            write_json_string(out, name.substr(prefix.size()));
            out << ": " << value;
        }
        out << (first ? "" : "\n  ") << "}";
    }
    out << "\n}\n";
}

void write_metrics_file(const std::string& path) {
    std::ofstream out(path);
    if (!out) throw Error("cannot open " + path + " for writing");
    write_metrics_json(out, metrics_snapshot());
}

}  // namespace dynaddr::obs
