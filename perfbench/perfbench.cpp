// perfbench: the end-to-end simulate -> analyze benchmark, with a
// per-layer split. perfbench/run.py drives it; README.md there explains
// the workloads, the metrics and what each layer metric should move.
//
//   perfbench setup    --workload W [--seed S] --dir D
//       Simulates each of the run's scenarios once in memory and writes its
//       reference digest (batch AnalysisPipeline::run over the in-memory
//       bundle) under D. reanalyze-paper also writes the DAB2 bundle and
//       the IP-to-AS context its timed iterations read.
//   perfbench measure  --workload W [--seed S] --dir D --seconds N --trace 0|1
//       Repeats rounds of one timed iteration per scenario for N seconds,
//       checks each against its reference and prints one JSON line:
//       end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//   perfbench selftest --dir D
//       Checks that the results digest agrees between the batch and the
//       streaming paths on the quick preset, and that it notices a change.
//   perfbench metrics
//       Lists every metric `measure` can print, with its unit.
//
// Without --seed a workload keeps its preset's own seed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>

#include "atlas/binary_bundle.hpp"
#include "core/attribution_audit.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/streaming_pipeline.hpp"
#include "isp/presets.hpp"
#include "isp/world.hpp"
#include "layer_split.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/trace.hpp"
#include "sim/cause_ledger.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace dynaddr;
using Clock = std::chrono::steady_clock;

// Scenarios per run. A run cycles its iterations over this many scenario
// seeds derived from --seed: simulation and analysis cost move by tens of
// percent from one seed to the next, so one run describes a small
// population of scenarios rather than a single draw. Every run times at
// least one iteration of each.
constexpr std::size_t kScenarios = 4;
constexpr double kMiB = 1024.0 * 1024.0;

// -- metrics -----------------------------------------------------------------

struct MetricSpec {
    const char* name;
    const char* unit;
};

// What `measure --trace 0` prints; run.py adds setup_s.
constexpr MetricSpec kEndToEnd[] = {
    {"e2e_s", "s"},
    {"sim_cpe_days_per_s", "cpe-day/s"},
    {"analyze_records_per_s", "records/s"},
    {"peak_rss_mib", "MiB"},
    {"bundle_bytes_per_record", "bytes/record"},
    {"accuracy.periodic_recall", "ratio"},
    {"accuracy.network_recall", "ratio"},
    {"accuracy.power_recall", "ratio"},
    {"accuracy.unknown_residual", "ratio"},
};

// What `measure --trace 1` prints besides layer_metric_names() (unit s).
constexpr MetricSpec kPerLayerExtra[] = {
    {"residual_s", "s"},
    {"traced_e2e_s", "s"},
    {"trace_overhead_s", "s"},
    {"sim.events_fired", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.wheel.cascaded", "count"},
    {"sim.wheel.overflow", "count"},
    {"sim.ledger_records", "count"},
    {"dhcp.messages", "count"},
    {"ppp.dials", "count"},
    {"pool.allocations", "count"},
    {"lease.granted", "count"},
    {"atlas.records_written", "count"},
    {"atlas.bundle_bytes", "bytes"},
    {"core.changes_extracted", "count"},
    {"core.probes_analyzable", "count"},
    {"core.peak_buffered_records", "count"},
    {"par.offload_ratio", "ratio"},
    {"par.shards_executed", "count"},
    {"mem.accounted_mib", "MiB"},
    {"mem.residual_mib", "MiB"},
    {"mem.rss_mib", "MiB"},
    {"mem.peak_rss_mib", "MiB"},
    {"check.batch_teed_power_outages", "count"},
    {"check.streaming_power_outages", "count"},
};

const char* unit_of(const std::string& name) {
    for (const auto& spec : kEndToEnd)
        if (name == spec.name) return spec.unit;
    for (const auto& spec : kPerLayerExtra)
        if (name == spec.name) return spec.unit;
    for (const auto& layer : layer_metric_names())
        if (name == layer) return "s";
    throw std::logic_error("metric without a unit: " + name);
}

/// The one JSON line run.py reads.
class Report {
public:
    void add(const std::string& name, double value) {
        if (!std::isfinite(value)) throw std::runtime_error(name + " is not a finite number");
        metrics_.emplace_back(name, value);
    }

    void print(bool correct, std::size_t attempted, std::size_t failed) const {
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                    correct ? "true" : "false", attempted, failed);
        const char* separator = "";
        for (const auto& [name, value] : metrics_) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator,
                        name.c_str(), value, unit_of(name));
            separator = ", ";
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }

private:
    std::vector<std::pair<std::string, double>> metrics_;
};


double mean(const std::vector<double>& values) {
    if (values.empty()) return 0;
    double sum = 0;
    for (const double v : values) sum += v;
    return sum / double(values.size());
}

double median(std::vector<double> values) {
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Starts a fresh peak-RSS mark for the next iteration. Freed heap goes
/// back to the kernel first, or the mark would start at whatever earlier
/// iterations left in the allocator's cache.
void reset_peak_rss() {
    ::malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    if (!clear.flush()) throw std::runtime_error("cannot reset the peak RSS mark");
}

/// VmHWM: the peak RSS since the last reset_peak_rss(). getrusage() is no
/// use here: it also remembers the peak of exited worker threads.
double peak_rss_mib_since_reset() {
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;  // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

// -- workloads ---------------------------------------------------------------

enum class Workload { Ladder34, Ladder334, YearOutage, ReanalyzePaper };

Workload parse_workload(const std::string& name) {
    if (name == "ladder-34") return Workload::Ladder34;
    if (name == "ladder-334") return Workload::Ladder334;
    if (name == "year-outage") return Workload::YearOutage;
    if (name == "reanalyze-paper") return Workload::ReanalyzePaper;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

isp::ScenarioConfig preset_for(Workload workload) {
    switch (workload) {
        case Workload::Ladder34:
            return isp::presets::scaled_scenario(isp::presets::quick_scenario(), 34);
        case Workload::Ladder334:
            return isp::presets::scaled_scenario(isp::presets::quick_scenario(), 334);
        case Workload::YearOutage:
            return isp::presets::outage_scenario();
        case Workload::ReanalyzePaper:
            break;
    }
    return isp::presets::paper_scenario();
}

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// The run's kScenarios scenarios: the workload's preset under `seed` (the
/// preset's own seed when absent), then under seeds derived from it.
std::vector<isp::ScenarioConfig> scenarios_for(Workload workload,
                                               std::optional<std::uint64_t> seed) {
    std::vector<isp::ScenarioConfig> configs(kScenarios, preset_for(workload));
    const std::uint64_t base = seed.value_or(configs.front().seed);
    for (std::size_t k = 0; k < configs.size(); ++k)
        configs[k].seed = k == 0 ? base : splitmix64(base + k);
    return configs;
}

fs::path scenario_dir(const fs::path& work, std::size_t k) {
    return work / ("scenario_" + std::to_string(k));
}

core::PipelineConfig pipeline_config(std::size_t threads) {
    core::PipelineConfig config;
    config.threads = threads;
    return config;
}

/// Subscriber-days the scenario simulated (special probes have no CPE).
double cpe_days(const isp::ScenarioResult& scenario, const isp::ScenarioConfig& config) {
    std::size_t cpes = 0;
    for (const auto& truth : scenario.truths) cpes += truth.special ? 0 : 1;
    return double(cpes) * double((config.window.end - config.window.begin).count()) /
           86400.0;
}

// -- results digest ----------------------------------------------------------

/// What one analysis produced: a digest of the public report renderings
/// plus the result counts.
struct ResultSummary {
    std::uint64_t digest = 0;
    std::uint64_t changes = 0;
    std::uint64_t analyzable = 0;
    std::uint64_t network_outages = 0;
    std::uint64_t power_outages = 0;

    friend bool operator==(const ResultSummary&, const ResultSummary&) = default;
};

std::uint64_t fnv1a(std::string_view text) {
    std::uint64_t hash = 1469598103934665603ULL;
    for (const char c : text) {
        hash ^= std::uint8_t(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

template <typename Map>
std::uint64_t count_entries(const Map& by_probe) {
    std::uint64_t n = 0;
    for (const auto& [probe, list] : by_probe) n += list.size();
    return n;
}

ResultSummary summarize(const core::AnalysisResults& results) {
    ResultSummary summary;
    for (const auto& probe : results.changes) summary.changes += probe.changes.size();
    summary.analyzable =
        std::uint64_t(results.filter.count(core::ProbeCategory::Analyzable));
    summary.network_outages = count_entries(results.network_outages);
    summary.power_outages = count_entries(results.power_outages);
    std::ostringstream text;
    text << core::render_summary(results) << core::render_table2(results.filter)
         << core::render_table5(results.periodicity) << core::render_table6(results.cond_prob)
         << core::render_table7(results.prefix_changes)
         << core::render_firmware_series(results.firmware, results.window)
         << summary.changes << ' ' << summary.analyzable << ' ' << summary.network_outages
         << ' ' << summary.power_outages << ' ' << results.admin_events.size();
    summary.digest = fnv1a(text.str());
    return summary;
}

void write_reference(const fs::path& path, const ResultSummary& s) {
    std::ofstream out(path);
    out << s.digest << ' ' << s.changes << ' ' << s.analyzable << ' ' << s.network_outages
        << ' ' << s.power_outages << '\n';
    if (!out) throw std::runtime_error("cannot write " + path.string());
}

ResultSummary read_reference(const fs::path& path) {
    std::ifstream in(path);
    ResultSummary s;
    if (!(in >> s.digest >> s.changes >> s.analyzable >> s.network_outages >>
          s.power_outages))
        throw std::runtime_error("no reference at " + path.string() +
                                 " (run `perfbench setup` first)");
    return s;
}

// -- IP-to-AS context files (reanalyze-paper) --------------------------------

struct Context {
    bgp::PrefixTable table;
    bgp::AsRegistry registry;
};

void write_context(const fs::path& dir, const bgp::PrefixTable& table,
                   const bgp::AsRegistry& registry) {
    fs::create_directories(dir);
    for (const bgp::MonthKey month : table.snapshot_months()) {
        std::ofstream out(dir / ("pfx2as_" + std::to_string(month) + ".txt"));
        table.dump_pfx2as(out, month);
    }
    std::ofstream out(dir / "registry.tsv");
    for (const auto& info : registry.all())
        out << info.asn << '\t' << info.name << '\t' << info.country_code << '\t'
            << int(info.continent) << '\n';
    if (!out) throw std::runtime_error("cannot write context to " + dir.string());
}

void load_context(const fs::path& dir, Context& context) {
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string stem = entry.path().stem().string();
        if (!stem.starts_with("pfx2as_")) continue;
        std::ifstream in(entry.path());
        context.table.load_pfx2as(in, std::stoll(stem.substr(7)));
    }
    std::ifstream in(dir / "registry.tsv");
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string asn, name, country, continent;
        std::getline(fields, asn, '\t');
        std::getline(fields, name, '\t');
        std::getline(fields, country, '\t');
        std::getline(fields, continent, '\t');
        context.registry.add({std::uint32_t(std::stoul(asn)), name, country,
                              bgp::Continent(std::stoi(continent))});
    }
    if (context.table.snapshot_count() == 0 || context.registry.size() == 0)
        throw std::runtime_error("empty IP-to-AS context in " + dir.string());
}

std::uint64_t directory_bytes(const fs::path& dir) {
    std::uint64_t bytes = 0;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.is_regular_file()) bytes += entry.file_size();
    return bytes;
}

// -- timing helpers ----------------------------------------------------------

/// A benchmark span around one call into a layer: always timed into
/// `into[name]`, and recorded as a trace event whose category is the
/// iteration id while tracing is on.
class Phase {
public:
    Phase(const char* name, const std::string& category, std::map<std::string, double>& into)
        : name_(name),
          category_(category),
          into_(into),
          start_(Clock::now()),
          start_us_(obs::trace_now_us()) {}
    ~Phase() {
        const std::uint64_t end_us = obs::trace_now_us();
        into_[name_] += seconds_since(start_);
        if (obs::trace_enabled())
            obs::record_complete_event(name_, category_, start_us_, end_us - start_us_);
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

private:
    const char* name_;
    const std::string& category_;
    std::map<std::string, double>& into_;
    Clock::time_point start_;
    std::uint64_t start_us_;
};

/// Time spent inside forwarding callbacks; off (one branch per call) in
/// untraced iterations. Construct after obs::enable_trace(), which resets
/// the trace clock the sink buckets are keyed on.
class CallTimer {
public:
    CallTimer(bool enabled, bool bucketed) : enabled_(enabled), bucketed_(bucketed) {
        if (enabled_) {
            origin_ = Clock::now();
            times_.origin_us = obs::trace_now_us();
        }
    }

    class Scope {
    public:
        explicit Scope(CallTimer& timer)
            : timer_(timer), start_(timer.enabled_ ? Clock::now() : Clock::time_point{}) {}
        ~Scope() {
            if (timer_.enabled_) timer_.add(start_, Clock::now());
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        CallTimer& timer_;
        Clock::time_point start_;
    };

    [[nodiscard]] const CallbackTime& times() const { return times_; }

private:
    void add(Clock::time_point start, Clock::time_point end) {
        const auto ns = std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
        if (!bucketed_) {
            times_.handler_ns += ns;
            return;
        }
        const auto offset_us =
            std::chrono::duration_cast<std::chrono::microseconds>(start - origin_).count();
        const std::size_t bucket = std::size_t(offset_us) / times_.bucket_us;
        if (bucket >= times_.sink_ns.size()) times_.sink_ns.resize(bucket + 1, 0);
        times_.sink_ns[bucket] += ns;
    }

    bool enabled_;
    bool bucketed_;
    Clock::time_point origin_{};
    CallbackTime times_;
};

/// The simulator's DAB2 tee, forwarded to the real writer and counted.
class TimedSink final : public atlas::BundleSink {
public:
    TimedSink(atlas::BundleSink& inner, CallTimer& timer) : inner_(inner), timer_(timer) {}

    void add_connection(const atlas::ConnectionLogEntry& entry) override {
        CallTimer::Scope scope(timer_);
        inner_.add_connection(entry);
        ++analyzed_records;
    }
    void add_kroot(const atlas::KRootPingRecord& record) override {
        CallTimer::Scope scope(timer_);
        inner_.add_kroot(record);
        ++analyzed_records;
    }
    void add_uptime(const atlas::UptimeRecord& record) override {
        CallTimer::Scope scope(timer_);
        inner_.add_uptime(record);
        ++analyzed_records;
    }
    void add_probe(const atlas::ProbeMetadata& meta) override {
        CallTimer::Scope scope(timer_);
        inner_.add_probe(meta);
        ++probe_records;
    }

    std::uint64_t analyzed_records = 0;  ///< connection + k-root + uptime
    std::uint64_t probe_records = 0;

private:
    atlas::BundleSink& inner_;
    CallTimer& timer_;
};

/// core::feed_binary_bundle's handler, with its callbacks timed.
class TimedFeed final : public atlas::BundleStreamHandler {
public:
    TimedFeed(core::StreamingPipeline& pipeline, CallTimer& timer)
        : pipeline_(pipeline), timer_(timer) {}

    void on_metadata(const atlas::ProbeMetadata& meta) override {
        CallTimer::Scope scope(timer_);
        pipeline_.feed_metadata(meta);
    }
    void on_connection(const atlas::ConnectionLogEntry& entry) override {
        CallTimer::Scope scope(timer_);
        pipeline_.feed_connection(entry);
    }
    void on_kroot(const atlas::KRootPingRecord& record) override {
        CallTimer::Scope scope(timer_);
        pipeline_.feed_kroot(record);
    }
    void on_uptime(const atlas::UptimeRecord& record) override {
        CallTimer::Scope scope(timer_);
        pipeline_.feed_uptime(record);
    }
    void on_probe_complete(atlas::ProbeId probe) override {
        CallTimer::Scope scope(timer_);
        pipeline_.seal_through(probe);
    }

private:
    core::StreamingPipeline& pipeline_;
    CallTimer& timer_;
};

// -- one iteration -----------------------------------------------------------

/// Counts that must repeat exactly for one seed: across iterations, and
/// between traced and untraced iterations.
struct Exact {
    ResultSummary summary;
    std::uint64_t events = 0;
    std::uint64_t dhcp_messages = 0;
    std::uint64_t ppp_dials = 0;
    std::uint64_t pool_allocations = 0;
    std::uint64_t lease_granted = 0;
    std::uint64_t wheel_cascaded = 0;
    std::uint64_t wheel_overflow = 0;
    std::uint64_t ledger_records = 0;
    std::uint64_t records_written = 0;
    std::uint64_t bundle_bytes = 0;
    std::uint64_t changes_extracted = 0;
    std::uint64_t probes_analyzable = 0;
    // Only year-outage carries a cause ledger; elsewhere these stay at the
    // constant 1 (README, "accuracy.* outside year-outage").
    double periodic_recall = 1;
    double network_recall = 1;
    double power_recall = 1;
    double unknown_residual = 1;

    friend bool operator==(const Exact&, const Exact&) = default;
};

struct Iteration {
    std::size_t scenario = 0;               ///< index into the run's scenarios
    std::map<std::string, double> phase_s;  ///< benchmark span -> seconds
    double e2e_s = 0;
    double sim_s = 0;      ///< run_scenario (0 in reanalyze-paper)
    double analyze_s = 0;  ///< decode + analysis
    double cpe_days = 0;   ///< simulated subscriber-days
    std::uint64_t analyzed_records = 0;  ///< connection + k-root + uptime
    double peak_rss_mib = 0;             ///< VmHWM over the iteration
    Exact exact;
    std::uint64_t peak_buffered = 0;
    std::uint64_t shards_executed = 0;
    std::uint64_t shards_offloaded = 0;
    double mem_accounted_mib = 0;
    double mem_rss_mib = 0;
    std::optional<std::uint64_t> batch_teed_power_outages;
    std::optional<LayerSplit> layers;
};

std::uint64_t counter_delta(const obs::MetricsSnapshot& after,
                            const obs::MetricsSnapshot& before, const std::string& name) {
    const auto a = after.counters.find(name);
    const auto b = before.counters.find(name);
    return (a == after.counters.end() ? 0 : a->second) -
           (b == before.counters.end() ? 0 : b->second);
}

void take_counters(Iteration& it, const obs::MetricsSnapshot& before) {
    const obs::MetricsSnapshot after = obs::metrics_snapshot();
    auto delta = [&](const char* name) { return counter_delta(after, before, name); };
    for (const char* kind : {"dhcp.discover", "dhcp.offer", "dhcp.request", "dhcp.renew",
                             "dhcp.ack", "dhcp.nak", "dhcp.released"})
        it.exact.dhcp_messages += delta(kind);
    it.exact.ppp_dials = delta("ppp.dials");
    it.exact.pool_allocations = delta("pool.allocations");
    it.exact.lease_granted = delta("lease.granted");
    it.exact.wheel_cascaded = delta("sim.wheel.cascaded");
    it.exact.wheel_overflow = delta("sim.wheel.overflow");
    it.exact.changes_extracted = delta("pipeline.changes_extracted");
    it.exact.probes_analyzable = delta("pipeline.probes_analyzable");
    it.shards_executed = delta("par.shards_executed");
    it.shards_offloaded = delta("par.shards_offloaded");
}

void take_mem(Iteration& it, const obs::MemReport& report) {
    it.mem_accounted_mib = double(report.accounted_bytes) / kMiB;
    it.mem_rss_mib = double(report.process_rss_bytes) / kMiB;
}

std::string iteration_category(std::size_t index) {
    return "iteration-" + std::to_string(index);
}

void start_trace(bool traced) {
    if (!traced) return;
    obs::clear_trace();
    obs::enable_trace();
}

/// Traced-iteration epilogue: stop tracing, keep the trace, split it.
void finish_trace(Iteration& it, const std::string& category, const CallbackTime& callbacks,
                  const fs::path& trace_path) {
    obs::disable_trace();
    std::ostringstream json;
    obs::write_trace_json(json);
    std::ofstream(trace_path) << json.str();
    it.layers = split_layers(parse_trace(json.str()), category, callbacks);
}

/// The ladders and year-outage: run_scenario teeing DAB2 through a
/// forwarding sink, close, stream the bundle into a StreamingPipeline at
/// threads=1, finish, and (year-outage) audit against the cause ledger.
Iteration simulate_and_analyze(Workload workload, const isp::ScenarioConfig& base,
                               const fs::path& work, std::size_t index, bool traced,
                               bool check_batch_teed) {
    const fs::path bundle_dir = work / "iteration_bundle";
    fs::remove_all(bundle_dir);
    const std::string category = iteration_category(index);

    Iteration it;
    reset_peak_rss();
    const obs::MetricsSnapshot before = obs::metrics_snapshot();
    start_trace(traced);
    CallTimer sink_timer(traced, /*bucketed=*/true);
    CallTimer feed_timer(traced, /*bucketed=*/false);
    std::optional<sim::ScopedCauseLedger> ledger;
    std::optional<isp::ScenarioResult> scenario;
    core::AnalysisResults results;
    std::optional<core::AttributionAudit> audit;
    {
        Phase iteration("bench.iteration", category, it.phase_s);
        if (workload == Workload::YearOutage) ledger.emplace();
        atlas::BinaryBundleWriter writer(bundle_dir.string());
        TimedSink sink(writer, sink_timer);
        isp::ScenarioConfig config = base;
        config.bundle_sink = &sink;
        {
            Phase phase("bench.run_scenario", category, it.phase_s);
            scenario.emplace(isp::run_scenario(config));
        }
        {
            Phase phase("bench.close", category, it.phase_s);
            writer.close();
        }
        core::StreamingPipeline::Options options;
        options.config = pipeline_config(1);
        core::StreamingPipeline pipeline(scenario->prefix_table, scenario->registry, options);
        {
            Phase phase("bench.open", category, it.phase_s);
            pipeline.open();
        }
        TimedFeed feed(pipeline, feed_timer);
        {
            Phase phase("bench.stream", category, it.phase_s);
            atlas::stream_binary_bundle(bundle_dir.string(), feed);
        }
        {
            Phase phase("bench.finish", category, it.phase_s);
            results = pipeline.finish();
        }
        it.peak_buffered = pipeline.peak_buffered_records();
        if (ledger) {
            Phase phase("bench.audit", category, it.phase_s);
            audit = core::audit_attribution(results, scenario->prefix_table,
                                            scenario->registry, ledger->ledger().records());
        }
        it.analyzed_records = sink.analyzed_records;
        it.exact.records_written = sink.analyzed_records + sink.probe_records;
    }
    it.peak_rss_mib = peak_rss_mib_since_reset();
    if (traced) {
        CallbackTime callbacks = sink_timer.times();
        callbacks.handler_ns = feed_timer.times().handler_ns;
        finish_trace(it, category, callbacks, work / "trace.json");
    }
    take_counters(it, before);
    if (const auto final_mem = obs::mem_final_report()) take_mem(it, *final_mem);

    it.e2e_s = it.phase_s["bench.iteration"];
    it.sim_s = it.phase_s["bench.run_scenario"];
    it.analyze_s =
        it.phase_s["bench.open"] + it.phase_s["bench.stream"] + it.phase_s["bench.finish"];
    it.cpe_days = cpe_days(*scenario, base);
    it.exact.summary = summarize(results);
    it.exact.events = scenario->sim_events;
    it.exact.bundle_bytes = directory_bytes(bundle_dir);
    if (ledger) it.exact.ledger_records = ledger->ledger().total_records();
    if (audit) {
        it.exact.periodic_recall = audit->recall(core::ChangeCause::Periodic);
        it.exact.network_recall = audit->recall(core::ChangeCause::NetworkOutage);
        it.exact.power_recall = audit->recall(core::ChangeCause::PowerOutage);
        it.exact.unknown_residual = audit->unknown_residual();
    }
    if (check_batch_teed) {
        // The CLI-default batch path over the bundle the simulator teed.
        const auto bundle = atlas::read_bundle_auto(bundle_dir.string());
        const auto batch = core::AnalysisPipeline(pipeline_config(1))
                               .run(bundle, scenario->prefix_table, scenario->registry);
        it.batch_teed_power_outages = count_entries(batch.power_outages);
    }
    return it;
}

/// reanalyze-paper: read_bundle_auto + AnalysisPipeline::run at threads=2
/// over the bundle setup wrote into `scenario_dir`.
Iteration reanalyze(const Context& context, const fs::path& scenario_dir,
                    const fs::path& work, std::size_t index, bool traced) {
    const fs::path bundle_dir = scenario_dir / "bundle";
    const std::string category = iteration_category(index);

    Iteration it;
    reset_peak_rss();
    const obs::MetricsSnapshot before = obs::metrics_snapshot();
    start_trace(traced);
    atlas::DatasetBundle bundle;
    core::AnalysisResults results;
    {
        Phase iteration("bench.iteration", category, it.phase_s);
        {
            Phase phase("bench.read", category, it.phase_s);
            bundle = atlas::read_bundle_auto(bundle_dir.string());
        }
        {
            Phase phase("bench.batch_run", category, it.phase_s);
            results = core::AnalysisPipeline(pipeline_config(2))
                          .run(bundle, context.table, context.registry);
        }
    }
    it.peak_rss_mib = peak_rss_mib_since_reset();
    if (traced) finish_trace(it, category, CallbackTime{}, work / "trace.json");
    take_counters(it, before);
    take_mem(it, obs::mem_report());

    it.analyzed_records = bundle.connection_log.size() + bundle.kroot_pings.size() +
                          bundle.uptime_records.size();
    it.e2e_s = it.phase_s["bench.iteration"];
    it.analyze_s = it.e2e_s;
    it.exact.summary = summarize(results);
    it.exact.records_written = it.analyzed_records + bundle.probes.size();
    it.exact.bundle_bytes = directory_bytes(bundle_dir);
    return it;
}

// -- modes -------------------------------------------------------------------

struct Args {
    std::string mode;
    std::string workload;
    std::optional<std::uint64_t> seed;
    double seconds = 10;
    bool trace = false;
    fs::path dir = ".";
};

Args parse_args(int argc, char** argv) {
    if (argc < 2)
        throw std::invalid_argument("usage: perfbench setup|measure|selftest|metrics ...");
    Args args;
    args.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        const std::string value = argv[i + 1];
        if (flag == "--workload") args.workload = value;
        else if (flag == "--seed") args.seed = std::stoull(value);
        else if (flag == "--seconds") args.seconds = std::stod(value);
        else if (flag == "--trace") args.trace = value == "1";
        else if (flag == "--dir") args.dir = value;
        else throw std::invalid_argument("unknown flag " + flag);
    }
    return args;
}

int run_setup(const Args& args) {
    const Workload workload = parse_workload(args.workload);
    const auto configs = scenarios_for(workload, args.seed);
    for (std::size_t k = 0; k < configs.size(); ++k) {
        const fs::path dir = scenario_dir(args.dir, k);
        fs::create_directories(dir);
        const isp::ScenarioResult scenario = isp::run_scenario(configs[k]);
        if (workload == Workload::ReanalyzePaper) {
            // Written from the probe-sorted in-memory bundle, the layout
            // `dynaddr convert` produces: the batch reader mishandles the
            // simulator's teed layout (README, "Known defect").
            fs::remove_all(dir / "bundle");
            atlas::write_binary_bundle((dir / "bundle").string(), scenario.bundle);
            write_context(dir / "context", scenario.prefix_table, scenario.registry);
        }
        const auto reference =
            core::AnalysisPipeline(pipeline_config(1))
                .run(scenario.bundle, scenario.prefix_table, scenario.registry);
        write_reference(dir / "reference.txt", summarize(reference));
    }
    return 0;
}

/// One of the run's scenarios, as the measuring process sees it.
struct Scenario {
    isp::ScenarioConfig config;
    fs::path dir;
    ResultSummary reference;
    Context context;             ///< reanalyze-paper only
    std::optional<Exact> first;  ///< exact counts of its first iteration
};

/// Mean over the run's scenarios of one exact count.
template <typename T>
double scenario_mean(const std::vector<Scenario>& scenarios, T Exact::*field) {
    std::vector<double> values;
    for (const auto& s : scenarios) values.push_back(double((*s.first).*field));
    return mean(values);
}

void print_layer_table(const std::string& workload, const LayerSplit& split) {
    std::printf("layer self times, %s (first traced iteration):\n", workload.c_str());
    double layers = 0;
    for (const auto& name : layer_metric_names()) {
        layers += split.self_s.at(name);
        std::printf("  %-24s %12.6f s\n", name.c_str(), split.self_s.at(name));
    }
    std::printf("  %-24s %12.6f s\n", "residual_s", split.residual_s);
    std::printf("  %-24s %12.6f s = layers %.6f s + residual %.6f s\n", "traced e2e",
                split.e2e_s, layers, split.residual_s);
    for (const auto& name : split.unmapped)
        std::printf("  unmapped span, charged to residual: %s\n", name.c_str());
}

/// Per scenario, its fastest iteration's times and its median peak RSS.
struct ScenarioBest {
    double e2e_s = std::numeric_limits<double>::infinity();
    double sim_s = std::numeric_limits<double>::infinity();
    double analyze_s = std::numeric_limits<double>::infinity();
    double cpe_days = 0;
    double analyzed_records = 0;
    std::vector<double> peak_rss_mib;
};

std::vector<ScenarioBest> best_per_scenario(const std::vector<Iteration>& iterations,
                                            std::size_t scenarios) {
    std::vector<ScenarioBest> best(scenarios);
    for (const auto& it : iterations) {
        ScenarioBest& b = best[it.scenario];
        b.e2e_s = std::min(b.e2e_s, it.e2e_s);
        b.sim_s = std::min(b.sim_s, it.sim_s);
        b.analyze_s = std::min(b.analyze_s, it.analyze_s);
        b.cpe_days = it.cpe_days;
        b.analyzed_records = double(it.analyzed_records);
        b.peak_rss_mib.push_back(it.peak_rss_mib);
    }
    return best;
}

/// reanalyze-paper's iterations do not simulate. For its simulator
/// throughput, the measuring loop also runs run_scenario once per round,
/// on each scenario in turn, so these samples spread over the whole run as
/// the iterations do. They stay outside every iteration's time.
Iteration simulate_only(const isp::ScenarioConfig& config, std::size_t k) {
    Iteration it;
    it.scenario = k;
    const auto start = Clock::now();
    const isp::ScenarioResult scenario = isp::run_scenario(config);
    it.sim_s = seconds_since(start);
    it.cpe_days = cpe_days(scenario, config);
    return it;
}

void report_end_to_end(Report& report, const std::vector<Iteration>& untraced,
                       const std::vector<Iteration>& simulations,
                       const std::vector<Scenario>& scenarios) {
    // Each scenario's fastest iteration, not its median: on a shared host,
    // contention from other tenants slows identical iterations by up to 50%
    // in phases lasting seconds, and only ever adds time. Then the median
    // over the scenarios: some seeds simulate 3x slower for the same work
    // (README, "Estimators").
    std::vector<ScenarioBest> best = best_per_scenario(untraced, scenarios.size());
    if (!simulations.empty()) {
        const std::vector<ScenarioBest> sims = best_per_scenario(simulations, scenarios.size());
        for (std::size_t k = 0; k < best.size(); ++k) {
            best[k].sim_s = sims[k].sim_s;
            best[k].cpe_days = sims[k].cpe_days;
        }
    }
    std::vector<double> e2e, sim_rate, analyze_rate, peak_rss;
    for (const auto& b : best) {
        e2e.push_back(b.e2e_s);
        sim_rate.push_back(b.cpe_days / b.sim_s);
        analyze_rate.push_back(b.analyzed_records / b.analyze_s);
        peak_rss.push_back(median(b.peak_rss_mib));
    }
    std::vector<double> all;
    for (const auto& it : untraced) all.push_back(it.e2e_s);
    std::sort(all.begin(), all.end());
    std::printf("e2e_s over %zu untraced iterations: median %.6f s, 90th percentile %.6f s, "
                "median over scenarios of their fastest %.6f s\n",
                all.size(), median(all), all[all.size() * 9 / 10], median(e2e));
    report.add("e2e_s", median(e2e));
    report.add("sim_cpe_days_per_s", median(sim_rate));
    report.add("analyze_records_per_s", median(analyze_rate));
    report.add("peak_rss_mib", median(peak_rss));
    report.add("bundle_bytes_per_record", scenario_mean(scenarios, &Exact::bundle_bytes) /
                                              scenario_mean(scenarios, &Exact::records_written));
    report.add("accuracy.periodic_recall", scenario_mean(scenarios, &Exact::periodic_recall));
    report.add("accuracy.network_recall", scenario_mean(scenarios, &Exact::network_recall));
    report.add("accuracy.power_recall", scenario_mean(scenarios, &Exact::power_recall));
    report.add("accuracy.unknown_residual", scenario_mean(scenarios, &Exact::unknown_residual));
}

void report_per_layer(Report& report, const Args& args, const std::vector<Iteration>& untraced,
                      const std::vector<Iteration>& traced,
                      const std::vector<Scenario>& scenarios) {
    std::vector<double> traced_e2e, untraced_e2e, residual;
    std::map<std::string, std::vector<double>> layer;
    for (const auto& it : untraced) untraced_e2e.push_back(it.e2e_s);
    for (const auto& it : traced) {
        traced_e2e.push_back(it.layers->e2e_s);
        residual.push_back(it.layers->residual_s);
        for (const auto& [name, seconds] : it.layers->self_s) layer[name].push_back(seconds);
    }
    print_layer_table(args.workload, *traced.front().layers);
    // Means, not medians: layer means plus the residual mean sum to the
    // traced e2e mean exactly.
    for (const auto& name : layer_metric_names()) report.add(name, mean(layer[name]));
    report.add("residual_s", mean(residual));
    report.add("traced_e2e_s", mean(traced_e2e));
    report.add("trace_overhead_s", mean(traced_e2e) - mean(untraced_e2e));

    // Work counts: exact per scenario, averaged over the run's scenarios.
    const double events = scenario_mean(scenarios, &Exact::events);
    report.add("sim.events_fired", events);
    report.add("sim.ns_per_event", events == 0 ? 0 : mean(layer["sim.run_s"]) * 1e9 / events);
    report.add("sim.wheel.cascaded", scenario_mean(scenarios, &Exact::wheel_cascaded));
    report.add("sim.wheel.overflow", scenario_mean(scenarios, &Exact::wheel_overflow));
    report.add("sim.ledger_records", scenario_mean(scenarios, &Exact::ledger_records));
    report.add("dhcp.messages", scenario_mean(scenarios, &Exact::dhcp_messages));
    report.add("ppp.dials", scenario_mean(scenarios, &Exact::ppp_dials));
    report.add("pool.allocations", scenario_mean(scenarios, &Exact::pool_allocations));
    report.add("lease.granted", scenario_mean(scenarios, &Exact::lease_granted));
    report.add("atlas.records_written", scenario_mean(scenarios, &Exact::records_written));
    report.add("atlas.bundle_bytes", scenario_mean(scenarios, &Exact::bundle_bytes));
    report.add("core.changes_extracted", scenario_mean(scenarios, &Exact::changes_extracted));
    report.add("core.probes_analyzable", scenario_mean(scenarios, &Exact::probes_analyzable));

    std::uint64_t peak_buffered = 0, executed = 0, offloaded = 0;
    std::vector<double> accounted, rss, peak_rss;
    for (const auto& it : traced) {
        peak_buffered = std::max(peak_buffered, it.peak_buffered);
        executed += it.shards_executed;
        offloaded += it.shards_offloaded;
        accounted.push_back(it.mem_accounted_mib);
        rss.push_back(it.mem_rss_mib);
        peak_rss.push_back(it.peak_rss_mib);
    }
    const double peak_rss_mib = mean(peak_rss);
    report.add("core.peak_buffered_records", double(peak_buffered));
    report.add("par.offload_ratio", executed == 0 ? 0 : double(offloaded) / double(executed));
    report.add("par.shards_executed", double(executed) / double(traced.size()));
    report.add("mem.accounted_mib", mean(accounted));
    report.add("mem.residual_mib", mean(rss) - mean(accounted));
    report.add("mem.rss_mib", mean(rss));
    report.add("mem.peak_rss_mib", peak_rss_mib);
    std::printf("memory: accounted %.3f MiB + residual %.3f MiB = RSS %.3f MiB "
                "(peak RSS %.3f MiB)\n",
                mean(accounted), mean(rss) - mean(accounted), mean(rss), peak_rss_mib);

    // Informational, never gating: the batch reader over the teed bundle
    // against the streaming count (README, "Known defect").
    const auto checked = std::find_if(traced.begin(), traced.end(), [](const Iteration& it) {
        return it.batch_teed_power_outages.has_value();
    });
    const bool found = checked != traced.end();
    report.add("check.batch_teed_power_outages",
               found ? double(*checked->batch_teed_power_outages) : 0.0);
    report.add("check.streaming_power_outages",
               found ? double(checked->exact.summary.power_outages) : 0.0);
    if (found)
        std::printf("check: batch reader over the teed bundle finds %llu power outages, "
                    "the streaming path %llu\n",
                    (unsigned long long)*checked->batch_teed_power_outages,
                    (unsigned long long)checked->exact.summary.power_outages);
}

int run_measure(const Args& args) {
    const Workload workload = parse_workload(args.workload);
    const auto configs = scenarios_for(workload, args.seed);
    std::vector<Scenario> scenarios(configs.size());
    for (std::size_t k = 0; k < configs.size(); ++k) {
        Scenario& s = scenarios[k];
        s.config = configs[k];
        s.dir = scenario_dir(args.dir, k);
        s.reference = read_reference(s.dir / "reference.txt");
        if (workload == Workload::ReanalyzePaper) load_context(s.dir / "context", s.context);
    }

    std::vector<Iteration> untraced;
    std::vector<Iteration> traced;
    std::vector<Iteration> simulations;  ///< reanalyze-paper, --trace 0 only
    const bool simulate_aside = workload == Workload::ReanalyzePaper && !args.trace;
    std::size_t failed = 0;
    std::size_t index = 0;
    const auto start = Clock::now();
    // Rounds of one iteration per scenario until --seconds have passed.
    // --trace 1 follows each untraced iteration with a traced one of the
    // same scenario: the difference of their wall times is the tracing
    // overhead, and their exact counts must agree.
    while (untraced.empty() || seconds_since(start) < args.seconds ||
           (simulate_aside && simulations.size() < scenarios.size())) {
        for (std::size_t k = 0; k < scenarios.size(); ++k) {
            Scenario& s = scenarios[k];
            for (const bool trace_this : {false, true}) {
                if (trace_this && !args.trace) continue;
                const bool check_batch_teed =
                    trace_this && traced.empty() && workload == Workload::YearOutage;
                Iteration it =
                    workload == Workload::ReanalyzePaper
                        ? reanalyze(s.context, s.dir, args.dir, index, trace_this)
                        : simulate_and_analyze(workload, s.config, args.dir, index,
                                               trace_this, check_batch_teed);
                it.scenario = k;
                std::fprintf(stderr,
                             "iteration %zu: scenario %zu%s, %.6f s (simulate %.6f s, "
                             "analyze %.6f s), peak RSS %.1f MiB\n",
                             index, k, trace_this ? " traced" : "", it.e2e_s, it.sim_s,
                             it.analyze_s, it.peak_rss_mib);
                // Results check: the digest against setup's reference, and
                // every exact count against the scenario's first iteration.
                if (!s.first) s.first = it.exact;
                if (!(it.exact.summary == s.reference) || !(it.exact == *s.first)) {
                    ++failed;
                    std::fprintf(stderr,
                                 "iteration %zu (%s, seed %llu): results differ (digest "
                                 "%llu, reference %llu; changes %llu, reference %llu)\n",
                                 index, trace_this ? "traced" : "untraced",
                                 (unsigned long long)s.config.seed,
                                 (unsigned long long)it.exact.summary.digest,
                                 (unsigned long long)s.reference.digest,
                                 (unsigned long long)it.exact.summary.changes,
                                 (unsigned long long)s.reference.changes);
                }
                (trace_this ? traced : untraced).push_back(std::move(it));
                ++index;
            }
        }
        if (simulate_aside) {
            const std::size_t k = simulations.size() % scenarios.size();
            simulations.push_back(simulate_only(scenarios[k].config, k));
            std::fprintf(stderr, "simulation: scenario %zu, %.6f s for %.0f cpe-days\n", k,
                         simulations.back().sim_s, simulations.back().cpe_days);
        }
    }

    Report report;
    if (args.trace)
        report_per_layer(report, args, untraced, traced, scenarios);
    else
        report_end_to_end(report, untraced, simulations, scenarios);
    report.print(failed == 0, untraced.size() + traced.size(), failed);
    return 0;
}

/// The digest agrees between the batch and streaming paths on the quick
/// preset, and moves when one change is dropped.
int run_selftest(const Args& args) {
    int failures = 0;
    auto check = [&](bool ok, const std::string& what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };
    for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{2015}}) {
        const fs::path bundle_dir = args.dir / ("selftest_" + std::to_string(seed));
        fs::remove_all(bundle_dir);
        isp::ScenarioConfig config = isp::presets::quick_scenario();
        config.seed = seed;
        atlas::BinaryBundleWriter writer(bundle_dir.string());
        config.bundle_sink = &writer;
        const auto scenario = isp::run_scenario(config);
        writer.close();

        auto batch = core::AnalysisPipeline(pipeline_config(1))
                         .run(scenario.bundle, scenario.prefix_table, scenario.registry);
        core::StreamingPipeline::Options options;
        options.config = pipeline_config(2);
        core::StreamingPipeline streaming(scenario.prefix_table, scenario.registry, options);
        streaming.open();
        core::feed_binary_bundle(streaming, bundle_dir.string());
        const ResultSummary batch_summary = summarize(batch);
        const ResultSummary streamed_summary = summarize(streaming.finish());

        const std::string tag = " (quick preset, seed " + std::to_string(seed) + ")";
        check(batch_summary == streamed_summary,
              "batch digest over the in-memory bundle == streaming digest over the "
              "teed DAB2 bundle" + tag);
        check(batch_summary.changes > 0 && batch_summary.power_outages > 0,
              "the reference has address changes and power outages" + tag);
        for (auto& probe : batch.changes) {
            if (probe.changes.empty()) continue;
            probe.changes.pop_back();
            break;
        }
        check(summarize(batch).digest != batch_summary.digest,
              "dropping one address change moves the digest" + tag);
        fs::remove_all(bundle_dir);
    }
    return failures == 0 ? 0 : 1;
}

int run_metrics() {
    for (const auto& spec : kEndToEnd) std::printf("end_to_end %s %s\n", spec.name, spec.unit);
    for (const auto& name : layer_metric_names()) std::printf("per_layer %s s\n", name.c_str());
    for (const auto& spec : kPerLayerExtra)
        std::printf("per_layer %s %s\n", spec.name, spec.unit);
    return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        const perfbench::Args args = perfbench::parse_args(argc, argv);
        if (args.mode == "setup") return perfbench::run_setup(args);
        if (args.mode == "measure") return perfbench::run_measure(args);
        if (args.mode == "selftest") return perfbench::run_selftest(args);
        if (args.mode == "metrics") return perfbench::run_metrics();
        throw std::invalid_argument("unknown mode '" + args.mode + "'");
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
}
