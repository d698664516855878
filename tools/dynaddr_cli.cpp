// dynaddr — command-line front end.
//
//   dynaddr simulate --preset paper|outage|quick --out DIR [--seed N]
//                    [--format csv|binary|both]
//       Runs a scenario and writes the dataset bundle plus the supporting
//       context (pfx2as_YYYY-MM.txt per month, registry.csv) to DIR. With
//       --format binary the simulator tees records into an
//       atlas::BinaryBundleWriter, which buffers the columnar DAB2 blocks
//       in memory and writes the files when the run ends.
//
//   dynaddr analyze --data DIR [--report LIST]
//       Loads a bundle (simulated or real; CSV or DAB2, auto-detected).
//       IP-to-AS context comes from pfx2as_YYYY-MM.txt files and
//       registry.csv in DIR when present. LIST is comma-separated
//       section names from core::report_sections() (summary, table2,
//       table5, table6, table7, fig1, fig2, fig3, fig4_5, fig6, fig7_8,
//       fig9, causes, admin, ipv6, churn) or all (the default); an unknown
//       name is an error.
//       A DAB2 bundle is streamed probe by probe through
//       core::StreamingPipeline (O(probes) memory); a CSV bundle is read
//       whole. Both give the same reports.
//
//   dynaddr convert --in DIR --out DIR [--to csv|binary]
//       Translates a bundle between the CSV and DAB2 representations
//       (default: the opposite of what --in holds) and copies the
//       IP-to-AS context files along.
//
//   dynaddr demo
//       simulate quick + analyze, in memory.
//
//   dynaddr top --port N [--interval S] [--count N]
//       Polls a running dynaddr's stats endpoint (simulate/analyze with
//       --stats-port N) and renders its /top capacity-and-progress view
//       (plus the live /causes ledger counters when a ledger is running)
//       as a self-updating terminal table.
//
//   dynaddr explain --ledger FILE (--client ID | --address A.B.C.D)
//       Answers "why did this address change?" from a cause-ledger file
//       written by simulate --cause-ledger (CSV or DCL1, auto-detected).
//
//   dynaddr --help | -h, dynaddr <command> --help
//       Prints the usage text to stdout and exits 0.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "atlas/binary_bundle.hpp"
#include "core/attribution_audit.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/streaming_pipeline.hpp"
#include "isp/presets.hpp"
#include "netcore/csv.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/flight_recorder.hpp"
#include "netcore/obs/json.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/profiler.hpp"
#include "netcore/obs/stats_server.hpp"
#include "netcore/obs/timeseries.hpp"
#include "netcore/obs/trace.hpp"
#include "netcore/time.hpp"
#include "sim/cause_ledger.hpp"
#include "sim/faults.hpp"

DYNADDR_LOG_MODULE(cli);

namespace {

using namespace dynaddr;
namespace fs = std::filesystem;

/// The --report section names, comma-joined, plus "all".
std::string section_names() {
    std::string names;
    for (const auto& section : core::report_sections())
        names += std::string(section.name) + ",";
    return names + "all";
}

/// Prints the usage text. --help and -h print it to stdout and exit 0;
/// a malformed command line prints it to stderr and exits 2.
int usage(std::ostream& out = std::cerr, int status = 2) {
    out <<
        "usage:\n"
        "  dynaddr simulate --preset paper|outage|quick --out DIR [--seed N]\n"
        "                   [--format csv|binary|both] [--cause-ledger FILE]\n"
        "       (--cause-ledger streams ground-truth cause records to FILE;\n"
        "        .csv extension -> CSV, anything else -> DCL1 columnar)\n"
        "  dynaddr analyze  --data DIR [--report LIST] [--threads N]\n"
        "                   [--audit LEDGER]\n"
        "       (LIST: comma-separated from " << section_names() << ";\n"
        "        default all)\n"
        "       (--audit joins inferred causes against the ledger's ground\n"
        "        truth and prints the per-cause confusion matrix)\n"
        "  dynaddr convert  --in DIR --out DIR [--to csv|binary]\n"
        "  dynaddr demo [--preset paper|outage|quick] [--threads N]\n"
        "  dynaddr explain --ledger FILE (--client ID | --address A.B.C.D)\n"
        "       why did this client/address change? (from a cause ledger)\n"
        "  dynaddr top --port N [--interval S] [--count N]\n"
        "       live progress/memory table from a --stats-port run\n"
        "  dynaddr [--preset ...] (flags only: shorthand for demo)\n"
        "(simulate/demo: --scale N multiplies the preset's CPE population\n"
        " N-fold for capacity runs — synthetic wide pools, k-root off)\n"
        "observability (any command):\n"
        "  --log-level off|error|warn|info|debug|trace   global log level\n"
        "  --log-module mod:level[,mod:level...]         per-module override\n"
        "  --metrics-out FILE   write metrics (JSON)\n"
        "  --trace-out FILE     write Chrome trace_event JSON (Perfetto)\n"
        "  --series-out FILE    record a metrics time series (JSON)\n"
        "  --series-interval S  series cadence in seconds (default 60;\n"
        "                       simulated seconds inside a simulation)\n"
        "  --series-capacity N  series ring capacity in samples (default 8192)\n"
        "  --stats-port N       serve /metrics /series /top /healthz on"
        " 127.0.0.1:N\n"
        "  --mem-report FILE    write the memory-accounting report (JSON:\n"
        "                       accounted vs process RSS, residual explicit)\n"
        "  --profile-hz N       sample registered threads' stacks N times/s\n"
        "  --profile-out FILE   write folded stacks (flame-graph input;\n"
        "                       default profile.folded with --profile-hz)\n"
        "  --flight-recorder[=N]  keep last N log records/thread for crash dumps\n"
        "  --crash-dump-dir DIR   where dynaddr-crash-<pid>.json goes (default .)\n"
        "fault injection (any command; off unless given):\n"
        "  --fault-plan SPEC|@FILE  comma-joined profiles and key=value\n"
        "                       overrides, e.g. lossy,crashy,dhcp.drop=0.3\n"
        "                       (profiles: lossy bursty flaky crashy storms\n"
        "                       exhaustion garbage chaos)\n"
        "  --fault-seed N       override the fault plan's rng seed\n"
        "(--threads: pipeline executors; 0 = hardware concurrency (default),"
        " 1 = single-threaded; results are identical for any value)\n";
    return status;
}

/// Flags whose value is optional (`--flag` alone means "on, defaults").
bool valueless_ok(const std::string& name) {
    return name == "flight-recorder";
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int from) {
    std::map<std::string, std::string> flags;
    for (int i = from; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            flags["help"] = "";
            continue;
        }
        if (arg.rfind("--", 0) != 0) throw Error("bad argument '" + arg + "'");
        // Both --flag=value and --flag value.
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
            continue;
        }
        const std::string name = arg.substr(2);
        // A valueless flag consumes the next argument only when it does
        // not look like another flag.
        if (valueless_ok(name) &&
            (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0)) {
            flags[name] = "";
            continue;
        }
        if (i + 1 >= argc) throw Error("flag '" + arg + "' needs a value");
        flags[name] = argv[++i];
    }
    return flags;
}

/// The live stats endpoint lives for the whole command; destroyed (and
/// its thread joined) when main returns.
std::unique_ptr<obs::StatsServer> stats_server;

/// Builds and installs the process-global fault injector from
/// --fault-plan / --fault-seed. Returns the owning scope (kept alive for
/// the whole command) or nullptr when neither flag was given — in which
/// case every fault gate stays a null check and output is byte-identical
/// to a build without the fault layer.
std::unique_ptr<sim::ScopedFaultInjector> apply_fault_flags(
    const std::map<std::string, std::string>& flags) {
    const auto plan_it = flags.find("fault-plan");
    const auto seed_it = flags.find("fault-seed");
    if (plan_it == flags.end() && seed_it == flags.end()) return nullptr;
    std::string spec = plan_it != flags.end() ? plan_it->second : std::string();
    if (!spec.empty() && spec.front() == '@') {
        std::ifstream in(spec.substr(1));
        if (!in) throw Error("cannot read fault plan file '" + spec.substr(1) + "'");
        std::ostringstream text;
        text << in.rdbuf();
        spec = text.str();
    }
    auto plan = sim::FaultPlan::parse(spec);
    if (seed_it != flags.end()) plan.seed = std::stoull(seed_it->second);
    auto scoped = std::make_unique<sim::ScopedFaultInjector>(plan);
    DYNADDR_LOG(Info, cli, "fault plan active: '", plan.to_string(), "'");
    return scoped;
}

/// Applies the observability flags. Returns after enabling tracing when
/// requested, so spans from the command body are collected. Live
/// features (series recorder, stats server, flight recorder) must be on
/// before the command body so simulations constructed inside it see them.
void apply_obs_flags(const std::map<std::string, std::string>& flags) {
    if (auto it = flags.find("log-level"); it != flags.end()) {
        const auto level = obs::parse_level(it->second);
        if (!level) throw Error("unknown log level '" + it->second + "'");
        obs::set_log_level(*level);
    }
    if (auto it = flags.find("log-module"); it != flags.end())
        obs::apply_module_spec(it->second);
    if (flags.contains("trace-out")) obs::enable_trace();
    if (auto it = flags.find("metrics-out"); it != flags.end())
        obs::set_emergency_metrics_path(it->second);
    if (flags.contains("series-out") || flags.contains("stats-port")) {
        obs::SeriesConfig config;
        if (auto it = flags.find("series-interval"); it != flags.end()) {
            config.interval_seconds = std::stod(it->second);
            if (config.interval_seconds <= 0)
                throw Error("--series-interval must be positive");
        }
        if (auto it = flags.find("series-capacity"); it != flags.end())
            config.capacity = std::stoull(it->second);
        auto& recorder = obs::SeriesRecorder::instance();
        recorder.configure(config);
        recorder.enable();
        recorder.start_wall_sampler();
    }
    if (auto it = flags.find("stats-port"); it != flags.end())
        stats_server = std::make_unique<obs::StatsServer>(
            std::uint16_t(std::stoul(it->second)));
    if (auto it = flags.find("crash-dump-dir"); it != flags.end())
        obs::set_crash_dump_dir(it->second);
    if (auto it = flags.find("flight-recorder"); it != flags.end()) {
        std::size_t ring = 256;
        if (!it->second.empty()) ring = std::stoull(it->second);
        obs::enable_flight_recorder(ring);
    }
    if (auto it = flags.find("profile-hz"); it != flags.end()) {
        const double hz = std::stod(it->second);
        if (hz <= 0) throw Error("--profile-hz must be positive");
        // Main runs the simulation loop — the most interesting thread.
        obs::profiler_register_current_thread("main");
        obs::start_profiler(hz);
    }
}

/// Writes --metrics-out / --trace-out / --series-out files after a
/// successful command.
void write_obs_outputs(const std::map<std::string, std::string>& flags) {
    if (auto it = flags.find("metrics-out"); it != flags.end()) {
        obs::write_metrics_file(it->second);
        obs::mark_metrics_written();
        DYNADDR_LOG(Info, cli, "wrote metrics to ", it->second);
    }
    if (auto it = flags.find("trace-out"); it != flags.end()) {
        std::ofstream out(it->second);
        if (!out) throw Error("cannot open " + it->second + " for writing");
        obs::write_trace_json(out);
        DYNADDR_LOG(Info, cli, "wrote ", obs::trace_event_count(),
                    " trace events to ", it->second);
    }
    if (auto it = flags.find("series-out"); it != flags.end()) {
        auto& recorder = obs::SeriesRecorder::instance();
        recorder.stop_wall_sampler();
        // Runs shorter than one interval still get a closing sample; runs
        // with samples do not get a stray wall-clock timestamp appended.
        if (recorder.samples_taken() == 0) recorder.sample_now();
        recorder.write_file(it->second);
        DYNADDR_LOG(Info, cli, "wrote ", recorder.samples_taken(),
                    " series samples to ", it->second);
    }
    if (auto it = flags.find("mem-report"); it != flags.end()) {
        obs::write_mem_report_file(it->second);
        DYNADDR_LOG(Info, cli, "wrote memory report to ", it->second);
    }
    if (flags.contains("profile-hz") || flags.contains("profile-out")) {
        obs::stop_profiler();
        const auto it = flags.find("profile-out");
        const std::string path =
            it != flags.end() ? it->second : std::string("profile.folded");
        obs::write_profile_file(path);
        DYNADDR_LOG(Info, cli, "wrote ", obs::profiler_samples_taken(),
                    " profile samples (", obs::profiler_samples_missed(),
                    " missed) to ", path);
    }
}

/// Tears down the live observers on every exit path: a still-serving
/// stats thread or a joinable sampler thread must not outlive main.
void shutdown_live_obs() {
    obs::stop_profiler();
    obs::SeriesRecorder::instance().stop_wall_sampler();
    stats_server.reset();
}

isp::ScenarioConfig preset_by_name(const std::string& name) {
    if (name == "paper") return isp::presets::paper_scenario();
    if (name == "outage") return isp::presets::outage_scenario();
    if (name == "quick") return isp::presets::quick_scenario();
    throw Error("unknown preset '" + name + "'");
}

/// Resolves --preset plus the optional --scale capacity multiplier.
isp::ScenarioConfig scenario_from_flags(
    const std::string& preset, const std::map<std::string, std::string>& flags) {
    auto config = preset_by_name(preset);
    if (auto it = flags.find("scale"); it != flags.end())
        config = isp::presets::scaled_scenario(config, std::stoi(it->second));
    return config;
}

std::string month_name(bgp::MonthKey month) {
    char buffer[16];
    std::snprintf(buffer, sizeof buffer, "%04d-%02d", int(month / 12),
                  int(month % 12) + 1);
    return buffer;
}

void write_context(const fs::path& dir, const isp::ScenarioResult& scenario) {
    // Monthly pfx2as files.
    for (const auto month : scenario.prefix_table.snapshot_months()) {
        std::ofstream out(dir / ("pfx2as_" + month_name(month) + ".txt"));
        scenario.prefix_table.dump_pfx2as(out, month);
    }
    // AS registry.
    std::ofstream out(dir / "registry.csv");
    csv::Writer writer(out, {"asn", "name", "country", "continent"});
    for (const auto& info : scenario.registry.all())
        writer.write_row({std::to_string(info.asn), info.name,
                          info.country_code, bgp::continent_code(info.continent)});
}

bgp::PrefixTable load_context_table(const fs::path& dir) {
    bgp::PrefixTable table;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("pfx2as_", 0) != 0 || name.size() < 18) continue;
        const int year = std::stoi(name.substr(7, 4));
        const int month = std::stoi(name.substr(12, 2));
        std::ifstream in(entry.path());
        table.load_pfx2as(in, bgp::month_key(year, month));
    }
    return table;
}

bgp::AsRegistry load_context_registry(const fs::path& dir) {
    bgp::AsRegistry registry;
    const fs::path path = dir / "registry.csv";
    if (!fs::exists(path)) return registry;
    std::ifstream in(path);
    csv::ScanReader reader(in);
    const auto c_asn = reader.column("asn");
    const auto c_name = reader.column("name");
    const auto c_country = reader.column("country");
    const auto c_continent = reader.column("continent");
    while (const auto* row = reader.next_row()) {
        bgp::AsInfo info;
        info.asn = std::uint32_t(std::stoul(std::string((*row)[c_asn])));
        info.name = (*row)[c_name];
        info.country_code = (*row)[c_country];
        const std::string_view code = (*row)[c_continent];
        using bgp::Continent;
        info.continent = code == "NA"   ? Continent::NorthAmerica
                         : code == "AS" ? Continent::Asia
                         : code == "AF" ? Continent::Africa
                         : code == "SA" ? Continent::SouthAmerica
                         : code == "OC" ? Continent::Oceania
                                        : Continent::Europe;
        registry.add(info);
    }
    return registry;
}

core::PipelineConfig pipeline_config(
    const std::map<std::string, std::string>& flags) {
    core::PipelineConfig config;
    if (auto threads = flags.find("threads"); threads != flags.end())
        config.threads = std::stoull(threads->second);
    return config;
}

/// The sections a --report list names, in print order; "all" selects
/// every section. Throws on a name no section has.
std::vector<const core::ReportSection*> selected_sections(const std::string& list) {
    std::set<std::string> names;
    for (std::size_t pos = 0; pos <= list.size();) {
        auto comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        const std::string name = list.substr(pos, comma - pos);
        if (name != "all" && core::find_report_section(name) == nullptr)
            throw Error("unknown --report section '" + name + "' (valid: " +
                        section_names() + ")");
        names.insert(name);
        pos = comma + 1;
    }
    std::vector<const core::ReportSection*> selected;
    for (const auto& section : core::report_sections())
        if (names.contains("all") || names.contains(std::string(section.name)))
            selected.push_back(&section);
    return selected;
}

void print_reports(const core::AnalysisResults& results,
                   const bgp::PrefixTable& table, const bgp::AsRegistry& registry,
                   const std::vector<const core::ReportSection*>& sections) {
    for (const auto* section : sections)
        std::cout << section->render(results, table, registry);
}

int cmd_simulate(const std::map<std::string, std::string>& flags) {
    const auto preset_it = flags.find("preset");
    const auto out_it = flags.find("out");
    if (preset_it == flags.end() || out_it == flags.end()) return usage();
    auto config = scenario_from_flags(preset_it->second, flags);
    if (auto seed = flags.find("seed"); seed != flags.end())
        config.seed = std::stoull(seed->second);
    const std::string format =
        flags.contains("format") ? flags.at("format") : std::string("csv");
    if (format != "csv" && format != "binary" && format != "both")
        throw Error("unknown --format '" + format + "'");

    const fs::path dir(out_it->second);
    fs::create_directories(dir);
    // The binary writer rides along as a sink, encoding records as the
    // simulation emits them; close() writes the files after the run.
    std::unique_ptr<atlas::BinaryBundleWriter> writer;
    if (format != "csv") {
        writer = std::make_unique<atlas::BinaryBundleWriter>(dir.string());
        config.bundle_sink = writer.get();
    }

    // The cause ledger streams ground-truth records to its own file while
    // the simulation runs; keep_records off keeps it O(1) memory.
    std::unique_ptr<sim::ScopedCauseLedger> ledger_scope;
    std::unique_ptr<sim::CauseSink> ledger_sink;
    if (auto it = flags.find("cause-ledger"); it != flags.end()) {
        sim::CauseLedgerConfig ledger_config;
        ledger_config.keep_records = false;
        ledger_scope = std::make_unique<sim::ScopedCauseLedger>(ledger_config);
        if (fs::path(it->second).extension() == ".csv")
            ledger_sink = std::make_unique<sim::CsvCauseWriter>(it->second);
        else
            ledger_sink = std::make_unique<sim::BinaryCauseWriter>(it->second);
        ledger_scope->ledger().set_sink(ledger_sink.get());
    }

    std::cout << "simulating preset '" << preset_it->second << "' (seed "
              << config.seed << ")...\n";
    const auto scenario = isp::run_scenario(config);
    if (writer) writer->close();
    if (ledger_sink) {
        ledger_sink->close();
        std::cout << "wrote " << ledger_scope->ledger().total_records()
                  << " cause records to " << flags.at("cause-ledger") << "\n";
    }
    if (format != "binary") atlas::write_bundle(dir.string(), scenario.bundle);
    write_context(dir, scenario);
    std::cout << "wrote " << scenario.bundle.connection_log.size()
              << " connection-log rows, " << scenario.bundle.kroot_pings.size()
              << " k-root records, " << scenario.bundle.uptime_records.size()
              << " uptime records, " << scenario.bundle.probes.size()
              << " probes (" << format << ") + IP-to-AS context to "
              << dir.string() << "\n";
    return 0;
}

/// --audit: joins the pipeline's inferred causes against the ledger's
/// ground truth and prints the confusion matrix.
void print_audit(const core::AnalysisResults& results,
                 const bgp::PrefixTable& table, const bgp::AsRegistry& registry,
                 const std::string& ledger_path) {
    sim::CauseDecodeStats stats;
    const auto ledger = sim::read_cause_ledger_file(ledger_path, &stats);
    if (stats.rows_rejected > 0 || stats.blocks_rejected > 0)
        DYNADDR_LOG(Warn, cli, "ledger ", ledger_path, ": dropped ",
                    stats.rows_rejected, " rows, ", stats.blocks_rejected,
                    " blocks");
    const auto audit =
        core::audit_attribution(results, table, registry, ledger);
    core::record_attribution_audit(audit);
    std::cout << "Attribution audit (vs " << ledger_path << "):\n"
              << core::render_attribution_audit(audit) << "\n";
}

int cmd_analyze(const std::map<std::string, std::string>& flags) {
    const auto data_it = flags.find("data");
    if (data_it == flags.end()) return usage();
    const fs::path dir(data_it->second);
    const auto sections = selected_sections(
        flags.contains("report") ? flags.at("report") : std::string("all"));

    const auto table = load_context_table(dir);
    const auto registry = load_context_registry(dir);
    if (table.snapshot_count() == 0)
        DYNADDR_LOG(Warn, cli, "no pfx2as_YYYY-MM.txt files in ", dir.string(),
                    "; AS-level analyses will be empty");

    // A DAB2 bundle streams probe by probe in O(probes) memory; a CSV
    // bundle is read whole. Both give byte-identical results.
    core::AnalysisResults results;
    if (atlas::binary_bundle_present(dir.string())) {
        core::StreamingPipeline::Options options;
        options.config = pipeline_config(flags);
        core::StreamingPipeline pipeline(table, registry, options);
        pipeline.open();
        core::feed_binary_bundle(pipeline, dir.string());
        results = pipeline.finish();
        DYNADDR_LOG(Info, cli, "streamed binary bundle: ",
                    pipeline.probes_seen(), " probes, peak ",
                    pipeline.peak_buffered_records(), " buffered records");
    } else {
        results = core::AnalysisPipeline(pipeline_config(flags))
                      .run(atlas::read_bundle(dir.string()), table, registry);
    }
    print_reports(results, table, registry, sections);
    if (auto it = flags.find("audit"); it != flags.end())
        print_audit(results, table, registry, it->second);
    return 0;
}

int cmd_convert(const std::map<std::string, std::string>& flags) {
    const auto in_it = flags.find("in");
    const auto out_it = flags.find("out");
    if (in_it == flags.end() || out_it == flags.end()) return usage();
    const fs::path in_dir(in_it->second);
    const fs::path out_dir(out_it->second);
    const bool source_binary = atlas::binary_bundle_present(in_dir.string());
    std::string to = flags.contains("to")
                         ? flags.at("to")
                         : std::string(source_binary ? "csv" : "binary");
    if (to != "csv" && to != "binary")
        throw Error("unknown --to '" + to + "'");

    auto bundle = atlas::read_bundle_auto(in_dir.string());
    // Probe-grouped, time-sorted order is what the streaming reader's
    // ordering contract wants; CSV bundles from old simulate runs already
    // have it, but normalizing here keeps convert idempotent either way.
    bundle.sort();
    fs::create_directories(out_dir);
    if (to == "binary")
        atlas::write_binary_bundle(out_dir.string(), bundle);
    else
        atlas::write_bundle(out_dir.string(), bundle);

    // Carry the IP-to-AS context along so the output stays analyzable.
    if (fs::exists(in_dir) && !fs::equivalent(in_dir, out_dir)) {
        for (const auto& entry : fs::directory_iterator(in_dir)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("pfx2as_", 0) == 0 || name == "registry.csv")
                fs::copy_file(entry.path(), out_dir / name,
                              fs::copy_options::overwrite_existing);
        }
    }
    std::cout << "converted " << (source_binary ? "binary" : "csv")
              << " bundle in " << in_dir.string() << " -> " << to << " in "
              << out_dir.string() << " ("
              << bundle.connection_log.size() << " connection-log rows, "
              << bundle.kroot_pings.size() << " k-root, "
              << bundle.uptime_records.size() << " uptime, "
              << bundle.probes.size() << " probes)\n";
    return 0;
}

/// `dynaddr explain`: why did this client (or address) change? Prints the
/// causal chain of every matching ledger record, newest last.
int cmd_explain(const std::map<std::string, std::string>& flags) {
    const auto ledger_it = flags.find("ledger");
    const auto client_it = flags.find("client");
    const auto address_it = flags.find("address");
    if (ledger_it == flags.end() ||
        (client_it == flags.end()) == (address_it == flags.end()))
        return usage();

    std::optional<std::uint64_t> client;
    std::optional<net::IPv4Address> address;
    if (client_it != flags.end()) {
        client = std::stoull(client_it->second);
    } else {
        address = net::IPv4Address::parse(address_it->second);
        if (!address)
            throw Error("bad --address '" + address_it->second + "'");
    }

    sim::CauseDecodeStats stats;
    const auto records = sim::read_cause_ledger_file(ledger_it->second, &stats);
    if (stats.rows_rejected > 0 || stats.blocks_rejected > 0)
        std::cerr << "warning: dropped " << stats.rows_rejected << " rows, "
                  << stats.blocks_rejected << " damaged blocks\n";

    std::size_t matched = 0;
    for (const auto& record : records) {
        if (client && record.client != *client) continue;
        if (address && record.old_addr != *address &&
            record.new_addr != *address)
            continue;
        ++matched;
        std::cout << record.at.to_string() << "  client " << record.client
                  << " (probe " << record.probe << "): "
                  << record.old_addr.to_string() << " -> "
                  << record.new_addr.to_string() << "\n"
                  << "    because: " << sim::cause_kind_name(record.kind)
                  << " via " << sim::cause_site_name(record.site)
                  << "\n    root event " << record.root_at.to_string();
        if (record.root_duration > net::Duration::seconds(0))
            std::cout << " (lasting " << record.root_duration.to_string()
                      << ")";
        std::cout << ", address lost " << record.lost_at.to_string() << "\n";
    }
    std::cout << matched << " change(s) of "
              << (client ? "client " + std::to_string(*client)
                         : "address " + address->to_string())
              << " in " << records.size() << " ledger records\n";
    return 0;
}

/// Hidden subcommand (not in usage): deliberately dies so the flight
/// recorder's crash path can be exercised end to end from a test. The
/// mode selects how: segv (default), abort, or terminate.
int cmd_crash_test(const std::map<std::string, std::string>& flags) {
    if (!obs::flight_recorder_enabled()) obs::enable_flight_recorder();
    obs::counter("cli.crash_test_runs").inc();
    for (int i = 0; i < 8; ++i)
        DYNADDR_LOG(Debug, cli, "crash-test breadcrumb ", i);
    DYNADDR_LOG(Info, cli, "crash-test: dying now");
    const std::string mode =
        flags.contains("mode") ? flags.at("mode") : std::string("segv");
    if (mode == "abort") std::abort();
    if (mode == "terminate") std::terminate();
    volatile int* null_pointer = nullptr;
    *null_pointer = 42;
    return 0;  // unreachable
}

/// Minimal loopback HTTP/1.0 GET for `dynaddr top`: returns the response
/// body, or nullopt when the server is unreachable / the reply is not 200.
std::optional<std::string> http_get_body(std::uint16_t port,
                                         const std::string& path) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return std::nullopt;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
        0) {
        ::close(fd);
        return std::nullopt;
    }
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    std::size_t sent = 0;
    while (sent < request.size()) {
        const auto wrote = ::send(fd, request.data() + sent,
                                  request.size() - sent, MSG_NOSIGNAL);
        if (wrote <= 0) break;
        sent += std::size_t(wrote);
    }
    std::string response;
    char buffer[4096];
    for (;;) {
        const auto got = ::recv(fd, buffer, sizeof buffer, 0);
        if (got <= 0) break;
        response.append(buffer, std::size_t(got));
    }
    ::close(fd);
    if (response.rfind("HTTP/1.0 200", 0) != 0 &&
        response.rfind("HTTP/1.1 200", 0) != 0)
        return std::nullopt;
    const auto split = response.find("\r\n\r\n");
    if (split == std::string::npos) return std::nullopt;
    return response.substr(split + 4);
}

std::string human_bytes(double bytes) {
    static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    int unit = 0;
    while (bytes >= 1024.0 && unit < 4) {
        bytes /= 1024.0;
        ++unit;
    }
    char out[32];
    std::snprintf(out, sizeof out, unit == 0 ? "%.0f %s" : "%.1f %s", bytes,
                  units[unit]);
    return out;
}

std::string human_duration(double seconds) {
    if (seconds < 0) return "-";
    return net::Duration::seconds(std::int64_t(seconds)).to_string();
}

/// Renders one /top payload as the `dynaddr top` table.
void render_top(std::ostream& out, const obs::JsonValue& top,
                std::uint16_t port) {
    out << "dynaddr top — 127.0.0.1:" << port << "\n\n";
    if (const obs::JsonValue* p = top.find("progress")) {
        const bool active = p->find("plan_active") != nullptr &&
                            p->find("plan_active")->boolean;
        out << "progress   " << (active ? "running" : "idle/finished") << "\n"
            << "  sim time   " << p->string_or("sim_now", "-") << "  ("
            << int(p->number_or("fraction_done", 0) * 100 + 0.5)
            << "% of plan, horizon " << p->string_or("plan_end", "-") << ")\n"
            << "  events     "
            << std::uint64_t(p->number_or("events_executed", 0)) << "  ("
            << std::uint64_t(p->number_or("events_per_s", 0)) << "/s, "
            << "sim rate " << std::uint64_t(p->number_or("sim_rate", 0))
            << "x)\n"
            << "  eta        " << human_duration(p->number_or("eta_s", -1))
            << "\n";
        if (p->number_or("sealed_probe", -1) >= 0)
            out << "  sealed     probe "
                << std::int64_t(p->number_or("sealed_probe", -1)) << "\n";
    }
    if (const obs::JsonValue* m = top.find("memory")) {
        out << "memory     rss "
            << human_bytes(m->number_or("process_rss_bytes", 0)) << ", peak "
            << human_bytes(m->number_or("process_peak_rss_bytes", 0))
            << ", accounted " << human_bytes(m->number_or("accounted_bytes", 0))
            << ", residual " << human_bytes(m->number_or("residual_bytes", 0))
            << "\n";
        if (const obs::JsonValue* subsystems = m->find("subsystems")) {
            std::size_t shown = 0;
            for (const auto& row : subsystems->array) {
                if (++shown > 8) break;  // already sorted by bytes, desc
                char line[128];
                std::snprintf(line, sizeof line, "  %-24s %12s %12.0f items\n",
                              row.string_or("name", "?").c_str(),
                              human_bytes(row.number_or("bytes", 0)).c_str(),
                              row.number_or("items", 0));
                out << line;
            }
        }
    }
}

/// Renders one /causes payload (live cause-ledger counters) under the
/// /top view. Quiet when no ledger is running (empty object).
void render_causes(std::ostream& out, const obs::JsonValue& causes) {
    if (causes.object.empty()) return;
    out << "causes     " << std::uint64_t(causes.number_or("records", 0))
        << " records\n";
    for (const auto& [name, value] : causes.object) {
        if (name == "records" || value.type != obs::JsonValue::Type::Number ||
            value.number == 0)
            continue;
        char line[96];
        std::snprintf(line, sizeof line, "  %-24s %12.0f\n", name.c_str(),
                      value.number);
        out << line;
    }
}

int cmd_top(const std::map<std::string, std::string>& flags) {
    const auto port_it = flags.find("port");
    if (port_it == flags.end()) return usage();
    const auto port = std::uint16_t(std::stoul(port_it->second));
    const double interval =
        flags.contains("interval") ? std::stod(flags.at("interval")) : 2.0;
    const long count =
        flags.contains("count") ? std::stol(flags.at("count")) : 0;  // 0 = on

    bool ever_polled = false;
    for (long i = 0; count == 0 || i < count; ++i) {
        if (i > 0)
            std::this_thread::sleep_for(
                std::chrono::duration<double>(interval));
        const auto body = http_get_body(port, "/top");
        if (!body) {
            if (ever_polled) {
                std::cout << "run ended (stats endpoint gone)\n";
                return 0;
            }
            std::cerr << "error: no stats endpoint on 127.0.0.1:" << port
                      << " (start the run with --stats-port " << port
                      << ")\n";
            return 1;
        }
        const auto top = obs::json_parse(*body);
        if (!top) {
            std::cerr << "error: malformed /top payload\n";
            return 1;
        }
        // Self-updating display only when looping: clear + home between
        // frames; a single shot (--count 1) stays pipe-friendly.
        if (count != 1) std::cout << "\x1b[H\x1b[2J";
        render_top(std::cout, *top, port);
        if (const auto causes_json = http_get_body(port, "/causes"))
            if (const auto causes = obs::json_parse(*causes_json))
                render_causes(std::cout, *causes);
        std::cout.flush();
        ever_polled = true;
    }
    return 0;
}

int cmd_demo(const std::map<std::string, std::string>& flags) {
    const std::string preset =
        flags.contains("preset") ? flags.at("preset") : std::string("quick");
    const auto config = scenario_from_flags(preset, flags);
    std::cout << "simulating " << preset << " preset...\n";
    const auto scenario = isp::run_scenario(config);
    core::AnalysisPipeline pipeline(pipeline_config(flags));
    const auto results = pipeline.run(scenario.bundle, scenario.prefix_table,
                                      scenario.registry, config.window);
    print_reports(results, scenario.prefix_table, scenario.registry,
                  selected_sections("all"));
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc < 2) return usage();
        // Flags-only invocation (e.g. `dynaddr --preset quick`) is
        // shorthand for the demo command.
        std::string command = argv[1];
        int flags_from = 2;
        if (command.rfind("--", 0) == 0) {
            command = "demo";
            flags_from = 1;
        }
        const auto flags = parse_flags(argc, argv, flags_from);
        if (command == "-h" || flags.contains("help")) return usage(std::cout, 0);
        apply_obs_flags(flags);
        const auto fault_scope = apply_fault_flags(flags);
        int status;
        if (command == "simulate") status = cmd_simulate(flags);
        else if (command == "analyze") status = cmd_analyze(flags);
        else if (command == "convert") status = cmd_convert(flags);
        else if (command == "demo") status = cmd_demo(flags);
        else if (command == "explain") status = cmd_explain(flags);
        else if (command == "crash-test") status = cmd_crash_test(flags);
        else if (command == "top") status = cmd_top(flags);
        else return usage();
        if (status == 0) write_obs_outputs(flags);
        shutdown_live_obs();
        return status;
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << "\n";
        shutdown_live_obs();
        return 1;
    }
}
