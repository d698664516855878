// Byte-level determinism of the simulator output. The heap event engine
// must preserve the exact event interleaving of the original ordered-map
// queue: two runs of any preset must serialize to identical CSV bytes, at
// any thread count, on every dataset in the bundle.
//
// Observability must be a pure observer: enabling trace-level logging and
// span collection must not perturb a single byte of the analysis output.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <tuple>
#include <sstream>
#include <string>
#include <thread>

#include "atlas/datasets.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "isp/presets.hpp"
#include "isp/world.hpp"
#include "netcore/obs/flight_recorder.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/obs/profiler.hpp"
#include "netcore/obs/progress.hpp"
#include "netcore/obs/stats_server.hpp"
#include "netcore/obs/timeseries.hpp"
#include "netcore/obs/trace.hpp"
#include "sim/cause_ledger.hpp"
#include "sim/faults.hpp"

namespace dynaddr {
namespace {

/// Serializes every dataset of a bundle to one CSV blob, in a fixed order.
std::string serialize_bundle(const atlas::DatasetBundle& bundle) {
    std::ostringstream out;
    atlas::write_connection_log_csv(out, bundle.connection_log);
    atlas::write_kroot_csv(out, bundle.kroot_pings);
    atlas::write_uptime_csv(out, bundle.uptime_records);
    atlas::write_probes_csv(out, bundle.probes);
    return std::move(out).str();
}

TEST(SimulatorDeterminism, QuickPresetIsByteIdenticalAcrossRuns) {
    const auto config = isp::presets::quick_scenario();
    const auto first = serialize_bundle(isp::run_scenario(config).bundle);
    const auto second = serialize_bundle(isp::run_scenario(config).bundle);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(SimulatorDeterminism, OutagePresetIsByteIdenticalAcrossRuns) {
    const auto config = isp::presets::outage_scenario();
    const auto first = serialize_bundle(isp::run_scenario(config).bundle);
    const auto second = serialize_bundle(isp::run_scenario(config).bundle);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

/// Simulates a preset, analyzes it, and fingerprints every rendered table —
/// the full user-visible analysis output.
std::string analysis_fingerprint(const isp::ScenarioConfig& config) {
    const auto scenario = isp::run_scenario(config);
    const auto results = core::AnalysisPipeline{}.run(
        scenario.bundle, scenario.prefix_table, scenario.registry);
    std::string out = serialize_bundle(scenario.bundle);
    out += core::render_summary(results);
    out += core::render_table2(results.filter);
    out += core::render_table5(results.periodicity);
    out += core::render_table6(results.cond_prob);
    out += core::render_table7(results.prefix_changes);
    return out;
}

/// Runs the fingerprint with obs fully off, then fully on (trace-level
/// logging into a throwaway sink + span collection), and restores state.
void expect_obs_invariant(const isp::ScenarioConfig& config) {
    const auto baseline = analysis_fingerprint(config);
    ASSERT_FALSE(baseline.empty());

    const auto old_level = obs::log_level();
    std::ostringstream log_capture;
    obs::set_log_sink(&log_capture);
    obs::set_log_level(obs::LogLevel::Trace);
    obs::enable_trace();
    const auto observed = analysis_fingerprint(config);
    obs::disable_trace();
    obs::clear_trace();
    obs::set_log_level(old_level);
    obs::set_log_sink(nullptr);

    EXPECT_EQ(baseline, observed);
    // The run really was observed: logging fired.
    EXPECT_FALSE(log_capture.str().empty());
}

// -- fault-injection determinism -----------------------------------------
// The fault layer must be (a) invisible when off — an installed injector
// with an all-zero plan, or no plan at all, changes nothing — and (b)
// bit-reproducible when on: the same plan and seed give byte-identical
// output, while a different fault seed gives a different world.

TEST(FaultDeterminism, SameSeedSamePlanIsByteIdentical) {
    auto config = isp::presets::quick_scenario();
    config.faults = sim::FaultPlan::parse("chaos,seed=7");
    const auto first = serialize_bundle(isp::run_scenario(config).bundle);
    const auto second = serialize_bundle(isp::run_scenario(config).bundle);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(FaultDeterminism, EmptyPlanMatchesNoInjector) {
    auto config = isp::presets::quick_scenario();
    const auto bare = serialize_bundle(isp::run_scenario(config).bundle);
    config.faults = sim::FaultPlan{};  // injector installed, all rates zero
    const auto gated = serialize_bundle(isp::run_scenario(config).bundle);
    EXPECT_EQ(bare, gated);
}

TEST(FaultDeterminism, DifferentFaultSeedsDiverge) {
    auto config = isp::presets::quick_scenario();
    config.faults = sim::FaultPlan::parse("chaos,seed=1");
    const auto first = serialize_bundle(isp::run_scenario(config).bundle);
    config.faults->seed = 2;
    const auto second = serialize_bundle(isp::run_scenario(config).bundle);
    EXPECT_NE(first, second);
}

TEST(FaultDeterminism, FaultPlanSpecRoundTrips) {
    const auto plan = sim::FaultPlan::parse(
        "lossy,crashy,dhcp.drop=0.25,ppp.delay=0.1,seed=42,active=0.5");
    const auto reparsed = sim::FaultPlan::parse(plan.to_string());
    EXPECT_EQ(plan.to_string(), reparsed.to_string());
    EXPECT_EQ(reparsed.seed, 42u);
    EXPECT_DOUBLE_EQ(reparsed.dhcp.drop, 0.25);
    EXPECT_DOUBLE_EQ(reparsed.active_fraction, 0.5);
}

TEST(ObsDeterminism, QuickPresetAnalysisUnaffectedByObservability) {
    expect_obs_invariant(isp::presets::quick_scenario());
}

TEST(ObsDeterminism, OutagePresetAnalysisUnaffectedByObservability) {
    expect_obs_invariant(isp::presets::outage_scenario());
}

TEST(ObsDeterminism, PaperPresetAnalysisUnaffectedByObservability) {
    expect_obs_invariant(isp::presets::paper_scenario());
}

// -- cause-ledger determinism --------------------------------------------
// The cause ledger is a pure observer with the same contract as the obs
// stack: installing it (production config, no record retention) must not
// perturb a byte of simulator output or analysis rendering, and with
// retention on, the ledger must mirror the ground-truth address changes
// exactly once each.

void expect_ledger_invariant(const isp::ScenarioConfig& config) {
    const auto baseline = analysis_fingerprint(config);
    ASSERT_FALSE(baseline.empty());
    std::string observed;
    std::uint64_t recorded = 0;
    {
        sim::CauseLedgerConfig ledger_config;
        ledger_config.keep_records = false;  // production shape: O(1) memory
        sim::ScopedCauseLedger ledger(ledger_config);
        observed = analysis_fingerprint(config);
        recorded = ledger.ledger().total_records();
    }
    EXPECT_EQ(baseline, observed);
    EXPECT_GT(recorded, 0u) << "the run really was observed";
}

TEST(ObsDeterminism, QuickPresetAnalysisUnaffectedByCauseLedger) {
    expect_ledger_invariant(isp::presets::quick_scenario());
}

TEST(ObsDeterminism, OutagePresetAnalysisUnaffectedByCauseLedger) {
    expect_ledger_invariant(isp::presets::outage_scenario());
}

TEST(ObsDeterminism, PaperPresetAnalysisUnaffectedByCauseLedger) {
    expect_ledger_invariant(isp::presets::paper_scenario());
}

TEST(CauseLedgerExactlyOnce, EveryGroundTruthChangeHasOneRecord) {
    // Every IPv4 address change in the simulator's ground-truth timelines
    // appears in the ledger exactly once, keyed by (probe, instant,
    // old address, new address) — no drops, no duplicates.
    sim::ScopedCauseLedger ledger;  // retention on
    const auto scenario = isp::run_scenario(isp::presets::quick_scenario());
    const auto& records = ledger.ledger().records();

    std::map<std::tuple<atlas::ProbeId, std::int64_t, std::uint32_t,
                        std::uint32_t>,
             int>
        seen;
    for (const auto& record : records)
        ++seen[{record.probe, record.at.unix_seconds(), record.old_addr.value(),
                record.new_addr.value()}];

    std::size_t truth_changes = 0;
    for (const auto& timeline : scenario.timelines) {
        for (const auto& change : timeline.address_changes()) {
            if (change.from.family != atlas::PeerAddress::Family::IPv4 ||
                change.to.family != atlas::PeerAddress::Family::IPv4)
                continue;
            ++truth_changes;
            const auto it = seen.find({timeline.probe(),
                                       change.at.unix_seconds(),
                                       change.from.v4.value(),
                                       change.to.v4.value()});
            ASSERT_NE(it, seen.end())
                << "probe " << timeline.probe() << " change at "
                << change.at.unix_seconds() << " missing from the ledger";
            EXPECT_EQ(it->second, 1)
                << "probe " << timeline.probe() << " change at "
                << change.at.unix_seconds() << " recorded more than once";
        }
    }
    ASSERT_GT(truth_changes, 0u);
    EXPECT_EQ(records.size(), truth_changes)
        << "ledger must not invent records beyond the ground truth";
}

/// One GET against the live stats endpoint; returns the bytes received.
std::size_t poll_metrics(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return 0;
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port);
    std::size_t received = 0;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                  sizeof address) == 0) {
        const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
        if (::send(fd, request, sizeof request - 1, 0) > 0) {
            char buffer[4096];
            for (;;) {
                const auto got = ::recv(fd, buffer, sizeof buffer, 0);
                if (got <= 0) break;
                received += std::size_t(got);
            }
        }
    }
    ::close(fd);
    return received;
}

/// The live layer — time-series recorder ticking in simulated time, the
/// stats endpoint being polled from another thread, the flight recorder
/// capturing every record, the memory accountants publishing, the
/// progress watermarks, and the 97 Hz sampling profiler interrupting the
/// run with SIGPROF — must all be pure observers: fingerprints with
/// everything on match a bare run byte for byte.
void expect_live_obs_invariant(const isp::ScenarioConfig& config) {
    const auto baseline = analysis_fingerprint(config);
    ASSERT_FALSE(baseline.empty());

    auto& recorder = obs::SeriesRecorder::instance();
    recorder.disable();
    recorder.configure({3600.0, 512});
    recorder.enable();
    obs::enable_flight_recorder(128, /*install_handlers=*/false);
    obs::clear_profile();
    obs::profiler_register_current_thread("determinism-main");
    obs::start_profiler(97.0);
    obs::StatsServer server(0);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> polled{0};
    std::thread poller([&] {
        while (!stop.load()) {
            polled.fetch_add(poll_metrics(server.port()));
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    });

    const auto observed = analysis_fingerprint(config);

    stop.store(true);
    poller.join();
    server.stop();
    obs::stop_profiler();
    obs::profiler_unregister_current_thread();
    obs::disable_flight_recorder();
    recorder.disable();

    EXPECT_EQ(baseline, observed);
    // The run really was watched: samples were taken in simulated time,
    // the endpoint answered while the analysis ran, the accountants
    // published, the progress watermarks moved, and the profiler
    // actually interrupted the run.
    EXPECT_GT(recorder.samples_taken(), 0u);
    EXPECT_GT(polled.load(), 0u);
    EXPECT_FALSE(obs::flight_records().empty());
    EXPECT_GT(obs::profiler_samples_taken(), 0u);
    const auto mem = obs::mem_final_report();
    ASSERT_TRUE(mem.has_value());
    EXPECT_GT(mem->accounted_bytes, 0u);
    const auto progress = obs::progress_snapshot();
    EXPECT_EQ(progress.sim_now, config.window.end);
    EXPECT_GT(progress.events_executed, 0u);
    obs::clear_profile();
}

TEST(LiveObsDeterminism, QuickPresetUnaffectedByLiveObservers) {
    expect_live_obs_invariant(isp::presets::quick_scenario());
}

TEST(LiveObsDeterminism, OutagePresetUnaffectedByLiveObservers) {
    expect_live_obs_invariant(isp::presets::outage_scenario());
}

TEST(LiveObsDeterminism, PaperPresetUnaffectedByLiveObservers) {
    expect_live_obs_invariant(isp::presets::paper_scenario());
}

}  // namespace
}  // namespace dynaddr
