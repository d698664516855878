// StreamingPipeline vs the batch reference: byte-identical fingerprints
// on the presets (any thread count, obs on or off), the push-interface
// ordering contract, O(probes) memory accounting, and the binary- and
// CSV-bundle ingestion paths.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "atlas/binary_bundle.hpp"
#include "core/pipeline.hpp"
#include "core/streaming_pipeline.hpp"
#include "isp/presets.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/trace.hpp"
#include "oracles/fingerprint.hpp"
#include "oracles/reference_pipeline.hpp"

namespace dynaddr::core {
namespace {

namespace fs = std::filesystem;

std::string reference_fingerprint(const isp::ScenarioResult& scenario,
                                  const isp::ScenarioConfig& config,
                                  std::size_t threads) {
    PipelineConfig pipeline_config;
    pipeline_config.threads = threads;
    return fingerprint(run_reference(pipeline_config, scenario.bundle,
                                     scenario.prefix_table, scenario.registry,
                                     config.window));
}

std::string streaming_fingerprint(const isp::ScenarioResult& scenario,
                                  const isp::ScenarioConfig& config,
                                  std::size_t threads) {
    StreamingPipeline::Options options;
    options.config.threads = threads;
    StreamingPipeline pipeline(scenario.prefix_table, scenario.registry,
                               options);
    pipeline.open(config.window);
    pipeline.feed_bundle(scenario.bundle);
    return fingerprint(pipeline.finish());
}

void expect_streaming_matches_reference(const isp::ScenarioConfig& config) {
    const auto scenario = isp::run_scenario(config);
    const std::string reference = reference_fingerprint(scenario, config, 1);
    ASSERT_FALSE(reference.empty());
    for (const std::size_t threads : {1u, 0u})
        EXPECT_TRUE(streaming_fingerprint(scenario, config, threads) ==
                    reference)
            << "threads=" << threads;
}

TEST(StreamingDifferential, QuickPreset) {
    expect_streaming_matches_reference(isp::presets::quick_scenario());
}

TEST(StreamingDifferential, OutagePreset) {
    expect_streaming_matches_reference(isp::presets::outage_scenario());
}

TEST(StreamingDifferential, PaperPreset) {
    expect_streaming_matches_reference(isp::presets::paper_scenario());
}

TEST(StreamingDifferential, IdenticalWithObsTracingEnabled) {
    // The streaming path emits its own spans/counters; none of that may
    // leak into the analysis output.
    const auto config = isp::presets::quick_scenario();
    const auto scenario = isp::run_scenario(config);
    const std::string reference = reference_fingerprint(scenario, config, 2);
    obs::enable_trace();
    const std::string streamed = streaming_fingerprint(scenario, config, 2);
    obs::disable_trace();
    EXPECT_TRUE(streamed == reference);
}

TEST(StreamingDifferential, BatchRunIsTheStreamingAdapter) {
    // AnalysisPipeline::run routes through StreamingPipeline; it must
    // still equal the preserved reference implementation.
    const auto config = isp::presets::quick_scenario();
    const auto scenario = isp::run_scenario(config);
    PipelineConfig pipeline_config;
    pipeline_config.threads = 1;
    AnalysisPipeline pipeline(pipeline_config);
    const auto via_run = fingerprint(pipeline.run(
        scenario.bundle, scenario.prefix_table, scenario.registry,
        config.window));
    EXPECT_TRUE(via_run == reference_fingerprint(scenario, config, 1));
}

// -- push-interface contract -------------------------------------------------

class StreamingContract : public ::testing::Test {
protected:
    StreamingContract() : pipeline_(table_, registry_) {}

    atlas::ConnectionLogEntry entry(atlas::ProbeId probe, int day) {
        atlas::ConnectionLogEntry e;
        e.probe = probe;
        e.start = net::TimePoint::from_date(2015, 1, 1) +
                  net::Duration::hours(24 * day);
        e.end = e.start + net::Duration::hours(20);
        e.address = atlas::PeerAddress::ipv4(
            net::IPv4Address{0x5B37AE00u + std::uint32_t(day)});
        return e;
    }

    bgp::PrefixTable table_;
    bgp::AsRegistry registry_;
    StreamingPipeline pipeline_;
};

TEST_F(StreamingContract, FeedBeforeOpenThrows) {
    EXPECT_THROW(pipeline_.feed_connection(entry(1, 0)), Error);
    EXPECT_THROW((void)pipeline_.finish(), Error);
}

TEST_F(StreamingContract, SealedProbeRejectsLateRecords) {
    pipeline_.open();
    pipeline_.feed_connection(entry(5, 0));
    pipeline_.seal_through(5);
    EXPECT_THROW(pipeline_.feed_connection(entry(5, 1)), Error);
    EXPECT_THROW(pipeline_.feed_connection(entry(3, 1)), Error);
    pipeline_.feed_connection(entry(6, 1));  // later probes still fine
}

TEST_F(StreamingContract, ChannelProbeOrderMustBeNonDecreasing) {
    pipeline_.open();
    pipeline_.feed_connection(entry(10, 0));
    pipeline_.feed_connection(entry(10, 1));  // same probe: fine
    EXPECT_THROW(pipeline_.feed_connection(entry(9, 0)), Error);
}

TEST_F(StreamingContract, SealThroughMustBeNonDecreasing) {
    pipeline_.open();
    pipeline_.feed_connection(entry(8, 0));
    pipeline_.seal_through(8);
    EXPECT_THROW(pipeline_.seal_through(7), Error);
    pipeline_.seal_through(8);  // equal is a no-op
}

TEST_F(StreamingContract, FinishWithNoWindowAndNoRecordsThrows) {
    pipeline_.open();
    try {
        (void)pipeline_.finish();
        FAIL() << "expected Error";
    } catch (const Error& error) {
        EXPECT_NE(std::string(error.what()).find("empty connection log"),
                  std::string::npos);
    }
}

TEST_F(StreamingContract, SpentAfterFinishUntilReopened) {
    pipeline_.open(net::TimeInterval{net::TimePoint::from_date(2015, 1, 1),
                                     net::TimePoint::from_date(2015, 2, 1)});
    pipeline_.feed_connection(entry(1, 0));
    (void)pipeline_.finish();
    EXPECT_THROW(pipeline_.feed_connection(entry(2, 0)), Error);
    pipeline_.open();
    pipeline_.feed_connection(entry(2, 0));  // fresh run
}

// -- memory accounting --------------------------------------------------------

TEST(StreamingMemory, PeakBufferedIsPerProbeNotPerDataset) {
    // Feed the quick preset probe by probe with seals between probes: the
    // high-water mark must track the widest single probe, not the whole
    // dataset — the O(probes) acceptance check.
    const auto config = isp::presets::quick_scenario();
    const auto scenario = isp::run_scenario(config);

    // Per-probe record tally to know the widest probe up front.
    std::map<atlas::ProbeId, std::size_t> per_probe;
    for (const auto& e : scenario.bundle.connection_log)
        ++per_probe[e.probe];
    for (const auto& r : scenario.bundle.kroot_pings) ++per_probe[r.probe];
    for (const auto& r : scenario.bundle.uptime_records) ++per_probe[r.probe];
    std::size_t widest = 0, total = 0;
    for (const auto& [probe, count] : per_probe) {
        widest = std::max(widest, count);
        total += count;
    }
    ASSERT_GT(total, widest * 4) << "scenario too small to be meaningful";

    // finalize_batch=1 flushes each probe as it seals, making the
    // buffered high-water mark exactly the per-probe bound; the default
    // batching would hold finalize_batch probes' raw records instead.
    StreamingPipeline::Options options;
    options.finalize_batch = 1;
    StreamingPipeline pipeline(scenario.prefix_table, scenario.registry,
                               options);
    pipeline.open(config.window);
    // The bundle is per-probe sorted; walk it probe by probe, sealing as
    // we go (what stream_binary_bundle does via the footer index).
    for (const auto& meta : scenario.bundle.probes)
        pipeline.feed_metadata(meta);
    std::size_t ci = 0, ki = 0, ui = 0;
    for (const auto& [probe, count] : per_probe) {
        while (ci < scenario.bundle.connection_log.size() &&
               scenario.bundle.connection_log[ci].probe == probe)
            pipeline.feed_connection(scenario.bundle.connection_log[ci++]);
        while (ki < scenario.bundle.kroot_pings.size() &&
               scenario.bundle.kroot_pings[ki].probe == probe)
            pipeline.feed_kroot(scenario.bundle.kroot_pings[ki++]);
        while (ui < scenario.bundle.uptime_records.size() &&
               scenario.bundle.uptime_records[ui].probe == probe)
            pipeline.feed_uptime(scenario.bundle.uptime_records[ui++]);
        pipeline.seal_through(probe);
    }
    const auto results = pipeline.finish();

    EXPECT_GE(pipeline.probes_seen(), per_probe.size());
    EXPECT_EQ(pipeline.buffered_records(), 0u);
    EXPECT_LE(pipeline.peak_buffered_records(), widest);
    EXPECT_LT(pipeline.peak_buffered_records(), total / 2);
    EXPECT_FALSE(results.changes.empty());
}

// -- binary-bundle ingestion --------------------------------------------------

TEST(StreamingBinary, FeedBinaryBundleMatchesBatch) {
    const auto config = isp::presets::quick_scenario();
    const auto scenario = isp::run_scenario(config);
    const std::string reference = reference_fingerprint(scenario, config, 1);

    const fs::path dir =
        fs::temp_directory_path() /
        ("dynaddr_streaming_dab_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    auto sorted = scenario.bundle;
    sorted.sort();
    atlas::write_binary_bundle(dir.string(), sorted, 64);

    StreamingPipeline::Options options;
    options.config.threads = 1;
    StreamingPipeline pipeline(scenario.prefix_table, scenario.registry,
                               options);
    pipeline.open(config.window);
    feed_binary_bundle(pipeline, dir.string());
    const std::string streamed = fingerprint(pipeline.finish());
    fs::remove_all(dir);

    EXPECT_TRUE(streamed == reference);
    EXPECT_EQ(pipeline.buffered_records(), 0u);
    EXPECT_GT(pipeline.probes_seen(), 0u);
}

std::size_t outage_count(
    const std::map<atlas::ProbeId, std::vector<DetectedOutage>>& outages) {
    std::size_t count = 0;
    for (const auto& [probe, list] : outages) count += list.size();
    return count;
}

TEST(StreamingBinary, TeedOutageBundleMatchesReferenceBothWays) {
    // The simulator tee writes DAB2 blocks in emission order, probes
    // interleaved. Both readers must still hand the analysis each probe's
    // records together: a probe whose uptime records arrive in several
    // runs keeps only the first, and the power outages vanish.
    const fs::path dir =
        fs::temp_directory_path() /
        ("dynaddr_streaming_teed_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    auto config = isp::presets::outage_scenario();
    std::optional<isp::ScenarioResult> scenario;
    {
        atlas::BinaryBundleWriter writer(dir.string());
        config.bundle_sink = &writer;
        scenario.emplace(isp::run_scenario(config));
        writer.close();
    }
    const std::string reference = reference_fingerprint(*scenario, config, 1);

    PipelineConfig pipeline_config;
    pipeline_config.threads = 1;
    const auto batch = AnalysisPipeline(pipeline_config)
                           .run(atlas::read_binary_bundle(dir.string()),
                                scenario->prefix_table, scenario->registry,
                                config.window);
    EXPECT_GT(outage_count(batch.power_outages), 0u);
    EXPECT_TRUE(fingerprint(batch) == reference)
        << "batch read of the teed bundle differs from the reference";

    StreamingPipeline::Options options;
    options.config.threads = 1;
    StreamingPipeline pipeline(scenario->prefix_table, scenario->registry,
                               options);
    pipeline.open(config.window);
    feed_binary_bundle(pipeline, dir.string());
    const auto streamed = pipeline.finish();
    fs::remove_all(dir);
    EXPECT_GT(outage_count(streamed.power_outages), 0u);
    EXPECT_TRUE(fingerprint(streamed) == reference)
        << "streamed read of the teed bundle differs from the reference";
}

// -- CSV bundle ingestion -----------------------------------------------------

TEST(CsvBundle, TimeOrderedFilesAnalyzeLikeProbeSorted) {
    // K-root and SOS-uptime results arrive per measurement, in time order,
    // not grouped by probe. read_bundle must regroup them: the analysis
    // keeps only the first run of a probe's records, so an ungrouped file
    // loses nearly every §5 outage.
    const fs::path dir =
        fs::temp_directory_path() /
        ("dynaddr_csv_time_ordered_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    const auto config = isp::presets::outage_scenario();
    const auto scenario = isp::run_scenario(config);
    atlas::write_bundle(dir.string(), scenario.bundle);

    PipelineConfig pipeline_config;
    pipeline_config.threads = 1;
    const AnalysisPipeline pipeline(pipeline_config);
    auto analyze = [&] {
        return pipeline.run(atlas::read_bundle(dir.string()),
                            scenario.prefix_table, scenario.registry,
                            config.window);
    };
    const auto probe_sorted = analyze();

    auto by_time = [](const auto& a, const auto& b) {
        return a.timestamp < b.timestamp;
    };
    auto kroot = scenario.bundle.kroot_pings;
    std::stable_sort(kroot.begin(), kroot.end(), by_time);
    auto uptime = scenario.bundle.uptime_records;
    std::stable_sort(uptime.begin(), uptime.end(), by_time);
    {
        std::ofstream out(dir / "kroot.csv");
        atlas::write_kroot_csv(out, kroot);
    }
    {
        std::ofstream out(dir / "uptime.csv");
        atlas::write_uptime_csv(out, uptime);
    }
    const auto time_ordered = analyze();
    fs::remove_all(dir);

    EXPECT_GT(outage_count(probe_sorted.network_outages), 0u);
    EXPECT_GT(outage_count(probe_sorted.power_outages), 0u);
    EXPECT_TRUE(fingerprint(time_ordered) == fingerprint(probe_sorted))
        << "time-ordered kroot.csv/uptime.csv analyze differently";
}

}  // namespace
}  // namespace dynaddr::core
