// StreamingPipeline vs the batch reference: byte-identical fingerprints
// on the presets (any thread count, obs on or off), the push-interface
// ordering contract, O(probes) memory accounting, and the binary-bundle
// ingestion path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "atlas/binary_bundle.hpp"
#include "core/pipeline.hpp"
#include "core/streaming_pipeline.hpp"
#include "isp/presets.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/trace.hpp"

namespace dynaddr::core {
namespace {

namespace fs = std::filesystem;

void dump_outage_map(
    std::ostream& out, const char* tag,
    const std::map<atlas::ProbeId, std::vector<DetectedOutage>>& outages) {
    for (const auto& [probe, list] : outages) {
        out << tag << ' ' << probe;
        for (const auto& o : list)
            out << " [" << int(o.kind) << ' ' << o.begin.unix_seconds() << ' '
                << o.end.unix_seconds() << ']';
        out << '\n';
    }
}

void dump_outcome_map(
    std::ostream& out, const char* tag,
    const std::map<atlas::ProbeId, std::vector<OutageOutcome>>& outcomes) {
    for (const auto& [probe, list] : outcomes) {
        out << tag << ' ' << probe;
        for (const auto& o : list)
            out << " [" << o.outage.begin.unix_seconds() << ' '
                << o.outage.end.unix_seconds() << ' ' << o.address_change
                << ']';
        out << '\n';
    }
}

/// Byte-exact rendering of every analysis output: anything the streaming
/// path derives differently from the reference shows up as a diff here.
std::string fingerprint(const AnalysisResults& r) {
    std::ostringstream out;
    out << "window " << r.window.begin.unix_seconds() << ' '
        << r.window.end.unix_seconds() << '\n';
    for (const auto& [probe, category] : r.filter.category)
        out << "cat " << probe << ' ' << category_name(category) << '\n';
    out << "analyzable-logs " << r.filter.analyzable.size() << '\n';
    for (const auto& [probe, version] : r.probe_versions)
        out << "ver " << probe << ' ' << int(version) << '\n';
    for (const auto& pc : r.changes) {
        out << "probe " << pc.probe << " total "
            << pc.total_address_time.count() << '\n';
        for (const auto& c : pc.changes)
            out << "  change " << c.last_seen.unix_seconds() << ' '
                << c.first_seen.unix_seconds() << ' ' << c.from.to_string()
                << ' ' << c.to.to_string() << '\n';
        for (const auto& s : pc.spans)
            out << "  span " << s.address.to_string() << ' '
                << s.begin.unix_seconds() << ' ' << s.end.unix_seconds()
                << '\n';
    }
    out << "ipv6 " << r.ipv6_privacy.total_addresses << ' '
        << r.ipv6_privacy.ephemeral_addresses << ' '
        << r.ipv6_privacy.rotating_probes << '\n';
    out << "firmware median " << r.firmware.median_per_day << '\n';
    for (const auto& [day, count] : r.firmware.probes_rebooted_per_day)
        out << "reboots " << day << ' ' << count << '\n';
    for (const auto& release : r.firmware.release_days)
        out << "release " << release.unix_seconds() << '\n';
    dump_outage_map(out, "nw", r.network_outages);
    dump_outage_map(out, "pw", r.power_outages);
    dump_outcome_map(out, "nw-out", r.network_outcomes);
    dump_outcome_map(out, "pw-out", r.power_outcomes);
    for (const auto& p : r.cond_prob.probes)
        out << "cp " << p.probe << ' ' << p.network_outages << ' '
            << p.network_changes << ' ' << p.power_outages << ' '
            << p.power_changes << '\n';
    auto dump_row = [&](const Table6Row& row) {
        out << "t6 " << row.asn << ' ' << row.as_name << ' ' << row.n << ' '
            << row.pct_nw_over << ' ' << row.pct_nw_one << ' '
            << row.pct_pw_over << ' ' << row.pct_pw_one << '\n';
    };
    dump_row(r.cond_prob.all);
    for (const auto& row : r.cond_prob.as_rows) dump_row(row);
    auto dump_t5 = [&](const Table5Row& row) {
        out << "t5 " << row.asn << ' ' << row.as_name << ' ' << row.d_hours
            << ' ' << row.probes_with_change << ' ' << row.periodic_probes
            << ' ' << row.pct_over_half << ' ' << row.pct_harmonic << '\n';
    };
    for (const auto& row : r.periodicity.all_rows) dump_t5(row);
    for (const auto& row : r.periodicity.as_rows) dump_t5(row);
    auto dump_t7 = [&](const Table7Row& row) {
        out << "t7 " << row.asn << ' ' << row.as_name << ' '
            << row.total_changes << ' ' << row.diff_bgp << ' ' << row.diff_16
            << ' ' << row.diff_8 << '\n';
    };
    dump_t7(r.prefix_changes.all);
    for (const auto& row : r.prefix_changes.as_rows) dump_t7(row);
    out << "admin " << r.admin_events.size() << '\n';
    return out.str();
}

std::string reference_fingerprint(const isp::ScenarioResult& scenario,
                                  const isp::ScenarioConfig& config,
                                  std::size_t threads) {
    PipelineConfig pipeline_config;
    pipeline_config.threads = threads;
    AnalysisPipeline pipeline(pipeline_config);
    return fingerprint(pipeline.run_reference(scenario.bundle,
                                              scenario.prefix_table,
                                              scenario.registry,
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
        EXPECT_EQ(streaming_fingerprint(scenario, config, threads), reference)
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
    EXPECT_EQ(streamed, reference);
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
    EXPECT_EQ(via_run, reference_fingerprint(scenario, config, 1));
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

    EXPECT_EQ(streamed, reference);
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
    // EXPECT_TRUE, not EXPECT_EQ: on a mismatch gtest would diff the two
    // fingerprints line by line, and at this size that exhausts memory.
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

}  // namespace
}  // namespace dynaddr::core
