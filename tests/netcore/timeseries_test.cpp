#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "netcore/obs/json.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/timeseries.hpp"
#include "netcore/time.hpp"
#include "sim/simulation.hpp"

namespace dynaddr::obs {
namespace {

/// The recorder is process-global; every test starts from a clean,
/// enabled recorder with its own cadence and capacity.
void reset_recorder(double interval_seconds, std::size_t capacity) {
    auto& recorder = SeriesRecorder::instance();
    recorder.disable();
    recorder.configure({interval_seconds, capacity});
    recorder.enable();
}

std::vector<SeriesRow> rows_for(const std::string& metric) {
    std::vector<SeriesRow> out;
    for (auto& row : SeriesRecorder::instance().rows())
        if (row.metric == metric) out.push_back(std::move(row));
    return out;
}

TEST(SeriesRecorder, SamplesOnSimulatedCadence) {
    reset_recorder(60.0, 128);
    Counter& hits = counter("timeseries_test.cadence");
    {
        sim::Simulation sim(net::TimePoint{1'000'000});
        // 6 increments per 60-second sampling interval, phase-shifted by
        // 5 s so no increment ever ties with a recorder tick (events at
        // the same timestamp run in scheduling order, and the tick was
        // scheduled first).
        sim.every(sim.now() + net::Duration::seconds(5),
                  net::Duration::seconds(10),
                  [&](net::TimePoint) { hits.inc(); });
        sim.run_until(net::TimePoint{1'000'000} + net::Duration::minutes(10));
    }
    SeriesRecorder::instance().disable();

    EXPECT_EQ(SeriesRecorder::instance().samples_taken(), 10u);
    const auto series = rows_for("timeseries_test.cadence");
    ASSERT_EQ(series.size(), 10u);
    for (std::size_t i = 0; i < series.size(); ++i) {
        // Ticks land at start + 60, start + 120, ... in simulated time.
        EXPECT_EQ(series[i].t, double(1'000'000 + 60 * (i + 1)));
        EXPECT_TRUE(series[i].is_counter);
        EXPECT_EQ(series[i].value, 6);
        EXPECT_EQ(series[i].cumulative, std::int64_t(6 * (i + 1)));
        EXPECT_DOUBLE_EQ(series[i].rate, 0.1);
    }
}

TEST(SeriesRecorder, DeltasAreRelativeToEnableBaseline) {
    Counter& hits = counter("timeseries_test.baseline");
    hits.inc(1000);  // pre-enable history must not leak into the series
    reset_recorder(1.0, 16);
    hits.inc(3);
    SeriesRecorder::instance().sample(100.0);
    hits.inc(4);
    SeriesRecorder::instance().sample(101.0);
    SeriesRecorder::instance().disable();

    const auto series = rows_for("timeseries_test.baseline");
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].value, 3);
    EXPECT_EQ(series[0].cumulative, 3);
    EXPECT_EQ(series[1].value, 4);
    EXPECT_EQ(series[1].cumulative, 7);
    EXPECT_DOUBLE_EQ(series[1].rate, 4.0);
}

TEST(SeriesRecorder, RecordsOnlyChangedMetrics) {
    Counter& active = counter("timeseries_test.active");
    Gauge& level = gauge("timeseries_test.level");
    reset_recorder(1.0, 16);
    active.inc();
    level.set(5);
    SeriesRecorder::instance().sample(10.0);
    // Nothing moves: the next sample must carry no rows for either.
    SeriesRecorder::instance().sample(11.0);
    level.set(5);  // same value — still no row
    SeriesRecorder::instance().sample(12.0);
    level.set(7);
    SeriesRecorder::instance().sample(13.0);
    SeriesRecorder::instance().disable();

    EXPECT_EQ(rows_for("timeseries_test.active").size(), 1u);
    const auto levels = rows_for("timeseries_test.level");
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_FALSE(levels[0].is_counter);
    EXPECT_EQ(levels[0].value, 5);
    EXPECT_EQ(levels[1].value, 7);
}

TEST(SeriesRecorder, DownsamplingKeepsCumulativeCountsExact) {
    Counter& hits = counter("timeseries_test.downsample");
    reset_recorder(1.0, 4);
    auto& recorder = SeriesRecorder::instance();
    // 20 samples into a 4-slot ring: 16 merges, history gets coarser.
    for (int i = 1; i <= 20; ++i) {
        hits.inc(i);
        recorder.sample(double(100 + i));
    }
    recorder.disable();

    EXPECT_EQ(recorder.sample_count(), 4u);
    EXPECT_EQ(recorder.samples_taken(), 20u);
    const auto series = rows_for("timeseries_test.downsample");
    ASSERT_FALSE(series.empty());
    // Merged counter deltas must sum to the exact total (1 + ... + 20).
    EXPECT_EQ(series.back().cumulative, 210);
    // The newest sample survives unmerged.
    EXPECT_EQ(series.back().t, 120.0);
    EXPECT_EQ(series.back().value, 20);
    // Timestamps stay ordered after merging.
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_LT(series[i - 1].t, series[i].t);
}

TEST(SeriesRecorder, DisabledRecorderIgnoresSamplesAndSimTicks) {
    auto& recorder = SeriesRecorder::instance();
    recorder.disable();
    recorder.configure({60.0, 16});
    recorder.sample(1.0);
    EXPECT_EQ(recorder.samples_taken(), 0u);
    {
        sim::Simulation sim(net::TimePoint{500'000});
        sim.run_until(net::TimePoint{500'000} + net::Duration::hours(2));
    }
    EXPECT_EQ(recorder.samples_taken(), 0u);
}

TEST(SeriesRecorder, JsonExport) {
    Counter& hits = counter("timeseries_test.export");
    reset_recorder(1.0, 16);
    auto& recorder = SeriesRecorder::instance();
    hits.inc(2);
    recorder.sample(50.0);
    recorder.disable();

    std::ostringstream json;
    recorder.write_json(json);
    EXPECT_TRUE(json_valid(json.str())) << json.str();
    EXPECT_NE(json.str().find("\"timeseries_test.export\""), std::string::npos);
}

}  // namespace
}  // namespace dynaddr::obs
