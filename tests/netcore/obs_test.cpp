#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "netcore/obs/json.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/trace.hpp"

DYNADDR_LOG_MODULE(obs_test);

namespace dynaddr::obs {
namespace {

// -- metrics ---------------------------------------------------------------

TEST(Metrics, CounterSemantics) {
    Counter& c = counter("obs_test.counter_semantics");
    const auto before = c.value();
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), before + 42);
    // Same name, same instance.
    EXPECT_EQ(&c, &counter("obs_test.counter_semantics"));
}

TEST(Metrics, GaugeSemantics) {
    Gauge& g = gauge("obs_test.gauge_semantics");
    g.set(10);
    EXPECT_EQ(g.value(), 10);
    g.add(-25);
    EXPECT_EQ(g.value(), -15);
}

TEST(Metrics, HistogramBucketsAndSum) {
    Histogram& h = histogram("obs_test.histogram_semantics", {1.0, 10.0});
    h.observe(0.5);   // bucket 0 (<= 1)
    h.observe(1.0);   // bucket 0 (upper bounds inclusive)
    h.observe(5.0);   // bucket 1 (<= 10)
    h.observe(100.0); // overflow bucket
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket_count(0), 2u);
    EXPECT_EQ(h.bucket_count(1), 1u);
    EXPECT_EQ(h.bucket_count(2), 1u);
    EXPECT_NEAR(h.sum(), 106.5, 1e-6);
}

TEST(Metrics, MultiThreadedCounterSumsExactly) {
    Counter& c = counter("obs_test.mt_counter");
    const auto before = c.value();
    constexpr int kThreads = 8;
    constexpr int kIncrements = 100000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (int i = 0; i < kIncrements; ++i) c.inc();
        });
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(c.value(), before + std::uint64_t(kThreads) * kIncrements);
}

TEST(Metrics, SnapshotAndDiff) {
    Counter& c = counter("obs_test.diff_counter");
    const auto before = metrics_snapshot();
    c.inc(7);
    const auto after = metrics_snapshot();
    const auto diff = metrics_diff(after, before);
    EXPECT_EQ(diff.counters.at("obs_test.diff_counter"), 7u);
}

TEST(Metrics, JsonExportIsValidAndGroupsBlocks) {
    metrics_block("obs_test_block");
    counter("obs_test_block.alpha").inc(3);
    std::ostringstream out;
    write_metrics_json(out, metrics_snapshot());
    const std::string text = out.str();
    EXPECT_TRUE(json_valid(text)) << text;
    EXPECT_NE(text.find("\"obs_test_block\": {"), std::string::npos);
    EXPECT_NE(text.find("\"alpha\": "), std::string::npos);
}

// -- logging ---------------------------------------------------------------

TEST(Log, LevelParsing) {
    EXPECT_EQ(parse_level("info"), LogLevel::Info);
    EXPECT_EQ(parse_level("WARN"), LogLevel::Warn);
    EXPECT_EQ(parse_level("warning"), LogLevel::Warn);
    EXPECT_FALSE(parse_level("loud").has_value());
}

TEST(Log, PerModuleLevelFiltering) {
    std::ostringstream sink;
    set_log_sink(&sink);
    set_module_level("obs_test", LogLevel::Warn);
    DYNADDR_LOG(Debug, obs_test, "hidden");
    DYNADDR_LOG(Warn, obs_test, "visible ", 42);
    set_log_sink(nullptr);
    clear_module_level("obs_test");
    const std::string text = sink.str();
    EXPECT_EQ(text.find("hidden"), std::string::npos);
    EXPECT_NE(text.find("visible 42"), std::string::npos);
    EXPECT_NE(text.find("|obs_test|warn|"), std::string::npos);
}

TEST(Log, ModuleOverrideBeatsGlobal) {
    const LogLevel old_global = log_level();
    std::ostringstream sink;
    set_log_sink(&sink);
    set_log_level(LogLevel::Off);
    set_module_level("obs_test", LogLevel::Debug);
    DYNADDR_LOG(Debug, obs_test, "override wins");
    clear_module_level("obs_test");
    DYNADDR_LOG(Debug, obs_test, "back to global");
    set_log_sink(nullptr);
    set_log_level(old_global);
    const std::string text = sink.str();
    EXPECT_NE(text.find("override wins"), std::string::npos);
    EXPECT_EQ(text.find("back to global"), std::string::npos);
}

TEST(Log, ModuleSpecParsing) {
    apply_module_spec("obs_test:error");
    EXPECT_FALSE(LogModule::get("obs_test").enabled(LogLevel::Warn));
    EXPECT_TRUE(LogModule::get("obs_test").enabled(LogLevel::Error));
    clear_module_level("obs_test");
    EXPECT_THROW(apply_module_spec("obs_test"), std::exception);
    EXPECT_THROW(apply_module_spec("obs_test:loud"), std::exception);
}

// -- tracing ---------------------------------------------------------------

TEST(Trace, SpansNestAndJsonIsWellFormed) {
    clear_trace();
    enable_trace();
    {
        ObsSpan outer("outer", "test");
        {
            ObsSpan inner("inner", "test");
        }
    }
    disable_trace();
    EXPECT_EQ(trace_event_count(), 2u);
    std::ostringstream out;
    write_trace_json(out);
    const std::string text = out.str();
    EXPECT_TRUE(json_valid(text)) << text;
    // Inner closes first, so it is recorded first; outer must contain it.
    const auto inner_pos = text.find("\"inner\"");
    const auto outer_pos = text.find("\"outer\"");
    ASSERT_NE(inner_pos, std::string::npos);
    ASSERT_NE(outer_pos, std::string::npos);
    EXPECT_LT(inner_pos, outer_pos);
    clear_trace();
}

TEST(Trace, DisabledSpanRecordsNothing) {
    clear_trace();
    disable_trace();
    {
        ObsSpan span("ignored", "test");
    }
    EXPECT_EQ(trace_event_count(), 0u);
}

TEST(Trace, SpanFeedsHistogramEvenWhenDisabled) {
    disable_trace();
    Histogram& h = histogram("obs_test.span_latency", {1.0});
    const auto before = h.count();
    {
        ObsSpan span("timed", "test", &h);
    }
    EXPECT_EQ(h.count(), before + 1);
}

// -- JSON validator and parser ---------------------------------------------

TEST(JsonValid, AcceptsAndRejects) {
    EXPECT_TRUE(json_valid("{}"));
    EXPECT_TRUE(json_valid(R"({"a": [1, 2.5, -3e2], "b": {"c": null}})"));
    EXPECT_TRUE(json_valid("  [true, false, \"x\\n\\u00e9\"] "));
    EXPECT_FALSE(json_valid(""));
    EXPECT_FALSE(json_valid("{"));
    EXPECT_FALSE(json_valid("{\"a\": }"));
    EXPECT_FALSE(json_valid("[1,]"));
    EXPECT_FALSE(json_valid("01"));
    EXPECT_FALSE(json_valid("\"unterminated"));
    EXPECT_FALSE(json_valid("{} extra"));
    EXPECT_FALSE(json_valid("{\"bad\\q\": 1}"));
}

TEST(JsonParse, AcceptsExactlyWhatJsonValidAccepts) {
    // json_valid and json_parse share one grammar walker; the DOM build
    // must not change which inputs the grammar accepts.
    const std::string deepest = std::string(256, '[') + std::string(256, ']');
    const std::string too_deep = '[' + deepest + ']';
    const struct {
        std::string text;
        bool valid;
    } cases[] = {
        // JsonValid.AcceptsAndRejects
        {"{}", true},
        {R"({"a": [1, 2.5, -3e2], "b": {"c": null}})", true},
        {"  [true, false, \"x\\n\\u00e9\"] ", true},
        {"", false},
        {"{", false},
        {"{\"a\": }", false},
        {"[1,]", false},
        {"01", false},
        {"\"unterminated", false},
        {"{} extra", false},
        {"{\"bad\\q\": 1}", false},
        // \u escapes
        {R"("\u00E9\u20ac\u0041")", true},
        {R"({"\u0041": 1})", true},
        {R"("\u12")", false},
        {R"("\u12g4")", false},
        {R"("\u)", false},
        // literals
        {"true", true},
        {"false", true},
        {"null", true},
        {"tru", false},
        {"nul", false},
        {"False", false},
        // trailing garbage
        {"true false", false},
        {"null,", false},
        {"1 2", false},
        {"\"a\"\"b\"", false},
        {"[] ]", false},
        // nesting at and just past the 256-deep limit
        {deepest, true},
        {too_deep, false},
    };
    for (const auto& c : cases) {
        EXPECT_EQ(json_valid(c.text), c.valid) << c.text;
        EXPECT_EQ(json_parse(c.text).has_value(), c.valid) << c.text;
    }
    // The DOM side decodes what the validator only checks.
    const auto decoded = json_parse(R"(["\u00e9\n", true, -2.5e1, null])");
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->array.size(), 4u);
    EXPECT_EQ(decoded->array[0].string, "\xc3\xa9\n");
    EXPECT_TRUE(decoded->array[1].boolean);
    EXPECT_EQ(decoded->array[2].number, -25.0);
    EXPECT_EQ(decoded->array[3].type, JsonValue::Type::Null);
}

}  // namespace
}  // namespace dynaddr::obs
