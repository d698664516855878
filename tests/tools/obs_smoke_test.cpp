// End-to-end smoke test for the CLI observability flags: runs the real
// dynaddr binary on the quick preset with --metrics-out/--trace-out and
// validates the artifacts, plus the analyze --report section list. DYNADDR_CLI_PATH is injected by CMake.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "netcore/obs/json.hpp"

namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

class ObsSmoke : public ::testing::Test {
protected:
    // One directory per test and process: gtest_discover_tests runs the
    // tests as concurrent processes under `ctest -j`.
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("dynaddr_obs_smoke_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    fs::path dir_;
};

TEST_F(ObsSmoke, QuickPresetEmitsValidMetricsAndTrace) {
    const fs::path metrics = dir_ / "metrics.json";
    const fs::path trace = dir_ / "trace.json";
    const std::string command = std::string(DYNADDR_CLI_PATH) +
                                " --preset quick --metrics-out " + metrics.string() +
                                " --trace-out " + trace.string() + " > " +
                                (dir_ / "stdout.txt").string() + " 2> " +
                                (dir_ / "stderr.txt").string();
    ASSERT_EQ(std::system(command.c_str()), 0) << command;

    const std::string metrics_text = read_file(metrics);
    ASSERT_FALSE(metrics_text.empty());
    EXPECT_TRUE(dynaddr::obs::json_valid(metrics_text));
    // Pipeline stage counters, event-engine counters, and the Table 2
    // funnel block must all be present.
    EXPECT_NE(metrics_text.find("\"pipeline.probes_in\""), std::string::npos);
    EXPECT_NE(metrics_text.find("\"sim.wheel.fired\""), std::string::npos);
    EXPECT_NE(metrics_text.find("\"table2_funnel\": {"), std::string::npos);
    EXPECT_NE(metrics_text.find("\"analyzable\""), std::string::npos);

    const std::string trace_text = read_file(trace);
    ASSERT_FALSE(trace_text.empty());
    EXPECT_TRUE(dynaddr::obs::json_valid(trace_text));
    EXPECT_NE(trace_text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace_text.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(trace_text.find("\"scenario.build\""), std::string::npos);
}

TEST_F(ObsSmoke, SeriesOutRecordsSimulatedTimeSeries) {
    const fs::path series = dir_ / "series.json";
    const std::string command = std::string(DYNADDR_CLI_PATH) +
                                " --preset quick --series-out " + series.string() +
                                " --series-interval 86400 > " +
                                (dir_ / "stdout.txt").string() + " 2>&1";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
    const std::string text = read_file(series);
    ASSERT_FALSE(text.empty());
    EXPECT_TRUE(dynaddr::obs::json_valid(text));
    EXPECT_NE(text.find("\"interval_seconds\": 86400"), std::string::npos);
    // Simulated daily cadence: the quick preset starts 2015-01-01, so the
    // first possible sample lands exactly one day in.
    EXPECT_NE(text.find("\"t\": 1420156800"), std::string::npos);
    EXPECT_NE(text.find("\"cumulative\""), std::string::npos)
        << text.substr(0, 200);
}

TEST_F(ObsSmoke, MemReportWritesReconciliationJson) {
    const fs::path report = dir_ / "mem.json";
    const std::string command = std::string(DYNADDR_CLI_PATH) +
                                " --preset quick --mem-report " +
                                report.string() + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
    const std::string text = read_file(report);
    ASSERT_FALSE(text.empty());
    ASSERT_TRUE(dynaddr::obs::json_valid(text)) << text.substr(0, 400);
    const auto parsed = dynaddr::obs::json_parse(text);
    ASSERT_TRUE(parsed.has_value());
    // The end-of-plan capture: accounted bytes from live subsystems next
    // to the process figures, residual reported explicitly.
    EXPECT_GT(parsed->number_or("accounted_bytes", 0), 0);
    EXPECT_GT(parsed->number_or("process_rss_bytes", 0), 0);
    EXPECT_GT(parsed->number_or("process_peak_rss_bytes", 0), 0);
    ASSERT_NE(parsed->find("residual_bytes"), nullptr);
    const auto* subsystems = parsed->find("subsystems");
    ASSERT_NE(subsystems, nullptr);
    EXPECT_FALSE(subsystems->array.empty());
    EXPECT_NE(text.find("sim.event_queue"), std::string::npos);
    EXPECT_NE(text.find("pool.address_pool"), std::string::npos);
}

TEST_F(ObsSmoke, ProfileOutWritesFoldedStacks) {
    const fs::path folded = dir_ / "profile.folded";
    const std::string command = std::string(DYNADDR_CLI_PATH) +
                                " --preset quick --profile-hz 97"
                                " --profile-out " + folded.string() +
                                " > /dev/null 2>&1";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
    const std::string text = read_file(folded);
    ASSERT_FALSE(text.empty());
    // Folded-stack shape: `thread;frame;...;frame count` per line; the CLI
    // registers its own thread as "main".
    EXPECT_EQ(text.rfind("main;", 0), 0u) << text.substr(0, 120);
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
        EXPECT_NE(line.find(';'), std::string::npos) << line;
    }
}

/// End-to-end `dynaddr top`: a scaled background run serves --stats-port
/// on an ephemeral port (scraped from its own log line); `top --count 1`
/// polls it and must render the progress/memory table.
TEST_F(ObsSmoke, TopSubcommandRendersLiveRun) {
    const fs::path run_stderr = dir_ / "run-stderr.txt";
    const fs::path done = dir_ / "run-done";
    // --scale 800 stretches the quick preset to about ten seconds of wall
    // time, so the stats endpoint is comfortably alive for the poll.
    const std::string run_command =
        "( " + std::string(DYNADDR_CLI_PATH) +
        " simulate --preset quick --scale 800 --out " +
        (dir_ / "scaled").string() + " --stats-port 0 --log-level info > " +
        (dir_ / "run-stdout.txt").string() + " 2> " + run_stderr.string() +
        "; echo done > " + done.string() + " ) &";
    ASSERT_EQ(std::system(run_command.c_str()), 0) << run_command;

    // Scrape the ephemeral port from the run's own stats-server log line.
    std::string port;
    for (int attempt = 0; attempt < 300 && port.empty(); ++attempt) {
        const std::string log = read_file(run_stderr);
        const auto at = log.find("on 127.0.0.1:");
        if (at != std::string::npos) {
            for (std::size_t i = at + 13; i < log.size() && isdigit(log[i]); ++i)
                port.push_back(log[i]);
        }
        if (port.empty())
            std::system("sleep 0.1");
    }
    ASSERT_FALSE(port.empty()) << read_file(run_stderr);

    const fs::path top_out = dir_ / "top.txt";
    const std::string top_command = std::string(DYNADDR_CLI_PATH) +
                                    " top --port " + port + " --count 1 > " +
                                    top_out.string() + " 2>&1";
    EXPECT_EQ(std::system(top_command.c_str()), 0) << read_file(top_out);
    const std::string rendered = read_file(top_out);
    EXPECT_NE(rendered.find("progress"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("sim time"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("memory"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("rss"), std::string::npos) << rendered;

    // Let the background run finish before TearDown removes its dirs.
    for (int attempt = 0; attempt < 1200 && !fs::exists(done); ++attempt)
        std::system("sleep 0.1");
    ASSERT_TRUE(fs::exists(done)) << "background run did not finish";
}

/// Forks the CLI's hidden crash-test command and validates the flight
/// recorder's post-mortem artifact: dump JSON holding breadcrumb records
/// at levels the sink never saw plus a final metrics snapshot.
TEST_F(ObsSmoke, CrashTestLeavesValidDump) {
    const std::string command = std::string(DYNADDR_CLI_PATH) +
                                " crash-test --crash-dump-dir " + dir_.string() +
                                " > " + (dir_ / "stdout.txt").string() + " 2> " +
                                (dir_ / "stderr.txt").string();
    // The child dies by SIGSEGV after dumping; any nonzero status is fine
    // as long as the artifacts are intact.
    EXPECT_NE(std::system(command.c_str()), 0) << command;

    fs::path dump;
    for (const auto& entry : fs::directory_iterator(dir_)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("dynaddr-crash-", 0) == 0) dump = entry.path();
    }
    ASSERT_FALSE(dump.empty()) << "no dynaddr-crash-<pid>.json in " << dir_;

    const std::string text = read_file(dump);
    EXPECT_TRUE(dynaddr::obs::json_valid(text)) << text.substr(0, 400);
    EXPECT_NE(text.find("\"reason\": \"SIGSEGV\""), std::string::npos);
    // Breadcrumbs are debug-level: below the default sink level, captured
    // only by the flight recorder's ring.
    EXPECT_NE(text.find("crash-test breadcrumb 7"), std::string::npos);
    EXPECT_NE(text.find("\"level\": \"debug\""), std::string::npos);
    EXPECT_NE(text.find("cli.crash_test_runs"), std::string::npos);
    const std::string stderr_text = read_file(dir_ / "stderr.txt");
    EXPECT_EQ(stderr_text.find("crash-test breadcrumb"), std::string::npos);
}

/// A run that fails with an ordinary error must still write
/// --metrics-out (via the exit hook), never leave it silently missing.
TEST_F(ObsSmoke, FailedRunStillWritesMetricsOut) {
    const fs::path metrics = dir_ / "failed-metrics.json";
    const std::string command = std::string(DYNADDR_CLI_PATH) +
                                " analyze --data " +
                                (dir_ / "no-such-bundle").string() +
                                " --metrics-out " + metrics.string() +
                                " > /dev/null 2>&1";
    EXPECT_NE(std::system(command.c_str()), 0) << command;
    const std::string metrics_text = read_file(metrics);
    ASSERT_FALSE(metrics_text.empty());
    EXPECT_TRUE(dynaddr::obs::json_valid(metrics_text));
}

TEST_F(ObsSmoke, UnknownReportSectionIsRejected) {
    const fs::path bundle = dir_ / "bundle";
    const std::string cli = DYNADDR_CLI_PATH;
    const std::string simulate = cli + " simulate --preset quick --out " +
                                 bundle.string() + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(simulate.c_str()), 0) << simulate;

    // A misspelt section name fails and lists the valid names.
    const fs::path stderr_path = dir_ / "stderr.txt";
    const std::string typo = cli + " analyze --data " + bundle.string() +
                             " --report summary,tabel5 > /dev/null 2> " +
                             stderr_path.string();
    EXPECT_NE(std::system(typo.c_str()), 0) << typo;
    const std::string error = read_file(stderr_path);
    EXPECT_NE(error.find("tabel5"), std::string::npos) << error;
    EXPECT_NE(error.find("table5"), std::string::npos) << error;
    EXPECT_NE(error.find("fig7_8"), std::string::npos) << error;

    // Valid names print their sections and nothing else.
    const fs::path stdout_path = dir_ / "stdout.txt";
    const std::string valid = cli + " analyze --data " + bundle.string() +
                              " --report fig2,table5 > " + stdout_path.string() +
                              " 2>/dev/null";
    ASSERT_EQ(std::system(valid.c_str()), 0) << valid;
    const std::string text = read_file(stdout_path);
    EXPECT_EQ(text.rfind("Periodic renumbering (Table 5):\n", 0), 0u)
        << text.substr(0, 200);
    EXPECT_NE(text.find("(Figure 2):\n"), std::string::npos);
    EXPECT_EQ(text.find("Probe filtering (Table 2)"), std::string::npos);
}

TEST_F(ObsSmoke, EmptyChartSectionIsQuietOnStderr) {
    // --scale turns k-root off, so the bundle has no outage data and the
    // fig7_8 charts render their placeholder text. That is the report, not
    // a fault: nothing may reach stderr.
    const fs::path bundle = dir_ / "bundle";
    const std::string cli = DYNADDR_CLI_PATH;
    const std::string simulate = cli + " simulate --preset quick --scale 2 --out " +
                                 bundle.string() + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(simulate.c_str()), 0) << simulate;

    const fs::path stdout_path = dir_ / "stdout.txt";
    const fs::path stderr_path = dir_ / "stderr.txt";
    const std::string analyze = cli + " analyze --data " + bundle.string() +
                                " --report fig7_8 > " + stdout_path.string() +
                                " 2> " + stderr_path.string();
    ASSERT_EQ(std::system(analyze.c_str()), 0) << analyze;
    EXPECT_NE(read_file(stdout_path).find("(no series)"), std::string::npos);
    EXPECT_EQ(read_file(stderr_path), "");
}

// --help and -h print the usage text to stdout and succeed, for the top
// level and after a command, instead of reading as a flag without a value.
TEST_F(ObsSmoke, HelpPrintsUsageAndExitsZero) {
    const fs::path stdout_path = dir_ / "stdout.txt";
    const fs::path stderr_path = dir_ / "stderr.txt";
    for (const std::string args : {"--help", "-h", "simulate --help",
                                   "analyze --data bundle -h"}) {
        const std::string command = std::string(DYNADDR_CLI_PATH) + " " + args +
                                    " > " + stdout_path.string() + " 2> " +
                                    stderr_path.string();
        EXPECT_EQ(std::system(command.c_str()), 0) << command;
        EXPECT_EQ(read_file(stdout_path).rfind("usage:\n", 0), 0u) << args;
        EXPECT_EQ(read_file(stderr_path), "") << args;
    }
}

TEST_F(ObsSmoke, TerminateAlsoFlushesEmergencyMetrics) {
    const fs::path metrics = dir_ / "terminate-metrics.json";
    const std::string command = std::string(DYNADDR_CLI_PATH) +
                                " crash-test --mode terminate --crash-dump-dir " +
                                dir_.string() + " --metrics-out " +
                                metrics.string() + " > /dev/null 2>&1";
    EXPECT_NE(std::system(command.c_str()), 0) << command;
    const std::string metrics_text = read_file(metrics);
    ASSERT_FALSE(metrics_text.empty());
    EXPECT_TRUE(dynaddr::obs::json_valid(metrics_text));

    fs::path dump;
    for (const auto& entry : fs::directory_iterator(dir_)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("dynaddr-crash-", 0) == 0) dump = entry.path();
    }
    ASSERT_FALSE(dump.empty());
    EXPECT_NE(read_file(dump).find("\"reason\": \"std::terminate\""),
              std::string::npos);
}

}  // namespace
