// Determinism of the sharded AnalysisPipeline: every analysis output (the
// shared results fingerprint) must be identical for any thread count on an
// outage-preset scenario (the pool's shard/merge contract).

#include <gtest/gtest.h>

#include <string>

#include "core/pipeline.hpp"
#include "isp/presets.hpp"
#include "oracles/fingerprint.hpp"

namespace dynaddr::core {
namespace {

TEST(PipelineDeterminism, OutputIdenticalForAnyThreadCount) {
    // The outage preset exercises all three sharded stages (change
    // extraction, reboot detection, the §5 per-probe loop).
    const auto config = isp::presets::outage_scenario();
    const auto scenario = isp::run_scenario(config);

    std::string baseline;
    for (const std::size_t threads : {1u, 2u, 8u, 0u}) {
        PipelineConfig pipeline_config;
        pipeline_config.threads = threads;
        AnalysisPipeline pipeline(pipeline_config);
        const auto results =
            pipeline.run(scenario.bundle, scenario.prefix_table,
                         scenario.registry, config.window);
        const auto print = fingerprint(results);
        if (threads == 1) {
            // Guard that the scenario is substantive enough to catch merge
            // bugs: per-probe outage content must actually exist.
            EXPECT_FALSE(results.changes.empty());
            EXPECT_FALSE(results.network_outages.empty());
            EXPECT_GT(results.cond_prob.probes.size(), 0u);
            baseline = print;
        } else {
            EXPECT_TRUE(print == baseline) << "threads=" << threads;
        }
    }
    EXPECT_FALSE(baseline.empty());
}

}  // namespace
}  // namespace dynaddr::core
