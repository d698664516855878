#pragma once

// The historical batch analysis, one whole-population stage at a time,
// kept verbatim (minus the obs metrics plumbing) as the differential
// oracle for core::StreamingPipeline — the same pattern as
// pool::ReferenceAddressPool and sim::ReferenceEventQueue. This is a
// *specification*: tests assert AnalysisPipeline::run() ==
// run_reference() byte for byte, for any thread count. Not used outside
// tests; do not optimize.

#include <optional>

#include "core/pipeline.hpp"

namespace dynaddr::core {

/// Runs every analysis over `bundle`. `window` bounds the observation
/// period; when nullopt it is derived from the connection log (which must
/// then be non-empty). `config.threads` sizes the per-probe stage pool.
AnalysisResults run_reference(
    const PipelineConfig& config, const atlas::DatasetBundle& bundle,
    const bgp::PrefixTable& table, const bgp::AsRegistry& registry,
    std::optional<net::TimeInterval> window = std::nullopt);

}  // namespace dynaddr::core
