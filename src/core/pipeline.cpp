#include "core/pipeline.hpp"

#include <algorithm>

#include "core/streaming_pipeline.hpp"
#include "netcore/error.hpp"

namespace dynaddr::core {

const ProbeChanges* AnalysisResults::changes_of(atlas::ProbeId probe) const {
    auto it = std::lower_bound(changes.begin(), changes.end(), probe,
                               [](const ProbeChanges& c, atlas::ProbeId id) {
                                   return c.probe < id;
                               });
    if (it == changes.end() || it->probe != probe) return nullptr;
    return &*it;
}

DurationBinAnalysis duration_bins_for_as(
    const AnalysisResults& results, std::uint32_t asn,
    std::optional<DetectedOutage::Kind> kind) {
    DurationBinAnalysis bins;
    auto feed = [&](const std::map<atlas::ProbeId, std::vector<OutageOutcome>>&
                        outcomes) {
        for (const auto& [probe, list] : outcomes) {
            auto probe_as = results.mapping.as_of(probe);
            if (!probe_as || *probe_as != asn) continue;
            for (const auto& outcome : list) bins.add(outcome);
        }
    };
    if (!kind || *kind == DetectedOutage::Kind::Network)
        feed(results.network_outcomes);
    if (!kind || *kind == DetectedOutage::Kind::Power)
        feed(results.power_outcomes);
    return bins;
}

AnalysisResults AnalysisPipeline::run(
    const atlas::DatasetBundle& bundle, const bgp::PrefixTable& table,
    const bgp::AsRegistry& registry,
    std::optional<net::TimeInterval> window) const {
    // The batch entry point is a thin adapter over the streaming pipeline.
    // The emptiness check runs up front so the error surfaces before any
    // feeding.
    if (!window && bundle.connection_log.empty())
        throw Error("empty connection log");
    StreamingPipeline::Options options;
    options.config = config_;
    StreamingPipeline streaming(table, registry, options);
    streaming.open(window);
    streaming.feed_bundle(bundle);
    return streaming.finish();
}

}  // namespace dynaddr::core
