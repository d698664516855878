#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/admin_renumbering.hpp"
#include "core/as_mapping.hpp"
#include "core/cond_prob.hpp"
#include "core/filtering.hpp"
#include "core/geography.hpp"
#include "core/ipv6_privacy.hpp"
#include "core/outages.hpp"
#include "core/periodicity.hpp"
#include "core/prefix_change.hpp"

namespace dynaddr::core {

/// All analysis knobs in one place.
struct PipelineConfig {
    FilterConfig filter;
    PeriodicityConfig periodicity;
    OutageDetectorConfig outage;
    CondProbConfig cond_prob;
    AdminRenumberingConfig admin;
    Ipv6PrivacyConfig ipv6;
    /// Executor count for the per-probe pipeline stages (change
    /// extraction, reboot detection, the §5 outage loop). 0 = hardware
    /// concurrency, 1 = single-threaded. Output is bit-identical for any
    /// value: shards merge in probe order (see netcore/parallel.hpp).
    std::size_t threads = 0;
};

/// Everything the pipeline derives from one dataset bundle — the material
/// for every table and figure in the paper.
struct AnalysisResults {
    net::TimeInterval window;

    // §3.2-3.3 — Table 2
    FilterReport filter;
    AsMapping mapping;  ///< over analyzable probes

    /// Hardware versions of the analyzable probes that appear in the probe
    /// archive (empty when the bundle ships no probe metadata). The §5
    /// power detector only trusts v3 uptime semantics, so downstream
    /// consumers — notably the attribution audit — use this to scope
    /// power-outage expectations to probes the detector is allowed to see.
    std::map<atlas::ProbeId, atlas::ProbeVersion> probe_versions;

    // §3.1 — changes & durations, one entry per analyzable probe
    std::vector<ProbeChanges> changes;

    // §4 — Table 5, Figures 1-5
    PeriodicityAnalysis periodicity;
    GeographyAnalysis geography;

    // §6 — Table 7
    PrefixChangeAnalysis prefix_changes;

    // §8 future work — en-masse administrative renumbering
    std::vector<AdminRenumberingEvent> admin_events;

    // §8 future work — IPv6 privacy-extension rotation, computed over the
    // probes the IPv4 filtering discards (dual-stack, IPv6-only)
    Ipv6PrivacyAnalysis ipv6_privacy;

    // §5 — Table 6, Figures 6-9 (empty when the bundle has no k-root or
    // uptime data)
    FirmwareAnalysis firmware;
    std::map<atlas::ProbeId, std::vector<DetectedOutage>> network_outages;
    std::map<atlas::ProbeId, std::vector<DetectedOutage>> power_outages;
    std::map<atlas::ProbeId, std::vector<OutageOutcome>> network_outcomes;
    std::map<atlas::ProbeId, std::vector<OutageOutcome>> power_outcomes;
    CondProbAnalysis cond_prob;

    /// Changes of a given analyzable probe, nullptr when absent.
    [[nodiscard]] const ProbeChanges* changes_of(atlas::ProbeId probe) const;
};

/// Figure 9 helper: duration-binned outage outcomes for one AS, optionally
/// restricted to one outage kind (nullopt = both, as the paper plots).
DurationBinAnalysis duration_bins_for_as(
    const AnalysisResults& results, std::uint32_t asn,
    std::optional<DetectedOutage::Kind> kind = std::nullopt);

/// The end-to-end reproduction of the paper's methodology. Feed it the
/// dataset bundle (connection logs + k-root + uptime + probe archive), the
/// monthly IP-to-AS table, and the AS registry; it runs filtering, change
/// extraction, periodicity, geography, prefix, outage and conditional-
/// probability analyses. It never touches simulator ground truth.
class AnalysisPipeline {
public:
    explicit AnalysisPipeline(PipelineConfig config = {}) : config_(config) {}

    /// Runs everything. `window` bounds the observation period (used for
    /// firmware day indexing); when nullopt it is derived from the data.
    /// Implemented as a thin adapter over core::StreamingPipeline: the
    /// bundle is replayed probe by probe through the push-based
    /// accumulators. The historical one-stage-at-a-time implementation
    /// survives as the differential oracle run_reference() in
    /// tests/oracles/reference_pipeline.hpp; tests assert the two agree
    /// byte for byte.
    AnalysisResults run(const atlas::DatasetBundle& bundle,
                        const bgp::PrefixTable& table,
                        const bgp::AsRegistry& registry,
                        std::optional<net::TimeInterval> window = std::nullopt) const;

    [[nodiscard]] const PipelineConfig& config() const { return config_; }

private:
    PipelineConfig config_;
};

}  // namespace dynaddr::core
