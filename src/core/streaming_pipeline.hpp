#pragma once

// Push-based analysis pipeline: open(window) → feed(...) → finish(). The
// one production analysis: AnalysisPipeline::run is a thin adapter that
// replays an in-memory bundle through it.
//
// Holding a whole DatasetBundle plus every intermediate vector in RAM is a
// dead end for million-CPE simulated years. This consumer runs the paper's per-probe analyses (filtering funnel, change
// extraction, IPv6 privacy, AS mapping, network/power outage detection)
// the moment a probe's records are complete, keeping only O(probes)
// state plus the derived analysis output; the cross-population stages
// (firmware spikes, periodicity, geography, prefixes, conditional
// probabilities) run once at finish() over that compact state.
//
// Ordering contract (what the columnar bundle writer guarantees): each
// channel (connection log, k-root, uptime) is fed with non-decreasing
// probe ids, records time-sorted within a probe; a probe's metadata is
// fed before the probe is sealed. seal_through(p) declares that no
// channel will deliver further records for probes <= p, which is what
// lets the pipeline finalize and free them. Violations throw Error.
//
// Determinism: finish() produces results byte-identical to the batch
// oracle run_reference() (tests/oracles/reference_pipeline.hpp; "the
// reference" below) on the same (grouped) input, for any thread count —
// probes finalize in ascending id order and merge sequentially, mirroring
// the reference's shard/merge contract.

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"

namespace dynaddr::core {

class StreamingPipeline {
public:
    struct Options {
        PipelineConfig config;
        /// Sealed probes queued before a parallel finalize flush. The
        /// batch is the unit handed to the thread pool; results still
        /// merge in probe order.
        std::size_t finalize_batch = 64;
    };

    /// `table` and `registry` must outlive the pipeline.
    StreamingPipeline(const bgp::PrefixTable& table,
                      const bgp::AsRegistry& registry, Options options);
    StreamingPipeline(const bgp::PrefixTable& table,
                      const bgp::AsRegistry& registry)
        : StreamingPipeline(table, registry, Options{}) {}
    ~StreamingPipeline();
    StreamingPipeline(const StreamingPipeline&) = delete;
    StreamingPipeline& operator=(const StreamingPipeline&) = delete;

    /// Starts a run. Without a window, one is derived from the fed
    /// connection log at finish() (min start .. max end + 1 s), matching
    /// the reference; finishing with no window and no connection records
    /// throws the reference's "empty connection log" error.
    void open(std::optional<net::TimeInterval> window = std::nullopt);

    // -- push interface -----------------------------------------------------
    void feed_metadata(const atlas::ProbeMetadata& meta);
    void feed_connection(const atlas::ConnectionLogEntry& entry);
    void feed_kroot(const atlas::KRootPingRecord& record);
    void feed_uptime(const atlas::UptimeRecord& record);

    /// No further records will arrive for probes <= `probe` on any
    /// channel; their analyses run now and their raw buffers are freed.
    void seal_through(atlas::ProbeId probe);

    /// Replays an in-memory bundle through the push interface using the
    /// batch grouping helpers the reference uses (group_by_probe,
    /// split_*_by_probe), so grouping quirks (duplicate-run handling,
    /// per-probe entry sort) match it exactly.
    void feed_bundle(const atlas::DatasetBundle& bundle);

    /// Runs the cross-population stages and returns the results. The
    /// pipeline is spent afterwards; open() starts a fresh run.
    AnalysisResults finish();

    // -- memory accounting (the O(probes) acceptance check) -----------------
    [[nodiscard]] std::size_t probes_seen() const;
    /// Raw records currently buffered for unsealed probes.
    [[nodiscard]] std::size_t buffered_records() const;
    /// High-water mark of buffered_records() over the run: stays at
    /// O(records of the widest probe), not O(records), when the caller
    /// seals as it goes.
    [[nodiscard]] std::size_t peak_buffered_records() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Feeds a columnar binary bundle (atlas::stream_binary_bundle) into an
/// open pipeline: metadata first, then each probe's records in ascending
/// id order with seal_through after each — the O(probes) ingestion path.
/// `lenient` forwards to the binary reader (bad blocks dropped+counted).
void feed_binary_bundle(StreamingPipeline& pipeline,
                        const std::string& directory, bool lenient = false);

}  // namespace dynaddr::core
