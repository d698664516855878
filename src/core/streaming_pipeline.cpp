#include "core/streaming_pipeline.hpp"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>

#include "atlas/binary_bundle.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/memaccount.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/progress.hpp"
#include "netcore/obs/trace.hpp"
#include "netcore/parallel.hpp"

DYNADDR_LOG_MODULE(streaming);

namespace dynaddr::core {

namespace {

/// Registered once at first use so a run pays only relaxed atomic ops.
/// Stage latency histograms feed both the metrics export and (via
/// ObsSpan) the trace.
struct PipelineMetrics {
    obs::Counter& runs = obs::counter("pipeline.runs");
    obs::Counter& probes_in = obs::counter("pipeline.probes_in");
    obs::Counter& probes_analyzable = obs::counter("pipeline.probes_analyzable");
    obs::Counter& changes_extracted = obs::counter("pipeline.changes_extracted");
    obs::Counter& outage_probes = obs::counter("pipeline.outage_probes");
    obs::Counter& reboots_detected = obs::counter("pipeline.reboots_detected");
    obs::Histogram& periodicity_latency =
        obs::latency_histogram("pipeline.stage.periodicity");
    obs::Histogram& prefix_latency =
        obs::latency_histogram("pipeline.stage.prefix_changes");
    obs::Histogram& outage_latency =
        obs::latency_histogram("pipeline.stage.outages");
    obs::Histogram& finalize_latency =
        obs::latency_histogram("pipeline.stage.finalize");
    obs::Histogram& run_latency = obs::latency_histogram("pipeline.run");
};

PipelineMetrics& pipeline_metrics() {
    static PipelineMetrics metrics;
    return metrics;
}

/// table2_funnel counter name per filter category.
const char* funnel_name(ProbeCategory category) {
    switch (category) {
        case ProbeCategory::Analyzable: return "table2_funnel.analyzable";
        case ProbeCategory::NeverChanged: return "table2_funnel.never_changed";
        case ProbeCategory::DualStack: return "table2_funnel.dual_stack";
        case ProbeCategory::Ipv6Only: return "table2_funnel.ipv6_only";
        case ProbeCategory::TaggedMultihomed:
            return "table2_funnel.tagged_multihomed";
        case ProbeCategory::AlternatingMultihomed:
            return "table2_funnel.alternating_multihomed";
        case ProbeCategory::TestingAddressOnly:
            return "table2_funnel.testing_address_only";
    }
    return "table2_funnel.unknown";
}

/// Bumps the table2_funnel.* counters — the machine-readable Table 2.
/// Registered as a metrics block so the JSON export groups them.
void record_funnel(const FilterReport& report) {
    static const bool block_registered = [] {
        obs::metrics_block("table2_funnel");
        return true;
    }();
    (void)block_registered;
    obs::counter("table2_funnel.total").inc(std::uint64_t(report.total()));
    for (const auto& [category, count] : report.counts)
        obs::counter(funnel_name(category)).inc(std::uint64_t(count));
}

/// Raw input buffered for one not-yet-sealed probe.
struct RawProbe {
    atlas::ProbeId probe = 0;
    std::vector<atlas::ConnectionLogEntry> entries;
    /// Whether entries arrived already (start, end)-sorted. The grouped
    /// feeds (feed_bundle, the binary reader) always do; out-of-order raw
    /// feeds are sorted at finalize with group_by_probe's comparator.
    bool entries_sorted = true;
    std::vector<atlas::KRootPingRecord> kroot;
    std::vector<atlas::UptimeRecord> uptime;
    std::vector<atlas::ProbeMetadata> metadata;

    [[nodiscard]] std::size_t records() const {
        return entries.size() + kroot.size() + uptime.size();
    }
};

/// Power-outage candidate derived from one pre-firmware-filter reboot.
/// The firmware filter is a cross-population barrier, so finish() decides
/// which reboots survive; everything per-reboot (the k-root gap, the
/// network-overlap suppression, the address-change outcome) is computed
/// here at probe-finalize time, while the probe's raw data is still in
/// memory. Reboots are per-item independent in the reference detectors,
/// so selecting a subset of candidates later reproduces the reference's
/// detect-then-filter result exactly.
struct PowerCandidate {
    net::TimePoint at;        ///< the reboot instant this belongs to
    bool has_outage = false;  ///< flanking k-root gap wide enough
    bool suppressed = false;  ///< window explained by a network outage
    DetectedOutage outage;
    OutageOutcome outcome;    ///< only meaningful when kept
};

/// Everything one sealed probe contributes to the final results.
struct ProbeDerived {
    atlas::ProbeId probe = 0;
    FilterReport filter;       ///< single-probe report; merged then cleared
    Ipv6PrivacyAnalysis ipv6;  ///< single-probe; merged then cleared
    AsMapping mapping;         ///< single-probe; merged then cleared
    bool analyzable = false;
    bool has_kroot = false;
    std::optional<atlas::ProbeVersion> version;
    ProbeChanges changes;
    std::vector<DetectedOutage> network;
    std::vector<OutageOutcome> network_outcomes;
    std::vector<RebootInference> reboots;    ///< pre-filter, record order
    std::vector<PowerCandidate> candidates;  ///< sorted by reboot instant
};

constexpr net::TimePoint kWindowLoSentinel{std::int64_t{1} << 60};
constexpr net::TimePoint kWindowHiSentinel{-(std::int64_t{1} << 60)};

}  // namespace

struct StreamingPipeline::Impl {
    enum Channel { kConnection = 0, kKRoot = 1, kUptime = 2 };

    const bgp::PrefixTable* table;
    const bgp::AsRegistry* registry;
    Options options;

    bool is_open = false;
    std::optional<net::TimeInterval> window;
    std::optional<obs::ObsSpan> run_span;
    std::unique_ptr<par::ThreadPool> pool;

    std::optional<atlas::ProbeId> frontier[3];
    std::optional<atlas::ProbeId> sealed_through;

    std::map<atlas::ProbeId, RawProbe> raw;  ///< open probes, ascending
    std::vector<RawProbe> pending;           ///< sealed, awaiting finalize

    AnalysisResults results;
    std::vector<atlas::ProbeMetadata> all_metadata;
    std::vector<ProbeDerived> derived;  ///< ascending probe id
    net::TimePoint window_lo = kWindowLoSentinel;
    net::TimePoint window_hi = kWindowHiSentinel;
    std::size_t conlog_records = 0;
    std::size_t kroot_records = 0;
    std::size_t uptime_records = 0;
    std::size_t probes_total = 0;
    std::size_t buffered = 0;
    std::size_t peak_buffered = 0;

    /// Capacity accounting (mem.core.streaming): buffered records at
    /// per-record struct size — an estimate of the dominant cost, the
    /// not-yet-sealed raw input — published amortized from channel_feed
    /// and exactly at seal/flush boundaries.
    obs::MemRegistration mem{"core.streaming"};
    std::size_t mem_ops = 0;
    static constexpr std::size_t kRecordBytesEstimate =
        std::max({sizeof(atlas::ConnectionLogEntry),
                  sizeof(atlas::KRootPingRecord),
                  sizeof(atlas::UptimeRecord)});

    void publish_mem() { mem.report(buffered * kRecordBytesEstimate, buffered); }

    void require_open() const {
        if (!is_open)
            throw Error("StreamingPipeline: feed outside open()..finish()");
    }

    RawProbe& raw_for(atlas::ProbeId probe) {
        auto [it, inserted] = raw.try_emplace(probe);
        if (inserted) {
            it->second.probe = probe;
            ++probes_total;
        }
        return it->second;
    }

    /// Ordering checks shared by the three record channels.
    RawProbe& channel_feed(Channel channel, atlas::ProbeId probe) {
        require_open();
        if (sealed_through && probe <= *sealed_through)
            throw Error("StreamingPipeline: record for probe " +
                        std::to_string(probe) + " after seal_through(" +
                        std::to_string(*sealed_through) + ")");
        auto& last = frontier[channel];
        if (last && probe < *last)
            throw Error("StreamingPipeline: probe ids must be non-decreasing "
                        "per channel (got " +
                        std::to_string(probe) + " after " +
                        std::to_string(*last) + ")");
        last = probe;
        ++buffered;
        peak_buffered = std::max(peak_buffered, buffered);
        if ((++mem_ops & 255) == 0) publish_mem();
        return raw_for(probe);
    }

    // -- per-probe analysis (pure; runs on pool threads) --------------------

    [[nodiscard]] ProbeDerived finalize_probe(RawProbe&& probe_raw) const {
        const PipelineConfig& config = options.config;
        ProbeDerived out;
        out.probe = probe_raw.probe;
        for (const auto& meta : probe_raw.metadata)
            out.version = meta.version;  // last wins, like the reference map

        if (!probe_raw.entries.empty()) {
            ProbeLog log{probe_raw.probe, std::move(probe_raw.entries)};
            if (!probe_raw.entries_sorted)
                std::sort(log.entries.begin(), log.entries.end(),
                          [](const atlas::ConnectionLogEntry& a,
                             const atlas::ConnectionLogEntry& b) {
                              if (a.start != b.start) return a.start < b.start;
                              return a.end < b.end;
                          });
            const std::span<const ProbeLog> one{&log, 1};
            out.filter = filter_probes(one, probe_raw.metadata, config.filter);
            out.ipv6 = analyze_ipv6_privacy(one, config.ipv6);
            if (!out.filter.analyzable.empty()) {
                out.analyzable = true;
                const ProbeLog& cleaned = out.filter.analyzable.front();
                out.mapping = map_probes_to_as({&cleaned, 1}, *table);
                out.changes = extract_changes(cleaned);
                if (!probe_raw.kroot.empty()) {
                    out.has_kroot = true;
                    out.network =
                        detect_network_outages(probe_raw.kroot, config.outage);
                    out.network_outcomes = outage_outcomes(cleaned, out.network);
                }
            }
        }

        if (!probe_raw.uptime.empty())
            out.reboots = detect_reboots(probe_raw.uptime);

        // Power candidates: only v3 analyzable probes with k-root data can
        // ever yield power outages (reference §5.1 gating).
        if (out.analyzable && out.has_kroot && !out.reboots.empty() &&
            out.version && *out.version == atlas::ProbeVersion::V3) {
            const ProbeLog& cleaned = out.filter.analyzable.front();
            std::vector<RebootInference> sorted = out.reboots;
            std::sort(sorted.begin(), sorted.end(),
                      [](const RebootInference& a, const RebootInference& b) {
                          return a.at < b.at;
                      });
            out.candidates.reserve(sorted.size());
            for (const auto& reboot : sorted) {
                PowerCandidate candidate;
                candidate.at = reboot.at;
                const auto detected = detect_power_outages(
                    {&reboot, 1}, probe_raw.kroot, config.outage);
                if (!detected.empty()) {
                    candidate.has_outage = true;
                    candidate.outage = detected.front();
                    for (const auto& n : out.network)
                        if (n.begin < candidate.outage.end &&
                            candidate.outage.begin < n.end) {
                            candidate.suppressed = true;
                            break;
                        }
                    if (!candidate.suppressed)
                        candidate.outcome =
                            outage_outcomes(cleaned, {&candidate.outage, 1})
                                .front();
                }
                out.candidates.push_back(candidate);
            }
        }

        return out;
    }

    /// Sequential, ascending-probe merge of one finalized probe — the
    /// exact order the reference's sorted whole-population loops produce.
    void integrate(ProbeDerived&& d) {
        for (const auto& [probe, category] : d.filter.category)
            results.filter.category.emplace(probe, category);
        for (const auto& [category, count] : d.filter.counts)
            results.filter.counts[category] += count;
        for (auto& log : d.filter.analyzable)
            results.filter.analyzable.push_back(std::move(log));
        d.filter = {};

        for (const auto& view : d.ipv6.probes)
            results.ipv6_privacy.probes.push_back(view);
        results.ipv6_privacy.total_addresses += d.ipv6.total_addresses;
        results.ipv6_privacy.ephemeral_addresses += d.ipv6.ephemeral_addresses;
        results.ipv6_privacy.rotating_probes += d.ipv6.rotating_probes;
        // A single-probe sub-analysis adds at most one rotation sample
        // (weight 1); replay it into the population CDF.
        if (d.ipv6.rotation_cdf.sample_count() > 0 && !d.ipv6.probes.empty())
            results.ipv6_privacy.rotation_cdf.add(
                d.ipv6.probes.front().rotation_hours);
        d.ipv6 = {};

        for (const auto& [probe, asn] : d.mapping.single_as)
            results.mapping.single_as.emplace(probe, asn);
        for (const auto probe : d.mapping.multi_as)
            results.mapping.multi_as.insert(probe);
        for (const auto probe : d.mapping.unmapped)
            results.mapping.unmapped.insert(probe);
        d.mapping = {};

        if (d.analyzable) {
            if (d.version) results.probe_versions.emplace(d.probe, *d.version);
            results.changes.push_back(std::move(d.changes));
        }
        derived.push_back(std::move(d));
    }

    void flush_pending() {
        if (pending.empty()) return;
        std::size_t flushed_records = 0;
        for (const auto& probe_raw : pending) flushed_records += probe_raw.records();
        std::vector<ProbeDerived> slots(pending.size());
        {
            obs::ObsSpan span("pipeline.finalize", "pipeline",
                              &pipeline_metrics().finalize_latency);
            pool->parallel_for_shards(pending.size(), [&](std::size_t i) {
                obs::ObsSpan shard("pipeline.finalize.shard", "shard");
                slots[i] = finalize_probe(std::move(pending[i]));
            });
        }
        for (auto& slot : slots) integrate(std::move(slot));
        pending.clear();
        buffered -= flushed_records;
        publish_mem();
    }

    void seal_up_to(atlas::ProbeId probe) {
        auto end = raw.upper_bound(probe);
        for (auto it = raw.begin(); it != end; ++it)
            pending.push_back(std::move(it->second));
        raw.erase(raw.begin(), end);
        if (pending.size() >= options.finalize_batch) flush_pending();
    }

    void seal_all() {
        for (auto& [probe, probe_raw] : raw)
            pending.push_back(std::move(probe_raw));
        raw.clear();
        flush_pending();
    }
};

StreamingPipeline::StreamingPipeline(const bgp::PrefixTable& table,
                                     const bgp::AsRegistry& registry,
                                     Options options)
    : impl_(std::make_unique<Impl>()) {
    impl_->table = &table;
    impl_->registry = &registry;
    if (options.finalize_batch == 0) options.finalize_batch = 1;
    impl_->options = std::move(options);
}

StreamingPipeline::~StreamingPipeline() = default;

void StreamingPipeline::open(std::optional<net::TimeInterval> window) {
    if (impl_->is_open) throw Error("StreamingPipeline: open() while open");
    PipelineMetrics& metrics = pipeline_metrics();
    metrics.runs.inc();
    // Reset per-run state (finish() already cleared most of it; open()
    // after an abandoned run starts clean too). Impl holds an ObsSpan and
    // is not assignable, so swap in a fresh one.
    auto fresh = std::make_unique<Impl>();
    fresh->table = impl_->table;
    fresh->registry = impl_->registry;
    fresh->options = std::move(impl_->options);
    impl_ = std::move(fresh);
    impl_->is_open = true;
    impl_->window = window;
    impl_->run_span.emplace("pipeline.run", "pipeline", &metrics.run_latency);
    impl_->pool = std::make_unique<par::ThreadPool>(
        par::resolve_threads(impl_->options.config.threads));
}

void StreamingPipeline::feed_metadata(const atlas::ProbeMetadata& meta) {
    impl_->require_open();
    if (impl_->sealed_through && meta.probe <= *impl_->sealed_through)
        throw Error("StreamingPipeline: metadata for probe " +
                    std::to_string(meta.probe) + " after seal_through(" +
                    std::to_string(*impl_->sealed_through) + ")");
    impl_->all_metadata.push_back(meta);
    impl_->raw_for(meta.probe).metadata.push_back(meta);
}

void StreamingPipeline::feed_connection(const atlas::ConnectionLogEntry& entry) {
    RawProbe& probe_raw =
        impl_->channel_feed(Impl::kConnection, entry.probe);
    if (!probe_raw.entries.empty()) {
        const auto& last = probe_raw.entries.back();
        if (entry.start < last.start ||
            (entry.start == last.start && entry.end < last.end))
            probe_raw.entries_sorted = false;
    }
    probe_raw.entries.push_back(entry);
    ++impl_->conlog_records;
    impl_->window_lo = std::min(impl_->window_lo, entry.start);
    impl_->window_hi = std::max(impl_->window_hi, entry.end);
}

void StreamingPipeline::feed_kroot(const atlas::KRootPingRecord& record) {
    impl_->channel_feed(Impl::kKRoot, record.probe).kroot.push_back(record);
    ++impl_->kroot_records;
}

void StreamingPipeline::feed_uptime(const atlas::UptimeRecord& record) {
    impl_->channel_feed(Impl::kUptime, record.probe).uptime.push_back(record);
    ++impl_->uptime_records;
}

void StreamingPipeline::seal_through(atlas::ProbeId probe) {
    impl_->require_open();
    if (impl_->sealed_through && probe < *impl_->sealed_through)
        throw Error("StreamingPipeline: seal_through must be non-decreasing");
    impl_->sealed_through = probe;
    impl_->seal_up_to(probe);
    // Progress watermark for /top: how far the streaming run has sealed.
    obs::progress_note_sealed_probe(std::int64_t(probe));
    impl_->publish_mem();
}

void StreamingPipeline::feed_bundle(const atlas::DatasetBundle& bundle) {
    impl_->require_open();
    const std::size_t kroot_before = impl_->kroot_records;
    const std::size_t uptime_before = impl_->uptime_records;
    // Metadata first: classification and versioning read it at finalize.
    for (const auto& meta : bundle.probes) feed_metadata(meta);

    // The reference pipeline's own grouping helpers, so its quirks carry
    // over exactly: group_by_probe sorts each probe's entries, and the
    // split maps keep only the *first* contiguous run of an out-of-order
    // probe.
    auto logs = group_by_probe(bundle.connection_log);
    const auto kroot = split_kroot_by_probe(bundle.kroot_pings);
    const auto uptime = split_uptime_by_probe(bundle.uptime_records);

    auto log_it = logs.begin();
    auto kroot_it = kroot.begin();
    auto uptime_it = uptime.begin();
    while (log_it != logs.end() || kroot_it != kroot.end() ||
           uptime_it != uptime.end()) {
        atlas::ProbeId next = std::numeric_limits<atlas::ProbeId>::max();
        if (log_it != logs.end()) next = std::min(next, log_it->probe);
        if (kroot_it != kroot.end()) next = std::min(next, kroot_it->first);
        if (uptime_it != uptime.end()) next = std::min(next, uptime_it->first);

        if (log_it != logs.end() && log_it->probe == next) {
            RawProbe& probe_raw = impl_->channel_feed(Impl::kConnection, next);
            impl_->buffered += log_it->entries.size() - 1;  // channel_feed added 1
            impl_->peak_buffered =
                std::max(impl_->peak_buffered, impl_->buffered);
            impl_->conlog_records += log_it->entries.size();
            for (const auto& entry : log_it->entries) {
                impl_->window_lo = std::min(impl_->window_lo, entry.start);
                impl_->window_hi = std::max(impl_->window_hi, entry.end);
            }
            probe_raw.entries = std::move(log_it->entries);  // pre-sorted
            ++log_it;
        }
        if (kroot_it != kroot.end() && kroot_it->first == next) {
            for (const auto& record : kroot_it->second) feed_kroot(record);
            ++kroot_it;
        }
        if (uptime_it != uptime.end() && uptime_it->first == next) {
            for (const auto& record : uptime_it->second) feed_uptime(record);
            ++uptime_it;
        }
        seal_through(next);
    }
    // The reference's §5 emptiness check looks at the raw vectors, not
    // the (quirky) split maps; mirror that.
    impl_->kroot_records = kroot_before + bundle.kroot_pings.size();
    impl_->uptime_records = uptime_before + bundle.uptime_records.size();
}

AnalysisResults StreamingPipeline::finish() {
    Impl& impl = *impl_;
    impl.require_open();
    PipelineMetrics& metrics = pipeline_metrics();
    impl.seal_all();
    impl.is_open = false;

    AnalysisResults& results = impl.results;
    const PipelineConfig& config = impl.options.config;

    // -- observation window (reference semantics) ---------------------------
    if (impl.window) {
        results.window = *impl.window;
    } else {
        if (impl.conlog_records == 0) throw Error("empty connection log");
        results.window = {impl.window_lo,
                          impl.window_hi + net::Duration::seconds(1)};
    }

    // -- §3: merged funnel + changes ----------------------------------------
    metrics.probes_in.inc(std::uint64_t(results.filter.total()));
    metrics.probes_analyzable.inc(
        std::uint64_t(results.filter.count(ProbeCategory::Analyzable)));
    record_funnel(results.filter);
    DYNADDR_LOG(Info, streaming, "filtered ", results.filter.total(),
                " probes, ", results.filter.count(ProbeCategory::Analyzable),
                " analyzable");
    {
        std::size_t n = 0;
        for (const auto& c : results.changes) n += c.changes.size();
        metrics.changes_extracted.inc(n);
        DYNADDR_LOG(Info, streaming, "extracted ", n,
                    " address changes from ", results.changes.size(),
                    " probes");
    }

    // -- §4/§6/§8: cross-population stages over the compact change state ----
    {
        obs::ObsSpan span("pipeline.periodicity", "pipeline",
                          &metrics.periodicity_latency);
        results.periodicity =
            analyze_periodicity(results.changes, results.mapping,
                                *impl.registry, config.periodicity);
        results.geography =
            analyze_geography(results.changes, impl.all_metadata);
    }
    {
        obs::ObsSpan span("pipeline.prefix_changes", "pipeline",
                          &metrics.prefix_latency);
        results.prefix_changes = analyze_prefix_changes(
            results.changes, results.mapping, *impl.table, *impl.registry);
    }
    results.admin_events =
        detect_admin_renumbering(results.changes, results.mapping, *impl.table,
                                 results.window.end, config.admin);

    auto take = [&impl] {
        AnalysisResults out = std::move(impl.results);
        impl.results = {};
        impl.derived.clear();
        impl.all_metadata.clear();
        impl.run_span.reset();
        impl.pool.reset();
        return out;
    };

    // -- §5: outages --------------------------------------------------------
    if (impl.kroot_records == 0 && impl.uptime_records == 0) return take();

    std::vector<RebootInference> all_reboots;
    for (const auto& d : impl.derived)
        all_reboots.insert(all_reboots.end(), d.reboots.begin(),
                           d.reboots.end());
    metrics.reboots_detected.inc(all_reboots.size());

    results.firmware =
        detect_firmware_spikes(all_reboots, results.window, config.outage);
    const auto filtered_reboots = filter_firmware_reboots(
        all_reboots, results.firmware.release_days, config.outage);
    std::map<atlas::ProbeId, std::vector<RebootInference>> reboots_by_probe;
    for (const auto& reboot : filtered_reboots)
        reboots_by_probe[reboot.probe].push_back(reboot);

    std::vector<ProbeCondProb> tallies;
    {
        obs::ObsSpan span("pipeline.outages", "pipeline",
                          &metrics.outage_latency);
        for (auto& d : impl.derived) {
            if (!d.analyzable || !d.has_kroot) continue;
            std::vector<DetectedOutage> power;
            std::vector<OutageOutcome> power_outcomes;
            if (d.version && *d.version == atlas::ProbeVersion::V3) {
                if (auto it = reboots_by_probe.find(d.probe);
                    it != reboots_by_probe.end()) {
                    // Surviving reboots are (probe, at)-sorted; candidates
                    // too. Replay the kept subset against the
                    // finalize-time per-reboot candidates.
                    std::size_t ci = 0;
                    for (const auto& reboot : it->second) {
                        while (ci < d.candidates.size() &&
                               d.candidates[ci].at < reboot.at)
                            ++ci;
                        if (ci >= d.candidates.size() ||
                            d.candidates[ci].at != reboot.at)
                            throw Error(
                                "StreamingPipeline: surviving reboot without "
                                "a power candidate (internal invariant)");
                        const PowerCandidate& candidate = d.candidates[ci++];
                        if (candidate.has_outage && !candidate.suppressed) {
                            power.push_back(candidate.outage);
                            power_outcomes.push_back(candidate.outcome);
                        }
                    }
                }
            }
            tallies.push_back(
                tally_probe(d.probe, d.network_outcomes, power_outcomes));
            results.network_outages.emplace(d.probe, std::move(d.network));
            results.power_outages.emplace(d.probe, std::move(power));
            results.network_outcomes.emplace(d.probe,
                                             std::move(d.network_outcomes));
            results.power_outcomes.emplace(d.probe,
                                           std::move(power_outcomes));
        }
    }
    metrics.outage_probes.inc(tallies.size());
    results.cond_prob = analyze_cond_prob(tallies, results.mapping,
                                          *impl.registry, config.cond_prob);
    return take();
}

std::size_t StreamingPipeline::probes_seen() const {
    return impl_->probes_total;
}

std::size_t StreamingPipeline::buffered_records() const {
    return impl_->buffered;
}

std::size_t StreamingPipeline::peak_buffered_records() const {
    return impl_->peak_buffered;
}

namespace {

class PipelineFeedHandler final : public atlas::BundleStreamHandler {
public:
    explicit PipelineFeedHandler(StreamingPipeline& pipeline)
        : pipeline_(pipeline) {}
    void on_metadata(const atlas::ProbeMetadata& meta) override {
        pipeline_.feed_metadata(meta);
    }
    void on_connection(const atlas::ConnectionLogEntry& entry) override {
        pipeline_.feed_connection(entry);
    }
    void on_kroot(const atlas::KRootPingRecord& record) override {
        pipeline_.feed_kroot(record);
    }
    void on_uptime(const atlas::UptimeRecord& record) override {
        pipeline_.feed_uptime(record);
    }
    void on_probe_complete(atlas::ProbeId probe) override {
        pipeline_.seal_through(probe);
    }

private:
    StreamingPipeline& pipeline_;
};

}  // namespace

void feed_binary_bundle(StreamingPipeline& pipeline,
                        const std::string& directory, bool lenient) {
    PipelineFeedHandler handler(pipeline);
    atlas::stream_binary_bundle(directory, handler, lenient);
}

}  // namespace dynaddr::core
