#include "oracles/reference_pipeline.hpp"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "netcore/error.hpp"
#include "netcore/parallel.hpp"

namespace dynaddr::core {

namespace {

// ---------------------------------------------------------------------------
// Per-probe stage functions. Each is a pure function of one probe's data so
// the pool can run probes in any order; the caller merges the pre-sized
// per-shard slots in shard order, keeping output identical for any thread
// count (see par::ThreadPool's determinism contract).
// ---------------------------------------------------------------------------

/// §5 output for one probe: everything the per-probe outage loop derives.
struct ProbeOutageAnalysis {
    bool present = false;  ///< false when the probe has no k-root records
    std::vector<DetectedOutage> network;
    std::vector<DetectedOutage> power;
    std::vector<OutageOutcome> network_outcomes;
    std::vector<OutageOutcome> power_outcomes;
    ProbeCondProb tally;
};

/// The §5 outage stage for one analyzable probe. `version` is nullopt when
/// the probe is absent from the probe archive; such probes keep network
/// detection but are excluded from power detection — the paper (§5.1) only
/// trusts v3 uptime semantics, and an unknown probe may be v1/v2.
ProbeOutageAnalysis analyze_probe_outages(
    const ProbeLog& log, std::span<const atlas::KRootPingRecord> kroot,
    std::optional<atlas::ProbeVersion> version,
    const std::vector<RebootInference>* reboots,
    const OutageDetectorConfig& config) {
    ProbeOutageAnalysis out;
    out.present = true;

    // Network outages: every probe version.
    out.network = detect_network_outages(kroot, config);

    // Power outages: v3 only — v1/v2 reboot on new TCP connections and
    // would fake power cuts (paper §5.1); unknown versions are excluded
    // for the same reason.
    if (version && *version == atlas::ProbeVersion::V3 && reboots) {
        out.power = detect_power_outages(*reboots, kroot, config);
        // A "power outage" whose window is explained by a detected
        // network outage is the network event seen twice; keep the
        // network attribution (paper §3.6 priority).
        std::erase_if(out.power, [&](const DetectedOutage& p) {
            for (const auto& n : out.network)
                if (n.begin < p.end && p.begin < n.end) return true;
            return false;
        });
    }

    out.network_outcomes = outage_outcomes(log, out.network);
    out.power_outcomes = outage_outcomes(log, out.power);
    out.tally =
        tally_probe(log.probe, out.network_outcomes, out.power_outcomes);
    return out;
}

}  // namespace

AnalysisResults run_reference(const PipelineConfig& config,
                              const atlas::DatasetBundle& bundle,
                              const bgp::PrefixTable& table,
                              const bgp::AsRegistry& registry,
                              std::optional<net::TimeInterval> window) {
    AnalysisResults results;

    // -- observation window ---------------------------------------------------
    // Emptiness is checked before any scan so the sentinel bounds below can
    // never leak into results. An explicit window with an empty log is
    // valid: the pipeline runs with that window and every per-probe
    // analysis comes back empty (firmware detection still sees uptime data).
    if (!window && bundle.connection_log.empty())
        throw Error("empty connection log");
    if (window) {
        results.window = *window;
    } else {
        net::TimePoint lo{std::int64_t{1} << 60}, hi{-(std::int64_t{1} << 60)};
        for (const auto& e : bundle.connection_log) {
            lo = std::min(lo, e.start);
            hi = std::max(hi, e.end);
        }
        results.window = {lo, hi + net::Duration::seconds(1)};
    }

    // One pool for every per-probe stage; size 1 is exactly the
    // historical sequential path (no workers, plain loop).
    par::ThreadPool pool(par::resolve_threads(config.threads));

    // -- §3: filtering and change extraction ----------------------------------
    const auto logs = group_by_probe(bundle.connection_log);
    results.filter = filter_probes(logs, bundle.probes, config.filter);
    results.ipv6_privacy = analyze_ipv6_privacy(logs, config.ipv6);
    results.mapping = map_probes_to_as(results.filter.analyzable, table);
    {
        std::unordered_map<atlas::ProbeId, atlas::ProbeVersion> version;
        for (const auto& meta : bundle.probes) version[meta.probe] = meta.version;
        for (const auto& log : results.filter.analyzable)
            if (auto it = version.find(log.probe); it != version.end())
                results.probe_versions.emplace(log.probe, it->second);
    }

    // Parallel stage: change extraction, one shard per analyzable probe.
    const auto& analyzable = results.filter.analyzable;
    results.changes.resize(analyzable.size());
    pool.parallel_for_shards(analyzable.size(), [&](std::size_t i) {
        results.changes[i] = extract_changes(analyzable[i]);
    });

    // -- §4: periodicity; geography — cross-population, sequential barrier -----
    results.periodicity = analyze_periodicity(
        results.changes, results.mapping, registry, config.periodicity);
    results.geography = analyze_geography(results.changes, bundle.probes);

    // -- §6: prefixes -----------------------------------------------------------
    results.prefix_changes = analyze_prefix_changes(
        results.changes, results.mapping, table, registry);

    // -- §8 future work: administrative renumbering ------------------------------
    results.admin_events = detect_admin_renumbering(
        results.changes, results.mapping, table, results.window.end,
        config.admin);

    // -- §5: outages (needs k-root + uptime data) -------------------------------
    if (bundle.kroot_pings.empty() && bundle.uptime_records.empty())
        return results;

    const auto kroot = split_kroot_by_probe(bundle.kroot_pings);
    const auto uptime = split_uptime_by_probe(bundle.uptime_records);

    // Parallel stage: reboot detection, one shard per probe with uptime
    // data. Shard-order concatenation reproduces the sequential map walk.
    std::vector<std::span<const atlas::UptimeRecord>> uptime_spans;
    uptime_spans.reserve(uptime.size());
    for (const auto& [probe, records] : uptime) uptime_spans.push_back(records);
    std::vector<std::vector<RebootInference>> reboot_slots(uptime_spans.size());
    pool.parallel_for_shards(uptime_spans.size(), [&](std::size_t i) {
        reboot_slots[i] = detect_reboots(uptime_spans[i]);
    });
    std::vector<RebootInference> all_reboots;
    for (const auto& slot : reboot_slots)
        all_reboots.insert(all_reboots.end(), slot.begin(), slot.end());

    // Reboots across the whole population feed the firmware-spike filter —
    // a cross-population sequential barrier.
    results.firmware =
        detect_firmware_spikes(all_reboots, results.window, config.outage);
    const auto filtered_reboots = filter_firmware_reboots(
        all_reboots, results.firmware.release_days, config.outage);
    std::map<atlas::ProbeId, std::vector<RebootInference>> reboots_by_probe;
    for (const auto& reboot : filtered_reboots)
        reboots_by_probe[reboot.probe].push_back(reboot);

    // Parallel stage: the §5 per-probe outage loop, one shard per
    // analyzable probe.
    std::vector<ProbeOutageAnalysis> outage_slots(analyzable.size());
    pool.parallel_for_shards(analyzable.size(), [&](std::size_t i) {
        const ProbeLog& log = analyzable[i];
        const auto kroot_it = kroot.find(log.probe);
        if (kroot_it == kroot.end()) return;  // slot stays absent
        std::optional<atlas::ProbeVersion> probe_version;
        if (auto it = results.probe_versions.find(log.probe);
            it != results.probe_versions.end())
            probe_version = it->second;
        const std::vector<RebootInference>* reboots = nullptr;
        if (auto it = reboots_by_probe.find(log.probe);
            it != reboots_by_probe.end())
            reboots = &it->second;
        outage_slots[i] = analyze_probe_outages(log, kroot_it->second,
                                                probe_version, reboots,
                                                config.outage);
    });

    // Merge in shard order: analyzable is sorted by probe id, so map
    // insertion order and tally order match the sequential run exactly.
    std::vector<ProbeCondProb> tallies;
    for (std::size_t i = 0; i < outage_slots.size(); ++i) {
        auto& slot = outage_slots[i];
        if (!slot.present) continue;
        const atlas::ProbeId probe = analyzable[i].probe;
        tallies.push_back(slot.tally);
        results.network_outages.emplace(probe, std::move(slot.network));
        results.power_outages.emplace(probe, std::move(slot.power));
        results.network_outcomes.emplace(probe,
                                         std::move(slot.network_outcomes));
        results.power_outcomes.emplace(probe, std::move(slot.power_outcomes));
    }
    results.cond_prob = analyze_cond_prob(tallies, results.mapping, registry,
                                          config.cond_prob);
    return results;
}

}  // namespace dynaddr::core
