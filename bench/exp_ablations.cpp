// Ablations over the design choices DESIGN.md calls out:
//   A1  thinned vs full-cadence k-root emission -> same outage attribution
//   A2  periodic-probe threshold sweep (0.10 / 0.25 / 0.50)
//   A3  duration-quantization on/off for mode detection
//   A4  sticky vs non-sticky DHCP pools -> P(ac|outage) shift
//   A5  configured lease duration vs measured tenure (negative result)
//   A6  planted administrative renumbering (paper §8) -> the detector
//       recovers it, and change attribution names it
//
// Every table and figure of the paper on an unmodified preset is a
// `dynaddr analyze --report` section; this driver covers what needs a
// modified world.

#include <iostream>

#include "core/report.hpp"
#include "isp/presets.hpp"
#include "netcore/ascii_chart.hpp"

namespace {

using namespace dynaddr;

/// A scenario run plus its analysis over the scenario's window.
struct Experiment {
    isp::ScenarioResult scenario;
    core::AnalysisResults results;
};

Experiment run_experiment(const isp::ScenarioConfig& config) {
    Experiment experiment;
    experiment.scenario = isp::run_scenario(config);
    experiment.results = core::AnalysisPipeline().run(
        experiment.scenario.bundle, experiment.scenario.prefix_table,
        experiment.scenario.registry, config.window);
    return experiment;
}

isp::ScenarioConfig small_outage_world(
    std::optional<atlas::KRootSamplingPolicy> kroot) {
    auto config = isp::presets::quick_scenario();
    config.window = {net::TimePoint::from_date(2015, 1, 1),
                     net::TimePoint::from_date(2015, 5, 1)};
    config.kroot = kroot;
    return config;
}

void ablation_kroot_thinning() {
    std::cout << "\nA1 — k-root thinning (same world, two sampling policies)\n";
    atlas::KRootSamplingPolicy full;
    full.base_cadence = net::Duration::seconds(240);
    full.dense_cadence = net::Duration::seconds(240);
    atlas::KRootSamplingPolicy thinned;
    thinned.base_cadence = net::Duration::hours(4);
    thinned.dense_cadence = net::Duration::seconds(240);
    thinned.dense_window = net::Duration::minutes(16);

    auto run = [&](const atlas::KRootSamplingPolicy& policy) {
        return run_experiment(small_outage_world(policy));
    };
    const auto exp_full = run(full);
    const auto exp_thin = run(thinned);

    auto tally = [](const core::AnalysisResults& results) {
        int outages = 0, changes = 0;
        for (const auto& map :
             {results.network_outcomes, results.power_outcomes})
            for (const auto& [probe, outcomes] : map)
                for (const auto& outcome : outcomes) {
                    ++outages;
                    changes += outcome.address_change;
                }
        return std::pair{outages, changes};
    };
    const auto [full_outages, full_changes] = tally(exp_full.results);
    const auto [thin_outages, thin_changes] = tally(exp_thin.results);
    std::cout << chart::render_table(
        {"Policy", "k-root records", "Outages", "With change"},
        {{"full 240s", std::to_string(exp_full.scenario.bundle.kroot_pings.size()),
          std::to_string(full_outages), std::to_string(full_changes)},
         {"thinned", std::to_string(exp_thin.scenario.bundle.kroot_pings.size()),
          std::to_string(thin_outages), std::to_string(thin_changes)}});
    std::cout << "Thinning keeps the attribution while cutting records "
              << core::fmt(double(exp_full.scenario.bundle.kroot_pings.size()) /
                               double(std::max<std::size_t>(
                                   1, exp_thin.scenario.bundle.kroot_pings.size())),
                           1)
              << "x.\n";
}

/// A2 and A3 both read the unmodified paper preset; `paper` is that world
/// analysed with the default PipelineConfig.
void ablation_threshold_sweep(const isp::ScenarioConfig& config,
                              const Experiment& paper) {
    std::cout << "\nA2 — periodic-probe threshold sweep\n";
    std::vector<std::vector<std::string>> rows;
    auto add_row = [&rows](double threshold, const core::AnalysisResults& results) {
        int periodic = 0;
        for (const auto& probe : results.periodicity.probes)
            if (probe.period_hours) ++periodic;
        rows.push_back({core::fmt(threshold, 2), std::to_string(periodic),
                        std::to_string(results.periodicity.as_rows.size())});
    };
    for (double threshold : {0.10, 0.25, 0.50}) {
        core::PipelineConfig pipeline_config;
        if (threshold == pipeline_config.periodicity.probe_threshold) {
            add_row(threshold, paper.results);
            continue;
        }
        pipeline_config.periodicity.probe_threshold = threshold;
        add_row(threshold, core::AnalysisPipeline(pipeline_config)
                               .run(paper.scenario.bundle,
                                    paper.scenario.prefix_table,
                                    paper.scenario.registry, config.window));
    }
    std::cout << chart::render_table({"Threshold", "Periodic probes", "Table-5 rows"},
                                     rows);
    std::cout << "0.25 (the paper's choice) is a plateau: lowering to 0.10 "
                 "sweeps in noise, raising to 0.50 drops weakly periodic "
                 "probes (outage-truncated tenures).\n";
}

void ablation_quantization(const Experiment& paper) {
    std::cout << "\nA3 — duration quantization for mode detection\n";
    // Raw 23.5-23.8 h tenures (period minus the reconnect gap) only form a
    // 24 h mode after quantization; compare mode mass with and without.
    const auto& results = paper.results;
    // Quantized mass at 24 h for DTAG vs the raw (unquantized) exact-value
    // mass.
    core::TotalTimeFraction quantized;
    stats::Cdf raw;
    for (const auto& changes : results.changes) {
        auto asn = results.mapping.as_of(changes.probe);
        if (!asn || *asn != 3320) continue;
        quantized.add_all(changes.spans);
        for (const auto& span : changes.spans)
            raw.add(span.duration().to_hours(), span.duration().to_hours());
    }
    std::cout << chart::render_table(
        {"Variant", "mass at exactly 24h"},
        {{"quantized (nearest hour)", core::fmt(quantized.fraction_at(24.0), 3)},
         {"raw seconds", core::fmt(raw.fraction_at(24.0), 3)}});
    std::cout << "Without quantization the daily mode evaporates — every "
                 "tenure is a few minutes short of 24 h because of the TCP "
                 "reconnect gap.\n";
}

void ablation_sticky_pools() {
    std::cout << "\nA4 — sticky vs non-sticky DHCP pool (LGI-like ISP)\n";
    std::vector<std::vector<std::string>> rows;
    for (const bool sticky : {true, false}) {
        auto config = small_outage_world(atlas::KRootSamplingPolicy{});
        config.isps = {isp::presets::lgi()};
        config.isps[0].strategy = sticky ? pool::AllocationStrategy::Sticky
                                         : pool::AllocationStrategy::RandomSpread;
        for (auto& cohort : config.isps[0].cohorts) cohort.probe_count = 30;
        config.specials = {};
        config.cross_as_movers = 0;
        const auto experiment = run_experiment(config);
        int outages = 0, changes = 0;
        for (const auto& map : {experiment.results.network_outcomes,
                                experiment.results.power_outcomes})
            for (const auto& [probe, outcomes] : map)
                for (const auto& outcome : outcomes) {
                    ++outages;
                    changes += outcome.address_change;
                }
        rows.push_back({sticky ? "sticky (RFC 2131 4.3.1)" : "non-sticky",
                        std::to_string(outages), std::to_string(changes),
                        core::fmt(outages ? 100.0 * changes / outages : 0.0, 1) +
                            "%"});
    }
    std::cout << chart::render_table(
        {"Pool policy", "Outages", "With change", "P(ac|outage)"}, rows);
    std::cout << "Dropping address preservation turns a stable DHCP ISP "
                 "into a renumber-on-expiry one — the paper's explanation "
                 "for the DHCP/PPP behavioural split.\n";
}

void ablation_lease_vs_tenure() {
    std::cout << "\nA5 — measured address tenure is NOT the configured lease\n";
    // The paper set out to infer DHCP lease durations and concluded it
    // could not: tenures reflect policy (caps, churn, outages), not the
    // lease timer. Sweep the lease with everything else fixed and watch
    // the measured median tenure ignore it.
    std::vector<std::vector<std::string>> rows;
    for (const int lease_hours : {2, 12, 48}) {
        isp::ScenarioConfig config;
        config.window = {net::TimePoint::from_date(2015, 1, 1),
                         net::TimePoint::from_date(2015, 7, 1)};
        isp::IspSpec spec;
        spec.asn = 64502;
        spec.name = "LeaseNet";
        spec.countries = {"DE"};
        spec.pool_prefixes = {net::IPv4Prefix::parse_or_throw("100.100.0.0/22")};
        spec.announced_prefixes = {net::IPv4Prefix::parse_or_throw("100.100.0.0/16")};
        spec.strategy = pool::AllocationStrategy::Sticky;
        spec.churn_per_hour = 0.05;
        isp::Cohort cohort;
        cohort.probe_count = 24;
        cohort.protocol = atlas::CpeConfig::Wan::Dhcp;
        cohort.dhcp_lease = net::Duration::hours(lease_hours);
        cohort.dhcp_max_age = net::Duration::hours(700);
        cohort.dhcp_max_age_jitter = 0.6;
        spec.cohorts = {cohort};
        config.isps = {spec};
        config.seed = 404;
        const auto experiment = run_experiment(config);
        stats::Cdf tenures;
        for (const auto& probe : experiment.results.changes)
            for (const auto& span : probe.spans)
                tenures.add(span.duration().to_hours());
        rows.push_back({std::to_string(lease_hours) + "h",
                        std::to_string(tenures.sample_count()),
                        tenures.sample_count() > 0
                            ? core::fmt(tenures.quantile(0.5) / 24.0, 1) + "d"
                            : "-"});
    }
    std::cout << chart::render_table({"Configured lease", "Tenures",
                                      "Median tenure"},
                                     rows);
    std::cout << "A 24x change in the lease barely moves the tenure: the "
                 "administrative cap and pool churn set it, which is why "
                 "the paper concludes \"the address durations we measured "
                 "are distinct from lease durations\".\n";
}

const net::TimePoint kPlantedDay = net::TimePoint::from_date(2015, 7, 15);

/// Plants LGI's block swap on kPlantedDay: AS6830 retires its first pool
/// block (62.163.0.0/22) for a fresh one whose aggregate is announced, and
/// its DHCP servers NAK every lease on the old block at the next renewal.
void plant_admin_renumbering(isp::ScenarioConfig& config) {
    for (auto& isp : config.isps) {
        if (isp.asn != 6830) continue;
        isp.pool_prefixes.push_back(net::IPv4Prefix::parse_or_throw("95.80.0.0/22"));
        isp.announced_prefixes.push_back(
            net::IPv4Prefix::parse_or_throw("95.80.0.0/16"));
        isp::AdminRenumbering event;
        event.when = kPlantedDay;
        event.retire_pool_index = 0;
        event.enable_pool_index = isp.pool_prefixes.size() - 1;
        isp.admin_events.push_back(event);
    }
}

void ablation_planted_admin() {
    std::cout << "\nA6 — planted administrative renumbering (AS6830 retires "
                 "62.163.0.0/16 for 95.80.0.0/16 on 2015-07-15)\n\n";
    const auto retired = net::IPv4Prefix::parse_or_throw("62.163.0.0/16");
    const std::pair<const char*, isp::ScenarioConfig (*)()> presets[] = {
        {"paper", isp::presets::paper_scenario},
        {"outage", isp::presets::outage_scenario}};
    for (const auto& [preset, scenario] : presets) {
        auto config = scenario();
        plant_admin_renumbering(config);
        const auto experiment = run_experiment(config);
        const auto& results = experiment.results;
        const auto& table = experiment.scenario.prefix_table;
        const auto& registry = experiment.scenario.registry;

        std::cout << preset << " preset:\n"
                  << core::find_report_section("admin")->render(results, table,
                                                                registry);
        // A probe that rode out an outage across the event date shows a
        // last-seen slightly before it, so allow a few days of slack.
        const auto slack = net::Duration::days(4);
        bool recovered = false;
        for (const auto& event : results.admin_events)
            recovered = recovered ||
                        (event.asn == 6830 && event.retired_prefix == retired &&
                         event.first_departure >= kPlantedDay - slack &&
                         event.last_departure <= kPlantedDay + slack);
        std::cout << "Planted event recovered: " << (recovered ? "YES" : "NO")
                  << "; false positives: "
                  << int(results.admin_events.size()) - int(recovered) << "\n\n"
                  << core::find_report_section("causes")->render(results, table,
                                                                 registry);
    }
}

}  // namespace

int main() {
    std::cout << "Ablations — design-choice sensitivity\n";
    ablation_kroot_thinning();
    const auto paper_config = isp::presets::paper_scenario();
    const Experiment paper = run_experiment(paper_config);
    ablation_threshold_sweep(paper_config, paper);
    ablation_quantization(paper);
    ablation_sticky_pools();
    ablation_lease_vs_tenure();
    ablation_planted_admin();
    return 0;
}
