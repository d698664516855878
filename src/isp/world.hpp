#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "atlas/binary_bundle.hpp"
#include "atlas/cpe.hpp"
#include "atlas/datasets.hpp"
#include "atlas/kroot.hpp"
#include "atlas/special_probes.hpp"
#include "atlas/timeline.hpp"
#include "bgp/as_registry.hpp"
#include "bgp/prefix_table.hpp"
#include "isp/outage_model.hpp"
#include "ppp/radius.hpp"
#include "sim/faults.hpp"

namespace dynaddr::isp {

/// A homogeneous subset of one ISP's subscribers: same access protocol,
/// same session policy, same outage environment. Several cohorts let one
/// AS mix behaviours (e.g. BT's mostly-nonperiodic population with a
/// 2-week-periodic minority, or Proximus' 36 h and 24 h groups).
struct Cohort {
    int probe_count = 5;
    atlas::CpeConfig::Wan protocol = atlas::CpeConfig::Wan::Dhcp;

    // -- PPP / RADIUS -------------------------------------------------------
    /// Session-Timeout: the periodic renumbering period d. nullopt = no
    /// periodic limit (sessions run until an outage or reconnect).
    std::optional<net::Duration> session_timeout;
    /// Probability a timeout cycle is skipped (harmonic durations at 2d, 3d).
    double skip_renumber_probability = 0.08;
    /// Fraction of CPEs with the nightly privacy reconnect feature.
    double fraction_nightly_reconnect = 0.0;
    int nightly_hour_min = 0;  ///< UTC hour range the CPE reconnect lands in
    int nightly_hour_max = 5;

    // -- DHCP ---------------------------------------------------------------
    net::Duration dhcp_lease = net::Duration::hours(12);
    /// Administrative cap on continuous address tenure. With jitter this
    /// yields the weeks-scale, mode-free renumbering of stable ISPs.
    std::optional<net::Duration> dhcp_max_age;
    double dhcp_max_age_jitter = 0.0;

    // -- hardware & environment --------------------------------------------
    /// Fraction of probes that are v1/v2 hardware (excluded from the
    /// paper's power analysis).
    double v1v2_fraction = 0.10;
    OutageRates outages;
};

/// An administrative renumbering: at `when` the ISP retires one pool
/// block (its DHCP servers NAK every lease on it at the next renewal) and
/// brings a previously-unused block into service. The retired block's
/// aggregate disappears from the following month's IP-to-AS snapshot; the
/// new one appears from its first month of use. Only meaningful for DHCP
/// cohorts (PPP sessions drain naturally).
struct AdminRenumbering {
    net::TimePoint when;
    std::size_t retire_pool_index = 0;  ///< index into pool_prefixes
    std::size_t enable_pool_index = 0;  ///< index into pool_prefixes
};

/// One autonomous system: identity, address space, allocation behaviour,
/// and its subscriber cohorts.
struct IspSpec {
    std::uint32_t asn = 0;
    std::string name;
    /// Countries its probes are drawn from (uniformly). Usually one;
    /// pan-European ISPs like Liberty Global list several.
    std::vector<std::string> countries;
    bgp::Continent continent = bgp::Continent::Europe;
    /// Small blocks subscriber addresses are actually drawn from.
    std::vector<net::IPv4Prefix> pool_prefixes;
    /// BGP-announced aggregates; every pool prefix must lie inside exactly
    /// one. Aggregates larger than /16 make /16-crossing exceed
    /// BGP-crossing, as in the paper's Table 7 (e.g. BT).
    std::vector<net::IPv4Prefix> announced_prefixes;
    pool::AllocationStrategy strategy = pool::AllocationStrategy::RandomSpread;
    double churn_per_hour = 0.02;
    double locality_bias = 0.0;
    std::vector<Cohort> cohorts;
    std::vector<AdminRenumbering> admin_events;
};

/// Populations of probes exhibiting the behaviours the paper's Table 2
/// filters out. Counts are whatever scale the experiment wants.
struct SpecialMix {
    int never_changed = 0;
    int dual_stack = 0;
    int ipv6_only = 0;
    int tagged_alternating = 0;   ///< tagged AND behaviourally multihomed
    int tagged_stable = 0;        ///< tagged, stable address
    int untagged_alternating = 0; ///< behaviourally multihomed, no tag
    int testing_then_stable = 0;  ///< first connection from 193.0.0.78
};

/// Full description of one simulated world.
struct ScenarioConfig {
    net::TimeInterval window{net::TimePoint::from_date(2015, 1, 1),
                             net::TimePoint::from_date(2016, 1, 1)};
    std::vector<IspSpec> isps;
    SpecialMix specials;
    /// Probes that physically move to a different ISP mid-year (paper's
    /// "Multiple ASes" row); they cycle through consecutive ISP pairs.
    int cross_as_movers = 0;
    std::vector<net::TimePoint> firmware_releases;
    /// k-root emission policy; nullopt skips the dataset entirely (cheap
    /// runs for experiments that only need connection logs).
    std::optional<atlas::KRootSamplingPolicy> kroot;
    std::uint64_t seed = 2015;
    /// Deterministic fault plan for this run. Unset (the default) means no
    /// injector is created and every fault gate is a null check, so
    /// fingerprints match a fault-free build byte for byte. When the CLI
    /// has already installed a process-global injector, that one wins and
    /// this field is ignored.
    std::optional<sim::FaultPlan> faults;
    /// Optional streaming dataset sink (e.g. atlas::BinaryBundleWriter).
    /// run_scenario emits every record once, through an
    /// atlas::BundleCollector that fills ScenarioResult::bundle and tees
    /// into this sink in the same order: probe metadata as the world is
    /// built, connection/uptime records live as the simulation emits them,
    /// then k-root pings and the special probes' logs and metadata at
    /// scrape time. The caller owns the sink (and closes it) after
    /// run_scenario returns.
    atlas::BundleSink* bundle_sink = nullptr;
};

/// Ground truth about one probe, for validation; never fed to analysis.
struct ProbeTruth {
    atlas::ProbeId probe = 0;
    std::uint32_t asn = 0;  ///< 0 for special probes
    int cohort = -1;
    atlas::CpeConfig::Wan protocol = atlas::CpeConfig::Wan::Dhcp;
    std::optional<net::Duration> configured_period;
    std::vector<PlannedOutage> outages;
    bool special = false;
    bool mover = false;
    std::uint32_t mover_second_asn = 0;
};

/// Everything a scenario run yields.
struct ScenarioResult {
    atlas::DatasetBundle bundle;       ///< what the paper's authors had
    bgp::AsRegistry registry;          ///< public AS metadata
    bgp::PrefixTable prefix_table;     ///< pfx2as equivalent
    std::vector<atlas::Timeline> timelines;  ///< ground truth
    std::vector<ProbeTruth> truths;          ///< ground truth
    std::map<std::uint32_t, std::vector<ppp::AccountingRecord>> radius_records;
    std::uint64_t sim_events = 0;
};

/// Builds the world, runs the simulation over the window, emits datasets.
ScenarioResult run_scenario(const ScenarioConfig& config);

}  // namespace dynaddr::isp
